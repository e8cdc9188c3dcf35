package timeslice

import (
	"testing"
	"testing/quick"
	"time"
)

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

func TestGranularityString(t *testing.T) {
	cases := map[Granularity]string{Day: "day", Week: "week", Month: "month", Year: "year"}
	for g, want := range cases {
		if got := g.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", g, got, want)
		}
		back, err := Parse(want)
		if err != nil || back != g {
			t.Errorf("Parse(%q) = %v, %v; want %v, nil", want, back, err, g)
		}
	}
	if _, err := Parse("fortnight"); err == nil {
		t.Error("Parse(fortnight) succeeded, want error")
	}
}

func TestKeyForDay(t *testing.T) {
	a := KeyFor(Day, date(2016, time.May, 3).Add(2*time.Hour))
	b := KeyFor(Day, date(2016, time.May, 3).Add(23*time.Hour+59*time.Minute))
	if a != b {
		t.Errorf("same day produced different keys: %v vs %v", a, b)
	}
	c := KeyFor(Day, date(2016, time.May, 4))
	if a == c {
		t.Errorf("different days produced same key: %v", a)
	}
	if got := a.Start(); !got.Equal(date(2016, time.May, 3)) {
		t.Errorf("Start = %v, want 2016-05-03", got)
	}
	if got := a.End(); !got.Equal(date(2016, time.May, 4)) {
		t.Errorf("End = %v, want 2016-05-04", got)
	}
}

func TestKeyForWeekMondayBoundary(t *testing.T) {
	// 2016-05-02 was a Monday.
	mon := date(2016, time.May, 2)
	sun := date(2016, time.May, 8)
	nextMon := date(2016, time.May, 9)
	if KeyFor(Week, mon) != KeyFor(Week, sun) {
		t.Error("Monday and following Sunday should share a week key")
	}
	if KeyFor(Week, mon) == KeyFor(Week, nextMon) {
		t.Error("consecutive Mondays should differ")
	}
	k := KeyFor(Week, date(2016, time.May, 5))
	if got := k.Start(); !got.Equal(mon) {
		t.Errorf("week Start = %v, want %v", got, mon)
	}
	if k.Start().Weekday() != time.Monday {
		t.Errorf("week starts on %v, want Monday", k.Start().Weekday())
	}
}

func TestKeyForMonthYear(t *testing.T) {
	k := KeyFor(Month, date(2016, time.December, 31).Add(12*time.Hour))
	if got := k.Start(); !got.Equal(date(2016, time.December, 1)) {
		t.Errorf("month Start = %v", got)
	}
	if got := k.End(); !got.Equal(date(2017, time.January, 1)) {
		t.Errorf("month End = %v (year rollover)", got)
	}
	y := KeyFor(Year, date(2017, time.June, 15))
	if got, want := y.Start(), date(2017, time.January, 1); !got.Equal(want) {
		t.Errorf("year Start = %v, want %v", got, want)
	}
}

func TestKeyString(t *testing.T) {
	cases := []struct {
		k    Key
		want string
	}{
		{KeyFor(Day, date(2016, time.May, 3)), "day:2016-05-03"},
		{KeyFor(Month, date(2016, time.May, 3)), "month:2016-05"},
		{KeyFor(Year, date(2016, time.May, 3)), "year:2016"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	k := KeyFor(Week, date(2016, time.May, 4))
	if !k.Contains(date(2016, time.May, 2)) || !k.Contains(date(2016, time.May, 8).Add(23*time.Hour)) {
		t.Error("week should contain its Monday and Sunday")
	}
	if k.Contains(date(2016, time.May, 9)) {
		t.Error("week should not contain the next Monday")
	}
}

// Property: for every granularity, a timestamp is contained in its own key's
// interval, and the key is stable across the interval boundaries.
func TestKeyForPropertyContains(t *testing.T) {
	base := date(2010, time.January, 1).Unix()
	f := func(offsetHours uint32, gidx uint8) bool {
		g := All[int(gidx)%len(All)]
		ts := time.Unix(base+int64(offsetHours%200000)*3600, 0).UTC()
		k := KeyFor(g, ts)
		if !k.Contains(ts) {
			return false
		}
		// Start of slice maps to the same key; End maps to the next.
		return KeyFor(g, k.Start()) == k && KeyFor(g, k.End()) == Key{k.Gran, k.Index + 1}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: keys partition time — two timestamps share a key iff neither
// slice boundary separates them.
func TestKeyMonotonic(t *testing.T) {
	f := func(a, b uint32) bool {
		base := date(2012, time.March, 1)
		ta := base.Add(time.Duration(a%100000) * time.Hour)
		tb := base.Add(time.Duration(b%100000) * time.Hour)
		for _, g := range All {
			ka, kb := KeyFor(g, ta), KeyFor(g, tb)
			if ta.Before(tb) && ka.Index > kb.Index {
				return false
			}
			if tb.Before(ta) && kb.Index > ka.Index {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
