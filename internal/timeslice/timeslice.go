package timeslice

import (
	"fmt"
	"time"
)

// Granularity selects how coarsely timestamps are grouped.
type Granularity uint8

// The four granularities from the paper (§3.1, "Time- and URL-based
// splitting").
const (
	Day Granularity = iota
	Week
	Month
	Year
)

// All enumerates every granularity, finest first.
var All = []Granularity{Day, Week, Month, Year}

// String returns the lower-case name used in figures and CLI flags.
func (g Granularity) String() string {
	switch g {
	case Day:
		return "day"
	case Week:
		return "week"
	case Month:
		return "month"
	case Year:
		return "year"
	default:
		return fmt.Sprintf("granularity(%d)", uint8(g))
	}
}

// Parse converts a name produced by String back into a Granularity.
func Parse(s string) (Granularity, error) {
	switch s {
	case "day":
		return Day, nil
	case "week":
		return Week, nil
	case "month":
		return Month, nil
	case "year":
		return Year, nil
	}
	return 0, fmt.Errorf("timeslice: unknown granularity %q", s)
}

// Key identifies one time slice at one granularity. Keys are comparable and
// usable as map keys; two timestamps share a Key exactly when they fall in
// the same slice.
type Key struct {
	Gran Granularity
	// Index is a granularity-specific ordinal: days and weeks count from
	// the Unix epoch, months count as year*12+month, years are the year.
	Index int32
}

// String renders the key human-readably, e.g. "day:2016-05-03".
func (k Key) String() string {
	return fmt.Sprintf("%s:%s", k.Gran, k.Start().Format(dateFormat(k.Gran)))
}

func dateFormat(g Granularity) string {
	switch g {
	case Month:
		return "2006-01"
	case Year:
		return "2006"
	default:
		return "2006-01-02"
	}
}

const secondsPerDay = 24 * 60 * 60

// epochDay returns the number of whole days since the Unix epoch, flooring
// for instants before the epoch.
func epochDay(t time.Time) int32 {
	sec := t.Unix()
	if sec >= 0 {
		return int32(sec / secondsPerDay)
	}
	return int32((sec - secondsPerDay + 1) / secondsPerDay)
}

// weekIndex returns the ISO-style Monday-based week ordinal since the epoch.
// 1970-01-01 was a Thursday, so day 0 belongs to the week starting on
// 1969-12-29 (day -3).
func weekIndex(day int32) int32 {
	shifted := day + 3 // align so that Mondays start a new index
	if shifted >= 0 {
		return shifted / 7
	}
	return (shifted - 6) / 7
}

// KeyFor returns the slice key containing t at granularity g.
func KeyFor(g Granularity, t time.Time) Key {
	t = t.UTC()
	switch g {
	case Day:
		return Key{Day, epochDay(t)}
	case Week:
		return Key{Week, weekIndex(epochDay(t))}
	case Month:
		return Key{Month, int32(t.Year())*12 + int32(t.Month()) - 1}
	case Year:
		return Key{Year, int32(t.Year())}
	default:
		panic(fmt.Sprintf("timeslice: invalid granularity %d", g))
	}
}

// Start returns the inclusive start of the slice.
func (k Key) Start() time.Time {
	switch k.Gran {
	case Day:
		return time.Unix(int64(k.Index)*secondsPerDay, 0).UTC()
	case Week:
		day := int64(k.Index)*7 - 3
		return time.Unix(day*secondsPerDay, 0).UTC()
	case Month:
		year := int(k.Index) / 12
		month := time.Month(int(k.Index)%12 + 1)
		return time.Date(year, month, 1, 0, 0, 0, 0, time.UTC)
	case Year:
		return time.Date(int(k.Index), time.January, 1, 0, 0, 0, 0, time.UTC)
	default:
		panic(fmt.Sprintf("timeslice: invalid granularity %d", k.Gran))
	}
}

// End returns the exclusive end of the slice.
func (k Key) End() time.Time {
	switch k.Gran {
	case Day:
		return k.Start().Add(24 * time.Hour)
	case Week:
		return k.Start().Add(7 * 24 * time.Hour)
	case Month:
		return Key{Month, k.Index + 1}.Start()
	case Year:
		return Key{Year, k.Index + 1}.Start()
	default:
		panic(fmt.Sprintf("timeslice: invalid granularity %d", k.Gran))
	}
}

// Contains reports whether t falls inside the slice.
func (k Key) Contains(t time.Time) bool {
	t = t.UTC()
	return !t.Before(k.Start()) && t.Before(k.End())
}
