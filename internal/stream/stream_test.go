package stream

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"churntomo/internal/anomaly"
	"churntomo/internal/churn"
	"churntomo/internal/iclab"
	"churntomo/internal/tomo"
	"churntomo/internal/topology"
	"churntomo/internal/traceroute"
)

// synthDays is the table synthDay serves its days from, numbered as one
// (iclab.NumberPaths), so any days may be localized together.
var synthDays = sync.OnceValue(func() [][]iclab.Record {
	days := make([][]iclab.Record, 16)
	for d := range days {
		days[d] = fabricateDay(d)
	}
	iclab.NumberPaths(days...)
	return days
})

// synthDay returns day's records, 0 <= day < 16, of one numbered table;
// they must not be written.
func synthDay(day int) []iclab.Record {
	return slices.Clip(synthDays()[day])
}

// fabricateDay fabricates one day of records with day-dependent path churn
// and a persistent censor at AS 50.
func fabricateDay(day int) []iclab.Record {
	at := time.Date(2016, 5, 25, 9, 0, 0, 0, time.UTC).AddDate(0, 0, day)
	var recs []iclab.Record
	for u, url := range []string{"a.com", "b.com"} {
		for v := 0; v < 3; v++ {
			mid := topology.ASN(100 + (day+v)%4)
			dirty := []topology.ASN{topology.ASN(10 + v), mid, 50, topology.ASN(200 + u)}
			clean := []topology.ASN{topology.ASN(10 + v), mid, 60, topology.ASN(200 + u)}
			var kinds anomaly.Set
			if (day+u+v)%3 == 0 {
				kinds = anomaly.MakeSet(anomaly.DNS)
			}
			recs = append(recs,
				iclab.Record{Vantage: topology.ASN(10 + v), URL: url, At: at.Add(time.Duration(v) * time.Hour),
					ASPath: dirty, Anomalies: kinds, Fail: traceroute.OK},
				iclab.Record{Vantage: topology.ASN(10 + v), URL: url, At: at.Add(time.Duration(v+8) * time.Hour),
					ASPath: clean, Fail: traceroute.OK},
			)
		}
	}
	return recs
}

// push and flush drive the engine on a background context, where
// PushCtx and FlushCtx never fail.
func push(t *testing.T, eng *Engine, recs []iclab.Record) *Window {
	t.Helper()
	w, err := eng.PushCtx(context.Background(), recs)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func flush(t *testing.T, eng *Engine) *Window {
	t.Helper()
	w, err := eng.FlushCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestEngineSlidingMatchesRebuild pins the streaming contract: every emitted
// window's outcomes equal a from-scratch batch solve over exactly the
// window's records.
func TestEngineSlidingMatchesRebuild(t *testing.T) {
	const days, window = 9, 3
	eng := NewEngine(Config{Window: window, Build: tomo.BuildConfig{Workers: 1}})
	var all [][]iclab.Record
	emitted := 0
	for day := 0; day < days; day++ {
		recs := synthDay(day)
		all = append(all, recs)
		w := push(t, eng, recs)
		if day < window-1 {
			if w != nil {
				t.Fatalf("day %d emitted window before the first filled", day)
			}
			continue
		}
		if w == nil {
			t.Fatalf("day %d: no window emitted at stride boundary", day)
		}
		emitted++
		if w.StartDay != day-window+1 || w.EndDay != day {
			t.Fatalf("window %d bounds [%d..%d], want [%d..%d]", w.Index, w.StartDay, w.EndDay, day-window+1, day)
		}
		var flat []iclab.Record
		for _, d := range all[w.StartDay : w.EndDay+1] {
			flat = append(flat, d...)
		}
		_, want := tomo.BuildAndSolve(flat, tomo.BuildConfig{Workers: 1})
		if len(w.Outcomes) != len(want) {
			t.Fatalf("window %d: %d outcomes, rebuild has %d", w.Index, len(w.Outcomes), len(want))
		}
		for i := range want {
			g, b := w.Outcomes[i], want[i]
			if g.Inst.Key != b.Inst.Key || g.Class != b.Class ||
				!reflect.DeepEqual(g.Censors, b.Censors) ||
				!reflect.DeepEqual(g.Potential, b.Potential) ||
				g.Eliminated != b.Eliminated || g.TotalVars != b.TotalVars {
				t.Fatalf("window %d outcome %d (%v) differs from rebuild:\n got %+v\nwant %+v",
					w.Index, i, b.Inst.Key, g, b)
			}
		}
		if w.Index > 0 && w.Reused == 0 {
			t.Errorf("window %d reused nothing; incrementality inert", w.Index)
		}
	}
	if emitted != days-window+1 {
		t.Fatalf("emitted %d windows, want %d", emitted, days-window+1)
	}
}

// TestEngineCumulativeFinalMatchesBatch replays cumulatively and checks the
// final window's identified-censor map against the batch pipeline over all
// records.
func TestEngineCumulativeFinalMatchesBatch(t *testing.T) {
	const days = 8
	eng := NewEngine(Config{Window: 0, MinCNFs: 2, Build: tomo.BuildConfig{Workers: 1}})
	var shards [][]iclab.Record
	var last *Window
	for day := 0; day < days; day++ {
		recs := synthDay(day)
		shards = append(shards, recs)
		if w := push(t, eng, recs); w != nil {
			last = w
		}
	}
	if last == nil || last.StartDay != 0 || last.EndDay != days-1 {
		t.Fatalf("final window %+v", last)
	}

	merged := iclab.MergeShards(shards)
	_, wantOuts := tomo.BuildAndSolve(merged, tomo.BuildConfig{Workers: 1})
	wantID := tomo.IdentifyCensors(wantOuts, 2)
	if !reflect.DeepEqual(last.Identified, wantID) {
		t.Fatalf("final cumulative window identified %v, batch identified %v", last.Identified, wantID)
	}
}

// deepCopy clones day batches down to every slice a record points to.
func deepCopy(days [][]iclab.Record) [][]iclab.Record {
	out := make([][]iclab.Record, len(days))
	for d, recs := range days {
		out[d] = make([]iclab.Record, len(recs))
		for i, r := range recs {
			r.ASPath = slices.Clone(r.ASPath)
			r.TruePath = slices.Clone(r.TruePath)
			r.TrueActs = slices.Clone(r.TrueActs)
			out[d][i] = r
		}
	}
	return out
}

// TestConsumersNeverWriteRecords pins that records are read-only once
// measured. A replay shares one decoded record table between concurrent
// runs, and a merged sequence shares every slice with its day batches, so
// a consumer that wrote to a record would leak the write into all of them.
// The streaming engine (adding, retracting and flushing days), the batch
// CNF build and solve, and the churn summary must each leave every record,
// and every slice it points to, as they found it.
func TestConsumersNeverWriteRecords(t *testing.T) {
	const days = 6
	var shards [][]iclab.Record
	for day := 0; day < days; day++ {
		shards = append(shards, synthDay(day))
	}
	want := deepCopy(shards)

	// Window 3, stride 2 emits [0..2] and [2..4], retracting day 0 and
	// 1 on the way, and leaves day 5 for the flush.
	ctx := context.Background()
	eng := NewEngine(Config{Window: 3, Stride: 2, Build: tomo.BuildConfig{Workers: 2}})
	for _, recs := range shards {
		if _, err := eng.PushCtx(ctx, recs); err != nil {
			t.Fatal(err)
		}
	}
	if w, err := eng.FlushCtx(ctx); err != nil || w == nil {
		t.Fatalf("flush returned window %v, error %v; want the tail window", w, err)
	}
	merged := iclab.MergeShards(shards)
	tomo.BuildAndSolve(merged, tomo.BuildConfig{Workers: 2})
	churn.Measure(merged, nil)

	if !reflect.DeepEqual(shards, want) {
		t.Fatal("a consumer wrote to the records it was given")
	}
}

// TestEngineStrideBounds pins window indexing with stride > 1.
func TestEngineStrideBounds(t *testing.T) {
	eng := NewEngine(Config{Window: 4, Stride: 2, Build: tomo.BuildConfig{Workers: 1}})
	var got [][2]int
	for day := 0; day < 10; day++ {
		if w := push(t, eng, synthDay(day)); w != nil {
			got = append(got, [2]int{w.StartDay, w.EndDay})
		}
	}
	want := [][2]int{{0, 3}, {2, 5}, {4, 7}, {6, 9}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stride-2 windows %v, want %v", got, want)
	}
}

// TestEngineFlushCoversTail pins FlushCtx: days the stride grid leaves
// uncovered are localized in one final partial window, and a flushed
// cumulative replay's last window equals the batch solve over all days.
func TestEngineFlushCoversTail(t *testing.T) {
	// Sliding: window 4, stride 3 over 9 days emits [0..3] and [3..6];
	// days 7-8 are the tail. FlushCtx must cover them with a window ending
	// at day 8, at most 4 days wide.
	eng := NewEngine(Config{Window: 4, Stride: 3, Build: tomo.BuildConfig{Workers: 1}})
	var all [][]iclab.Record
	var emitted [][2]int
	for day := 0; day < 9; day++ {
		recs := synthDay(day)
		all = append(all, recs)
		if w := push(t, eng, recs); w != nil {
			emitted = append(emitted, [2]int{w.StartDay, w.EndDay})
		}
	}
	fw := flush(t, eng)
	if fw == nil || fw.StartDay != 5 || fw.EndDay != 8 {
		t.Fatalf("flush window %+v, want [5..8]", fw)
	}
	if flush(t, eng) != nil {
		t.Fatal("second flush emitted a window")
	}
	var flat []iclab.Record
	for _, d := range all[5:9] {
		flat = append(flat, d...)
	}
	_, want := tomo.BuildAndSolve(flat, tomo.BuildConfig{Workers: 1})
	if len(fw.Outcomes) != len(want) {
		t.Fatalf("flush window has %d outcomes, rebuild has %d", len(fw.Outcomes), len(want))
	}

	// Cumulative with stride 2 over 7 days: emitted windows end at days
	// 1, 3, 5; the flushed final window must cover [0..6] — the batch
	// result — not stop at day 5.
	cum := NewEngine(Config{Window: 0, Stride: 2, MinCNFs: 2, Build: tomo.BuildConfig{Workers: 1}})
	flat = nil
	for day := 0; day < 7; day++ {
		recs := synthDay(day)
		flat = append(flat, recs...)
		push(t, cum, recs)
	}
	fw = flush(t, cum)
	if fw == nil || fw.StartDay != 0 || fw.EndDay != 6 {
		t.Fatalf("cumulative flush window %+v, want [0..6]", fw)
	}
	_, wantOuts := tomo.BuildAndSolve(flat, tomo.BuildConfig{Workers: 1})
	wantID := tomo.IdentifyCensors(wantOuts, 2)
	if !reflect.DeepEqual(fw.Identified, wantID) {
		t.Fatalf("flushed cumulative window identified %v, batch %v", fw.Identified, wantID)
	}

	// Aligned replays flush nothing.
	aligned := NewEngine(Config{Window: 3, Build: tomo.BuildConfig{Workers: 1}})
	for day := 0; day < 5; day++ {
		push(t, aligned, synthDay(day))
	}
	if w := flush(t, aligned); w != nil {
		t.Fatalf("aligned replay flushed %+v", w)
	}
	if flush(t, NewEngine(Config{Window: 3, Build: tomo.BuildConfig{Workers: 1}})) != nil {
		t.Fatal("empty engine flushed a window")
	}
}

// TestConverge pins the convergence stats on a hand-built timeline.
func TestConverge(t *testing.T) {
	id := func(asns ...topology.ASN) map[topology.ASN]*tomo.IdentifiedCensor {
		m := map[topology.ASN]*tomo.IdentifiedCensor{}
		for _, a := range asns {
			m[a] = &tomo.IdentifiedCensor{ASN: a}
		}
		return m
	}
	windows := []*Window{
		{Index: 0, Identified: id(7)},
		{Index: 1, Identified: id()},
		{Index: 2, Identified: id(7, 9)},
		{Index: 3, Identified: id(7, 9)},
	}
	got := Converge(windows)
	want := []Convergence{
		{ASN: 7, FirstWindow: 0, LastWindow: 3, Windows: 3, StableFrom: 2},
		{ASN: 9, FirstWindow: 2, LastWindow: 3, Windows: 2, StableFrom: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("convergence %+v, want %+v", got, want)
	}
}
