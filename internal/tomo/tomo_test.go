package tomo

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"churntomo/internal/anomaly"
	"churntomo/internal/iclab"
	"churntomo/internal/sat"
	"churntomo/internal/timeslice"
	"churntomo/internal/topology"
	"churntomo/internal/traceroute"
)

var t0 = time.Date(2016, 5, 10, 8, 0, 0, 0, time.UTC)

// rec builds a conclusive record.
func rec(vantage topology.ASN, url string, at time.Time, path []topology.ASN, kinds anomaly.Set) iclab.Record {
	return iclab.Record{
		Vantage: vantage, URL: url, At: at,
		ASPath: path, Anomalies: kinds, Fail: traceroute.OK,
	}
}

func dayOnly() BuildConfig {
	return BuildConfig{Granularities: []timeslice.Granularity{timeslice.Day}}
}

func TestBuildSplitsByURLSliceKind(t *testing.T) {
	records := []iclab.Record{
		rec(1, "a.com", t0, []topology.ASN{1, 2, 3}, anomaly.MakeSet(anomaly.DNS)),
		rec(1, "a.com", t0.Add(time.Hour), []topology.ASN{1, 2, 3}, 0),
		rec(1, "b.com", t0, []topology.ASN{1, 2, 4}, anomaly.MakeSet(anomaly.DNS)),
		rec(1, "a.com", t0.AddDate(0, 0, 1), []topology.ASN{1, 2, 3}, anomaly.MakeSet(anomaly.DNS)), // next day
	}
	iclab.NumberPaths(records)
	insts := Build(records, BuildConfig{
		Granularities: []timeslice.Granularity{timeslice.Day},
		Kinds:         []anomaly.Kind{anomaly.DNS},
	})
	// a.com day1, a.com day2, b.com day1.
	if len(insts) != 3 {
		t.Fatalf("got %d instances, want 3", len(insts))
	}
	byURL := map[string]int{}
	for _, in := range insts {
		byURL[in.Key.URL]++
		if in.Key.Kind != anomaly.DNS {
			t.Errorf("unexpected kind %v", in.Key.Kind)
		}
	}
	if byURL["a.com"] != 2 || byURL["b.com"] != 1 {
		t.Errorf("split wrong: %v", byURL)
	}
}

func TestBuildSkipsInconclusive(t *testing.T) {
	bad := rec(1, "a.com", t0, nil, 0)
	bad.Fail = traceroute.ErrDisagree
	insts := Build([]iclab.Record{bad}, dayOnly())
	if len(insts) != 0 {
		t.Fatalf("inconclusive record produced %d instances", len(insts))
	}
}

// TestUnnumberedRecordPanics pins that construction keeps no second path
// for records whose table was never numbered: a conclusive record
// without a path ID panics in every builder, and so does a path ID that
// names two paths, which records of two numbered tables show.
func TestUnnumberedRecordPanics(t *testing.T) {
	bare := []iclab.Record{rec(1, "a.com", t0, []topology.ASN{1, 2}, 0)}
	a := []iclab.Record{rec(1, "a.com", t0, []topology.ASN{1, 2}, 0)}
	b := []iclab.Record{rec(1, "a.com", t0.Add(time.Hour), []topology.ASN{1, 2}, 0)}
	iclab.NumberPaths(a)
	iclab.NumberPaths(b) // b's path is ID 1 too, in an array of its own
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"Build", func() { Build(bare, dayOnly()) }},
		{"BuildAndSolve", func() { BuildAndSolve(bare, dayOnly()) }},
		{"Incremental", func() { NewIncremental(dayOnly()).AddDay(0, bare) }},
		{"two tables", func() { Build(append(slices.Clip(a), b...), dayOnly()) }},
		{"two tables, Incremental", func() {
			inc := NewIncremental(dayOnly())
			inc.AddDay(0, a)
			inc.AddDay(1, b)
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.run()
		}()
	}
}

func TestBuildClauseSemantics(t *testing.T) {
	records := []iclab.Record{
		rec(1, "a.com", t0, []topology.ASN{10, 20, 30}, anomaly.MakeSet(anomaly.TTL)),
		rec(1, "a.com", t0.Add(time.Hour), []topology.ASN{10, 25, 30}, 0),
	}
	iclab.NumberPaths(records)
	insts := Build(records, BuildConfig{
		Granularities: []timeslice.Granularity{timeslice.Day},
		Kinds:         []anomaly.Kind{anomaly.TTL},
	})
	if len(insts) != 1 {
		t.Fatalf("got %d instances", len(insts))
	}
	in := insts[0]
	// The clean path {10,25,30} negates variables 1..3; the censored one
	// adds 20 as variable 4.
	if !reflect.DeepEqual(in.Vars, []topology.ASN{10, 25, 30, 20}) || in.negated != 3 ||
		len(in.PositivePaths) != 1 || !slices.Equal(in.censored, []int32{1, 4, 3}) {
		t.Fatalf("vars %v, %d negated, %d censored paths with variables %v",
			in.Vars, in.negated, len(in.PositivePaths), in.censored)
	}
	// Negative path {10,25,30} => 3 unit clauses; positive => 1 clause.
	if got := len(in.CNF.Clauses); got != 4 {
		t.Fatalf("clause count %d, want 4", got)
	}
	if in.Measurements != 2 {
		t.Errorf("measurements %d", in.Measurements)
	}
	// Solving: 10 and 30 are negated, so 20 or 25... 25 negated too; the
	// unique model must blame 20.
	o := Solve(in)
	if o.Class != sat.Unique {
		t.Fatalf("class %v, want Unique", o.Class)
	}
	if len(o.Censors) != 1 || o.Censors[0] != 20 {
		t.Fatalf("censors %v, want [AS20]", o.Censors)
	}
}

func TestBuildDedupesRepeatedPaths(t *testing.T) {
	var records []iclab.Record
	for i := 0; i < 10; i++ {
		records = append(records, rec(1, "a.com", t0.Add(time.Duration(i)*time.Minute),
			[]topology.ASN{10, 20}, 0))
	}
	for i := 0; i < 3; i++ {
		records = append(records, rec(2, "a.com", t0.Add(time.Duration(i)*time.Hour),
			[]topology.ASN{30, 40}, anomaly.MakeSet(anomaly.RST)))
	}
	iclab.NumberPaths(records)
	insts := Build(records, BuildConfig{
		Granularities: []timeslice.Granularity{timeslice.Day},
		Kinds:         []anomaly.Kind{anomaly.RST},
	})
	in := insts[0]
	if len(in.CNF.Clauses) != 3 { // ¬10, ¬20 and 30 ∨ 40 once each
		t.Fatalf("clauses %d, want 3 (deduplicated)", len(in.CNF.Clauses))
	}
	if in.Measurements != 13 {
		t.Errorf("measurements %d, want 13", in.Measurements)
	}
}

func TestSolveUnsatOnConflict(t *testing.T) {
	// Same path censored then clean in the same slice: policy change or
	// noise => UNSAT (§3.2).
	records := []iclab.Record{
		rec(1, "a.com", t0, []topology.ASN{10, 20, 30}, anomaly.MakeSet(anomaly.SEQ)),
		rec(1, "a.com", t0.Add(2*time.Hour), []topology.ASN{10, 20, 30}, 0),
	}
	iclab.NumberPaths(records)
	insts := Build(records, BuildConfig{
		Granularities: []timeslice.Granularity{timeslice.Day},
		Kinds:         []anomaly.Kind{anomaly.SEQ},
	})
	if o := Solve(insts[0]); o.Class != sat.Unsat {
		t.Fatalf("class %v, want Unsat", o.Class)
	}
}

func TestSolveMultipleAndPotential(t *testing.T) {
	// One censored path, one clean path sharing only AS 10: 20 and 30
	// remain potential censors.
	records := []iclab.Record{
		rec(1, "a.com", t0, []topology.ASN{10, 20, 30}, anomaly.MakeSet(anomaly.Block)),
		rec(2, "a.com", t0.Add(time.Hour), []topology.ASN{10, 40}, 0),
	}
	iclab.NumberPaths(records)
	insts := Build(records, BuildConfig{
		Granularities: []timeslice.Granularity{timeslice.Day},
		Kinds:         []anomaly.Kind{anomaly.Block},
	})
	o := Solve(insts[0])
	if o.Class != sat.Multiple {
		t.Fatalf("class %v, want Multiple", o.Class)
	}
	pot := map[topology.ASN]bool{}
	for _, as := range o.Potential {
		pot[as] = true
	}
	if pot[10] || pot[40] || !pot[20] || !pot[30] {
		t.Fatalf("potential %v", o.Potential)
	}
	if o.Eliminated != 2 || o.TotalVars != 4 {
		t.Errorf("eliminated=%d total=%d", o.Eliminated, o.TotalVars)
	}
	if got := o.ReductionFrac(); got != 0.5 {
		t.Errorf("reduction %.2f, want 0.5", got)
	}
}

func TestSolveAllMatchesSolve(t *testing.T) {
	var records []iclab.Record
	paths := [][]topology.ASN{{1, 2, 3}, {1, 4, 3}, {5, 2, 3}, {5, 6}}
	for i := 0; i < 40; i++ {
		k := anomaly.Set(0)
		if i%7 == 0 {
			k = anomaly.MakeSet(anomaly.DNS)
		}
		records = append(records, rec(topology.ASN(i%3+1), "u.com",
			t0.AddDate(0, 0, i%5), paths[i%len(paths)], k))
	}
	iclab.NumberPaths(records)
	insts := Build(records, BuildConfig{Kinds: []anomaly.Kind{anomaly.DNS}})
	got := SolveAll(insts)
	if len(got) != len(insts) {
		t.Fatalf("SolveAll returned %d outcomes for %d instances", len(got), len(insts))
	}
	for i, in := range insts {
		want := Solve(in)
		if got[i].Class != want.Class || got[i].Eliminated != want.Eliminated ||
			len(got[i].Censors) != len(want.Censors) {
			t.Fatalf("outcome %d differs between SolveAll and Solve", i)
		}
	}
}

func TestIdentifyCensors(t *testing.T) {
	records := []iclab.Record{
		// Day 1: censor 20 exactly identified for TTL on a.com.
		rec(1, "a.com", t0, []topology.ASN{10, 20, 30}, anomaly.MakeSet(anomaly.TTL)),
		rec(1, "a.com", t0.Add(time.Hour), []topology.ASN{10, 25, 30}, 0),
		rec(2, "a.com", t0.Add(time.Hour), []topology.ASN{11, 25, 30}, 0),
		// Day 1, b.com: censor 20 identified for SEQ too.
		rec(1, "b.com", t0, []topology.ASN{10, 20, 31}, anomaly.MakeSet(anomaly.SEQ)),
		rec(1, "b.com", t0.Add(time.Hour), []topology.ASN{10, 26, 31}, 0),
		rec(3, "b.com", t0.Add(time.Hour), []topology.ASN{12, 26, 31}, 0),
	}
	iclab.NumberPaths(records)
	insts := Build(records, dayOnly())
	outcomes := SolveAll(insts)
	censors := IdentifyCensors(outcomes, 1)
	c, ok := censors[20]
	if !ok {
		t.Fatalf("censor AS20 not identified; got %v", censors)
	}
	if !c.Kinds.Has(anomaly.TTL) || !c.Kinds.Has(anomaly.SEQ) {
		t.Errorf("kinds %v, want ttl+seq", c.Kinds)
	}
	if len(c.URLs) != 2 {
		t.Errorf("URLs %v", c.URLs)
	}
	for asn := range censors {
		if asn != 20 {
			t.Errorf("spurious censor %v", asn)
		}
	}
}

func TestBuildDeterministicOrder(t *testing.T) {
	records := []iclab.Record{
		rec(1, "b.com", t0, []topology.ASN{1, 2}, anomaly.MakeSet(anomaly.DNS)),
		rec(1, "a.com", t0, []topology.ASN{1, 2}, anomaly.MakeSet(anomaly.DNS)),
		rec(1, "a.com", t0.AddDate(0, 0, 1), []topology.ASN{1, 2}, anomaly.MakeSet(anomaly.DNS)),
	}
	iclab.NumberPaths(records)
	a := Build(records, dayOnly())
	b := Build(records, dayOnly())
	if len(a) != len(b) {
		t.Fatal("nondeterministic instance count")
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatalf("instance order differs at %d: %v vs %v", i, a[i].Key, b[i].Key)
		}
	}
	// Sorted: a.com before b.com.
	if a[0].Key.URL != "a.com" {
		t.Errorf("first instance %v, want a.com", a[0].Key)
	}
}

// syntheticRecords builds a varied record stream: several vantages, URLs,
// days and paths, with anomalies sprinkled deterministically.
func syntheticRecords(n int) []iclab.Record {
	paths := [][]topology.ASN{
		{1, 2, 3}, {1, 4, 3}, {5, 2, 3}, {5, 6}, {1, 2, 7, 3}, {8, 4, 3},
	}
	urls := []string{"a.com", "b.com", "c.com", "d.com"}
	var records []iclab.Record
	for i := 0; i < n; i++ {
		var k anomaly.Set
		switch {
		case i%11 == 0:
			k = anomaly.MakeSet(anomaly.DNS)
		case i%13 == 0:
			k = anomaly.MakeSet(anomaly.RST, anomaly.TTL)
		}
		r := rec(topology.ASN(i%5+1), urls[i%len(urls)],
			t0.AddDate(0, 0, i%23).Add(time.Duration(i%19)*time.Hour),
			paths[i%len(paths)], k)
		if i%29 == 0 {
			r.Fail = traceroute.ErrDisagree
			r.ASPath = nil
		}
		records = append(records, r)
	}
	iclab.NumberPaths(records)
	return records
}

// TestBuildDependsOnlyOnOwnURL is a metamorphic check: every CNF is keyed
// by URL, so building a dataset must give exactly its URL halves' builds
// concatenated in instance order. The fold ranks paths across all URLs
// at once; this pins that a CNF's clause order and variables still
// depend only on its own URL's records.
func TestBuildDependsOnlyOnOwnURL(t *testing.T) {
	records := syntheticRecords(6000)
	var ab, cd []iclab.Record
	for _, r := range records {
		switch r.URL {
		case "a.com", "b.com":
			ab = append(ab, r)
		case "c.com", "d.com":
			cd = append(cd, r)
		default:
			t.Fatalf("unexpected URL %q", r.URL)
		}
	}
	whole := Build(records, BuildConfig{})
	if len(whole) != 365 {
		t.Fatalf("%d instances, want 365", len(whole))
	}
	halves := append(Build(ab, BuildConfig{}), Build(cd, BuildConfig{})...)
	sameInstances(t, "URL halves", whole, halves)
}

// sameInstances checks that two instance lists agree, in order, on every
// field but CNF, which only Build sets (sameClauses compares it).
func sameInstances(t *testing.T, label string, a, b []*Instance) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d instances vs %d", label, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Key != y.Key || x.Measurements != y.Measurements || x.negated != y.negated ||
			!reflect.DeepEqual(x.Vars, y.Vars) ||
			!reflect.DeepEqual(x.PositivePaths, y.PositivePaths) ||
			!slices.Equal(x.censored, y.censored) {
			t.Fatalf("%s: instance %d (%+v) differs", label, i, x.Key)
		}
	}
}

func sameOutcomes(t *testing.T, label string, a, b []Outcome) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d outcomes vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Class != b[i].Class || a[i].Eliminated != b[i].Eliminated ||
			a[i].TotalVars != b[i].TotalVars ||
			!reflect.DeepEqual(a[i].Censors, b[i].Censors) ||
			!reflect.DeepEqual(a[i].Potential, b[i].Potential) {
			t.Fatalf("%s: outcome %d differs", label, i)
		}
	}
}

// TestBuildParallelMatchesSerial locks down the sharded grouping: any
// worker count must reproduce the serial result exactly.
func TestBuildParallelMatchesSerial(t *testing.T) {
	records := syntheticRecords(6000)
	serialCfg := BuildConfig{Workers: 1}
	serial := Build(records, serialCfg)
	if len(serial) == 0 {
		t.Fatal("no instances built; test vacuous")
	}
	for _, workers := range []int{2, 3, 8, 64} {
		par := Build(records, BuildConfig{Workers: workers})
		sameInstances(t, fmt.Sprintf("workers=%d", workers), serial, par)
	}
}

// TestBuildAndSolveMatchesBuildThenSolveAll proves the streaming path is a
// pure re-pipelining: same instances, same outcomes, same order.
func TestBuildAndSolveMatchesBuildThenSolveAll(t *testing.T) {
	records := syntheticRecords(6000)
	insts := Build(records, BuildConfig{Workers: 1})
	outs := SolveAll(insts)
	for _, workers := range []int{1, 4} {
		gotInsts, gotOuts := BuildAndSolve(records, BuildConfig{Workers: workers})
		sameInstances(t, fmt.Sprintf("streaming workers=%d", workers), insts, gotInsts)
		sameOutcomes(t, fmt.Sprintf("streaming workers=%d", workers), outs, gotOuts)
	}
}

// TestConcurrentBuildAndSolve runs several Build+SolveAll pipelines over
// the same shared record slice at once — the -race canary for the engine's
// claim that records, groups and instances are never mutated concurrently.
func TestConcurrentBuildAndSolve(t *testing.T) {
	records := syntheticRecords(4000)
	want, wantOuts := BuildAndSolve(records, BuildConfig{Workers: 1})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			insts := Build(records, BuildConfig{Workers: 4})
			outs := SolveAll(insts)
			if len(insts) != len(want) || len(outs) != len(wantOuts) {
				errs <- fmt.Sprintf("goroutine %d: size mismatch", g)
				return
			}
			for i := range outs {
				if outs[i].Class != wantOuts[i].Class {
					errs <- fmt.Sprintf("goroutine %d: outcome %d class differs", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestBuildAndSolveStreamsOverlap pins the streaming claim behind
// BuildAndSolve: each worker solves the CNF it just materialized before
// materializing the next key, so solving overlaps construction instead of
// waiting behind a build-everything barrier. At Workers=1 the event log
// must strictly interleave — any batching regression (materialize all,
// then solve all) shows up as two runs. This also documents why the
// streaming benchmark reports byte-identical allocations to the serial
// one: both do exactly the same work, only the schedule differs.
func TestBuildAndSolveStreamsOverlap(t *testing.T) {
	records := syntheticRecords(2000)
	var events []string
	buildSolveObserver = func(event string, key int) {
		events = append(events, fmt.Sprintf("%s:%d", event, key))
	}
	defer func() { buildSolveObserver = nil }()
	insts, _ := BuildAndSolve(records, BuildConfig{Workers: 1})
	if len(insts) < 2 {
		t.Fatalf("need >= 2 instances to observe interleaving, got %d", len(insts))
	}
	if len(events) != 2*len(insts) {
		t.Fatalf("got %d events for %d instances", len(events), len(insts))
	}
	for i := 0; i < len(insts); i++ {
		wantMat := fmt.Sprintf("materialize:%d", i)
		wantSolve := fmt.Sprintf("solve:%d", i)
		if events[2*i] != wantMat || events[2*i+1] != wantSolve {
			t.Fatalf("events not interleaved at key %d: %v %v (want %v %v)",
				i, events[2*i], events[2*i+1], wantMat, wantSolve)
		}
	}
}
