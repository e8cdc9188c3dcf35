package tomo

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"churntomo/internal/anomaly"
	"churntomo/internal/iclab"
	"churntomo/internal/sat"
	"churntomo/internal/timeslice"
	"churntomo/internal/topology"
	"churntomo/internal/traceroute"
)

// referenceBuild is the string-keyed construction Build used before cells,
// kept as the oracle the cell pipeline is held to. Every conclusive record
// is filed under each of its (URL, slice, kind) keys, with its path keyed
// by big-endian bytes; a key with a censored path becomes a CNF, its
// clause order is the sorted path keys, and the CNFs are sorted by keyLess.
// It writes each CNF's clauses as it goes, and sets the fields Solve reads
// beside them.
func referenceBuild(records []iclab.Record, cfg BuildConfig) []*Instance {
	cfg.fillDefaults()
	type group struct {
		pos, neg map[string][]topology.ASN
		n        int
	}
	groups := map[Key]*group{}
	for _, r := range records {
		if r.Fail != traceroute.OK {
			continue
		}
		var b []byte
		for _, a := range r.ASPath {
			b = append(b, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
		}
		pk := string(b)
		for _, g := range cfg.Granularities {
			slice := timeslice.KeyFor(g, r.At)
			for _, k := range cfg.Kinds {
				key := Key{URL: r.URL, Slice: slice, Kind: k}
				grp := groups[key]
				if grp == nil {
					grp = &group{pos: map[string][]topology.ASN{}, neg: map[string][]topology.ASN{}}
					groups[key] = grp
				}
				grp.n++
				if r.Anomalies.Has(k) {
					grp.pos[pk] = r.ASPath
				} else {
					grp.neg[pk] = r.ASPath
				}
			}
		}
	}
	var keys []Key
	for key, grp := range groups {
		if len(grp.pos) > 0 {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })

	sorted := func(m map[string][]topology.ASN) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	out := make([]*Instance, len(keys))
	for i, key := range keys {
		grp := groups[key]
		in := &Instance{Key: key, CNF: &sat.CNF{}, Measurements: grp.n}
		varOf := map[topology.ASN]int{}
		negated := map[topology.ASN]bool{}
		intern := func(as topology.ASN) sat.Lit {
			v, ok := varOf[as]
			if !ok {
				v = len(in.Vars) + 1
				in.Vars = append(in.Vars, as)
				varOf[as] = v
			}
			return sat.Lit(int32(v))
		}
		for _, k := range sorted(grp.neg) {
			for _, as := range grp.neg[k] {
				if !negated[as] {
					negated[as] = true
					in.CNF.AddClause(intern(as).Neg())
				}
			}
		}
		in.negated = len(in.Vars)
		in.PositivePaths = make([][]topology.ASN, 0, len(grp.pos))
		for _, k := range sorted(grp.pos) {
			path := grp.pos[k]
			in.PositivePaths = append(in.PositivePaths, path)
			var lits []sat.Lit
			for _, as := range path {
				l := intern(as)
				lits = append(lits, l)
				in.censored = append(in.censored, int32(l))
			}
			in.CNF.AddClause(lits...)
		}
		out[i] = in
	}
	return out
}

// keyLess is the instance order: URL, granularity, slice index, anomaly
// kind.
func keyLess(a, b Key) bool {
	if a.URL != b.URL {
		return a.URL < b.URL
	}
	if a.Slice.Gran != b.Slice.Gran {
		return a.Slice.Gran < b.Slice.Gran
	}
	if a.Slice.Index != b.Slice.Index {
		return a.Slice.Index < b.Slice.Index
	}
	return a.Kind < b.Kind
}

// TestBuildMatchesReferenceOnSyntheticRecords holds the cell pipeline to
// the string-keyed reference on the varied synthetic stream, with SEQ and
// block-page anomalies added so every kind has CNFs, for every config the
// fuzz target draws from.
func TestBuildMatchesReferenceOnSyntheticRecords(t *testing.T) {
	records := syntheticRecords(3000)
	for i := range records {
		if i%17 == 0 {
			records[i].Anomalies = records[i].Anomalies.Add(anomaly.SEQ).Add(anomaly.Block)
		}
	}
	for c := 0; c < 30; c++ {
		cfg := fuzzConfig(byte(c))
		want := referenceBuild(records, cfg)
		if len(want) == 0 {
			t.Fatalf("config %d: reference built nothing; test vacuous", c)
		}
		for _, workers := range []int{1, 3} {
			cfg.Workers = workers
			label := fmt.Sprintf("config %d workers %d", c, workers)
			built := Build(records, cfg)
			sameInstances(t, label+" Build", want, built)
			sameClauses(t, label+" Build", want, built)
			insts, outs := BuildAndSolve(records, cfg)
			sameInstances(t, label+" BuildAndSolve", want, insts)
			sameOutcomes(t, label+" BuildAndSolve", SolveAll(want), outs)
			for i, in := range insts {
				if in.CNF != nil {
					t.Fatalf("%s: BuildAndSolve instance %d (%+v) carries a CNF", label, i, in.Key)
				}
			}
		}
	}
}

// sameClauses holds each of got's CNFs to want's, clause for clause. The
// lists must already agree in length (sameInstances).
func sameClauses(t *testing.T, label string, want, got []*Instance) {
	t.Helper()
	for i := range want {
		x, y := want[i].CNF, got[i].CNF
		if y == nil || x.NumVars != y.NumVars || !reflect.DeepEqual(x.Clauses, y.Clauses) {
			t.Fatalf("%s: CNF %d (%+v) differs:\n got %+v\nwant %+v", label, i, want[i].Key, y, x)
		}
	}
}

// TestRepeatedGranularityOrKindIsIgnored pins that a config naming a
// granularity or kind twice builds exactly what the deduplicated config
// builds: each record is folded once, not once per repeat.
func TestRepeatedGranularityOrKindIsIgnored(t *testing.T) {
	records := syntheticRecords(600)
	day, dns := []timeslice.Granularity{timeslice.Day}, []anomaly.Kind{anomaly.DNS}
	for _, tc := range []struct {
		name         string
		repeat, once BuildConfig
	}{
		{"granularity", BuildConfig{Granularities: []timeslice.Granularity{timeslice.Day, timeslice.Day}, Kinds: dns},
			BuildConfig{Granularities: day, Kinds: dns}},
		{"kind", BuildConfig{Granularities: day, Kinds: []anomaly.Kind{anomaly.DNS, anomaly.DNS}},
			BuildConfig{Granularities: day, Kinds: dns}},
		{"both, interleaved", BuildConfig{
			Granularities: []timeslice.Granularity{timeslice.Week, timeslice.Day, timeslice.Week},
			Kinds:         []anomaly.Kind{anomaly.RST, anomaly.DNS, anomaly.RST, anomaly.DNS},
		}, BuildConfig{
			Granularities: []timeslice.Granularity{timeslice.Week, timeslice.Day},
			Kinds:         []anomaly.Kind{anomaly.RST, anomaly.DNS},
		}},
	} {
		want := Build(records, tc.once)
		if len(want) == 0 {
			t.Fatalf("%s: nothing built; test vacuous", tc.name)
		}
		sameInstances(t, tc.name+" Build", want, Build(records, tc.repeat))
		insts, _ := BuildAndSolve(records, tc.repeat)
		sameInstances(t, tc.name+" BuildAndSolve", want, insts)
		inc := NewIncremental(tc.repeat)
		inc.AddDay(0, records)
		insts, _, _ = solveInc(t, inc)
		sameInstances(t, tc.name+" Incremental", want, insts)
	}
	if got := Build(records, BuildConfig{Granularities: []timeslice.Granularity{timeslice.Day, timeslice.Day}, Kinds: dns}); got[0].Measurements != 6 {
		t.Errorf("first CNF of a repeated granularity counts %d measurements, want 6", got[0].Measurements)
	}
}

// fuzzASNs is the AS alphabet of FuzzBuildMatchesReference's paths. 1,
// 256, 65536 and 1<<24 differ only in which byte is set, so a byte-order
// slip in path ranking reorders clauses.
var fuzzASNs = [8]topology.ASN{1, 2, 3, 256, 65536, 1 << 24, 1<<24 | 1, 1<<32 - 1}

// fuzzConfig decodes FuzzBuildMatchesReference's config byte: c%5 picks all
// four granularities or one alone, c/5%6 all five kinds or one alone.
func fuzzConfig(c byte) BuildConfig {
	var cfg BuildConfig
	if g := c % 5; g > 0 {
		cfg.Granularities = []timeslice.Granularity{timeslice.All[g-1]}
	}
	if k := c / 5 % 6; k > 0 {
		cfg.Kinds = []anomaly.Kind{anomaly.Kinds[k-1]}
	}
	return cfg
}

// fuzzRecords decodes FuzzBuildMatchesReference's records, five bytes each:
//
//   - b0: bits 0-1 pick the URL (a.com to d.com), bits 2-6 the day (0 to
//     31 after 2016-05-10, crossing a week and a month boundary), and bit
//     7 makes the record inconclusive;
//   - b1: the anomaly set, raw (bits above the five kinds included);
//   - b2: b2%6 is the path length (0 is an empty path), b2/6%24 the hour;
//   - b3, b4: a little-endian 16-bit word whose 3-bit groups pick each
//     path AS from fuzzASNs.
func fuzzRecords(data []byte) []iclab.Record {
	const maxRecords = 64
	var records []iclab.Record
	for i := 0; i+5 <= len(data) && len(records) < maxRecords; i += 5 {
		b := data[i : i+5]
		at := t0.AddDate(0, 0, int(b[0]>>2&31)).Add(time.Duration(b[2]/6%24) * time.Hour)
		picks := uint16(b[3]) | uint16(b[4])<<8
		var path []topology.ASN
		for j := 0; j < int(b[2]%6); j++ {
			path = append(path, fuzzASNs[picks>>(3*j)&7])
		}
		r := rec(topology.ASN(b[0]&3+1), string(rune('a'+b[0]&3))+".com", at, path, anomaly.Set(b[1]))
		if b[0]&0x80 != 0 {
			r.Fail = traceroute.ErrDisagree
		}
		records = append(records, r)
	}
	iclab.NumberPaths(records)
	return records
}

// FuzzBuildMatchesReference holds Build and BuildAndSolve, at one and three
// workers, to referenceBuild on fuzzed records: the same instances, field
// for field and in order, Build's CNFs clause for clause, and
// BuildAndSolve's outcomes equal to solving the reference instances. The first byte picks the config (fuzzConfig),
// the rest are records (fuzzRecords). The checked-in corpus under
// testdata/fuzz/FuzzBuildMatchesReference covers prefix paths ([1 2] and
// [1 2 3]), ASes that differ only in a high byte, an empty conclusive path
// beside inconclusive records, a path seen both censored and clean, and
// single-granularity and single-kind configs.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg, records := fuzzConfig(data[0]), fuzzRecords(data[1:])
		want := referenceBuild(records, cfg)
		for _, workers := range []int{1, 3} {
			cfg.Workers = workers
			label := fmt.Sprintf("workers %d", workers)
			built := Build(records, cfg)
			sameInstances(t, label+" Build", want, built)
			sameClauses(t, label+" Build", want, built)
			insts, outs := BuildAndSolve(records, cfg)
			sameInstances(t, label+" BuildAndSolve", want, insts)
			sameOutcomes(t, label+" BuildAndSolve", SolveAll(want), outs)
		}
	})
}
