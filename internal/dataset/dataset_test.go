package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"churntomo/internal/anomaly"
	"churntomo/internal/iclab"
	"churntomo/internal/topology"
	"churntomo/internal/traceroute"
	"churntomo/internal/webcat"
)

// update regenerates testdata/golden_v1.jsonl.gz:
//
//	go test ./internal/dataset -run TestGoldenV1 -update
var update = flag.Bool("update", false, "rewrite the golden dataset file")

var goldenPath = filepath.Join("testdata", "golden_v1.jsonl.gz")

// goldenFile is the fixed dataset the golden file pins: every format
// feature in a handful of records — compact table references, an explicit
// override record, an eliminated record, an empty day, ground truth.
func goldenFile() *File {
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	h := Header{
		Scenario: "paper-baseline",
		Seed:     7,
		Start:    start,
		Vantages: []Vantage{{ASN: 64512, Country: "US"}, {ASN: 64513, Country: "IR"}},
		Targets: []Target{
			{URL: "daily-news.com", Category: uint8(webcat.News), ASN: 64600},
			{URL: "proxy-bridge.net", Category: uint8(webcat.Circumvention), ASN: 64601},
		},
		ASes: []ASMeta{
			{ASN: 64512, Name: "Vantage-US", Country: "US", Class: "enterprise"},
			{ASN: 64513, Name: "Vantage-IR", Country: "IR", Class: "enterprise"},
			{ASN: 64600, Name: "Host-A", Country: "DE", Class: "content"},
			{ASN: 64700, Name: "Transit-IR", Country: "IR", Class: "transit"},
		},
		TruthCensors: []uint32{64700},
	}
	rec := func(v topology.ASN, country string, t int32, at time.Time, an anomaly.Set, path []topology.ASN) iclab.Record {
		tgt := h.Targets[t]
		return iclab.Record{
			Vantage: v, VantageCountry: country,
			TargetASN: topology.ASN(tgt.ASN), TargetIdx: t,
			URL: tgt.URL, Category: webcat.Category(tgt.Category),
			At: at, Anomalies: an, ASPath: path,
			TruePath: path,
		}
	}
	r0 := rec(64512, "US", 0, start.Add(4*time.Hour), 0, []topology.ASN{64512, 64700, 64600})
	r1 := rec(64513, "IR", 1, start.Add(5*time.Hour), anomaly.MakeSet(anomaly.DNS, anomaly.RST),
		[]topology.ASN{64513, 64700, 64601})
	r1.TrueActs = []iclab.GroundTruthAct{{ASN: 64700, Kinds: anomaly.MakeSet(anomaly.DNS, anomaly.RST)}}
	// Day 1 is empty; day 2 holds an eliminated record and an explicit
	// override record whose fields disagree with its target-table entry.
	r2 := rec(64512, "US", 0, start.AddDate(0, 0, 2).Add(6*time.Hour), 0, nil)
	r2.Fail = traceroute.ErrDisagree
	r2.ASPath = nil
	r2.TruePath = []topology.ASN{64512, 64600}
	r3 := rec(64513, "IR", 0, start.AddDate(0, 0, 2).Add(7*time.Hour), anomaly.MakeSet(anomaly.Block),
		[]topology.ASN{64513, 64602})
	r3.URL, r3.Category, r3.TargetASN = "rehosted.org", webcat.Politics, 64602
	r4 := rec(64513, "XX", 1, start.AddDate(0, 0, 2).Add(8*time.Hour), 0, []topology.ASN{64513, 64601})
	r4.Unreachable = true
	f := &File{
		Header: h,
		Days:   [][]iclab.Record{{r0, r1}, nil, {r2, r3, r4}},
	}
	iclab.NumberPaths(f.Days...)
	return f
}

// recordsEqual compares two records field-wise; time.Time goes through
// Equal so wall-clock representation differences don't false-negative.
func recordsEqual(a, b *iclab.Record) bool {
	if !a.At.Equal(b.At) {
		return false
	}
	ac, bc := *a, *b
	ac.At, bc.At = time.Time{}, time.Time{}
	return reflect.DeepEqual(ac, bc)
}

func filesEqual(t *testing.T, want, got *File) {
	t.Helper()
	if len(got.Days) != len(want.Days) {
		t.Fatalf("day batches: got %d, want %d", len(got.Days), len(want.Days))
	}
	for d := range want.Days {
		if len(got.Days[d]) != len(want.Days[d]) {
			t.Fatalf("day %d: got %d records, want %d", d, len(got.Days[d]), len(want.Days[d]))
		}
		for i := range want.Days[d] {
			if !recordsEqual(&want.Days[d][i], &got.Days[d][i]) {
				t.Errorf("day %d record %d:\n got %+v\nwant %+v", d, i, got.Days[d][i], want.Days[d][i])
			}
		}
	}
	if !reflect.DeepEqual(got.Header.Vantages, want.Header.Vantages) ||
		!reflect.DeepEqual(got.Header.Targets, want.Header.Targets) ||
		!reflect.DeepEqual(got.Header.ASes, want.Header.ASes) ||
		!reflect.DeepEqual(got.Header.TruthCensors, want.Header.TruthCensors) {
		t.Error("header tables diverge")
	}
	if got.Header.Scenario != want.Header.Scenario || got.Header.Seed != want.Header.Seed ||
		!got.Header.Start.Equal(want.Header.Start) {
		t.Error("header identity diverges")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := goldenFile()
	var buf bytes.Buffer
	if err := Encode(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	filesEqual(t, f, got)
	if got.Header.Format != Magic || got.Header.Version != Version {
		t.Errorf("decoded identity %q v%d", got.Header.Format, got.Header.Version)
	}
	if got.Header.Records != 5 || got.Header.Days != 3 {
		t.Errorf("decoded counts: %d records, %d days", got.Header.Records, got.Header.Days)
	}
}

func TestWriteReadFile(t *testing.T) {
	f := goldenFile()
	path := filepath.Join(t.TempDir(), "ds.jsonl.gz")
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	filesEqual(t, f, got)
}

// TestGoldenV1 pins format v1: the checked-in golden file must keep
// decoding to the same dataset, and today's encoder must keep producing
// the same (pre-gzip) bytes. An encoder change that breaks either fails
// here — bump Version and add migration support instead of editing the
// golden.
func TestGoldenV1(t *testing.T) {
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(goldenPath, goldenFile()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file does not decode: %v", err)
	}
	filesEqual(t, goldenFile(), got)

	// Byte stability is asserted on the JSONL layer, below gzip, so a Go
	// gzip implementation change cannot mask (or fake) a format change.
	var plain bytes.Buffer
	if err := encodePlain(&plain, goldenFile()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	zr, err := gzip.NewReader(raw)
	if err != nil {
		t.Fatal(err)
	}
	goldenPlain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), goldenPlain) {
		t.Errorf("encoder output diverges from golden v1 bytes:\n got %d bytes\nwant %d bytes\nfirst lines:\n got: %.200s\nwant: %.200s",
			plain.Len(), len(goldenPlain), plain.String(), goldenPlain)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	encode := func(f *File) []byte {
		var buf bytes.Buffer
		if err := Encode(&buf, f); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	gz := func(lines ...string) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		io.WriteString(zw, strings.Join(lines, "\n"))
		zw.Close()
		return buf.Bytes()
	}
	cases := []struct {
		name  string
		input []byte
		want  string
	}{
		{"not gzip", []byte("plain text"), "not a gzipped"},
		{"absurd day count", gz(fmt.Sprintf(`{"format":%q,"version":1,"days":9000000000000000000}`, Magic)), "corrupt header"},
		{"not json", gz("nonsense"), "decode header"},
		{"wrong magic", gz(`{"format":"something-else","version":1}`), "format"},
		{"future version", gz(fmt.Sprintf(`{"format":%q,"version":99}`, Magic)), "version 99"},
		{"bad anomaly table", gz(fmt.Sprintf(`{"format":%q,"version":1,"anomaly_kinds":["nope"]}`, Magic)), "anomaly kind"},
		{"bad fail table", gz(fmt.Sprintf(`{"format":%q,"version":1,"fail_reasons":["nope"]}`, Magic)), "fail reason"},
		{"bad category table", gz(fmt.Sprintf(`{"format":%q,"version":1,"categories":["nope"]}`, Magic)), "category"},
		{"day out of range", gz(
			fmt.Sprintf(`{"format":%q,"version":1,"days":1,"records":1,"targets":[{"url":"u","category":0,"asn":1}]}`, Magic),
			`{"d":5,"v":1,"t":0,"at":0}`), "outside the period"},
		{"dangling target", gz(
			fmt.Sprintf(`{"format":%q,"version":1,"days":1,"records":1,"fail_reasons":["ok"]}`, Magic),
			`{"d":0,"v":1,"t":3,"at":0}`), "references target"},
	}
	for _, tc := range cases {
		_, err := Decode(bytes.NewReader(tc.input))
		if err == nil {
			t.Errorf("%s: decoded successfully", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// A blank line is a record line that does not decode, not one to skip:
	// it fails in json.Unmarshal like any other bad line.
	h := oneTarget
	h.Records = 2
	_, err := decodeLines(t, h, nil, `{"d":0,"v":1,"t":0,"at":0}`, "", `{"d":0,"v":1,"t":0,"at":1}`)
	if err == nil || !strings.Contains(err.Error(), "decode record 1: unexpected end of JSON input") {
		t.Errorf("blank record line: err = %v", err)
	}

	// A truncated record stream must be caught by the count check.
	full := encode(goldenFile())
	zr, err := gzip.NewReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndexByte(plain[:len(plain)-1], '\n')
	var rezip bytes.Buffer
	zw := gzip.NewWriter(&rezip)
	zw.Write(plain[:cut+1])
	zw.Close()
	if _, err := Decode(&rezip); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated stream: err = %v", err)
	}
}

// TestEmptyURLOverrideRoundTrips pins the explicit-override form for a
// record whose URL is empty: the category pointer, not the URL, marks the
// override, so the empty URL must survive instead of being silently
// replaced by the target table's entry.
func TestEmptyURLOverrideRoundTrips(t *testing.T) {
	f := goldenFile()
	r := f.Days[0][0]
	r.URL, r.Category, r.TargetASN = "", webcat.Politics, 65001 // disagrees with target 0
	f.Days = [][]iclab.Record{{r}}
	var buf bytes.Buffer
	if err := Encode(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d := got.Days[0][0]
	if d.URL != "" || d.Category != webcat.Politics || d.TargetASN != 65001 {
		t.Errorf("override record rewritten: URL %q, Category %v, TargetASN %v", d.URL, d.Category, d.TargetASN)
	}
}

// FuzzDatasetRoundTrip drives the codec with pseudo-random datasets: any
// file the encoder accepts must decode back to the identical dataset, and
// the decoder must never panic.
func FuzzDatasetRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(10))
	f.Add(uint64(42), uint8(1), uint8(0))
	f.Add(uint64(7), uint8(8), uint8(50))
	f.Fuzz(func(t *testing.T, seed uint64, days uint8, perDay uint8) {
		if days == 0 {
			days = 1
		}
		if days > 16 {
			days %= 16
		}
		if perDay > 64 {
			perDay %= 64
		}
		file := randomFile(seed, int(days), int(perDay))
		var buf bytes.Buffer
		if err := Encode(&buf, file); err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		filesEqual(t, file, got)
	})
}

// randomFile builds a deterministic pseudo-random dataset exercising the
// codec's branches: eliminated records, anomaly sets, truth fields,
// records disagreeing with their table entries, empty days.
func randomFile(seed uint64, days, perDay int) *File {
	rng := rand.New(rand.NewPCG(seed, 0xda7a5e7))
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	h := Header{Scenario: "fuzz", Seed: seed, Start: start}
	nv, nt := 1+rng.IntN(5), 1+rng.IntN(5)
	for i := 0; i < nv; i++ {
		h.Vantages = append(h.Vantages, Vantage{ASN: uint32(64500 + i), Country: fmt.Sprintf("C%d", rng.IntN(4))})
	}
	for i := 0; i < nt; i++ {
		h.Targets = append(h.Targets, Target{
			URL:      fmt.Sprintf("site-%d.example", i),
			Category: uint8(rng.IntN(int(webcat.NumCategories))),
			ASN:      uint32(64600 + i),
		})
	}
	if rng.IntN(2) == 0 {
		h.ASes = append(h.ASes, ASMeta{ASN: 64700, Name: "T", Country: "C0", Class: "transit"})
		h.TruthCensors = []uint32{64700}
	}
	f := &File{Header: h, Days: make([][]iclab.Record, days)}
	for d := 0; d < days; d++ {
		if rng.IntN(8) == 0 {
			continue // empty day
		}
		for i := 0; i < perDay; i++ {
			vi, ti := rng.IntN(nv), rng.IntN(nt)
			v, tgt := h.Vantages[vi], h.Targets[ti]
			r := iclab.Record{
				Vantage: topology.ASN(v.ASN), VantageCountry: v.Country,
				TargetASN: topology.ASN(tgt.ASN), TargetIdx: int32(ti),
				URL: tgt.URL, Category: webcat.Category(tgt.Category),
				At:        start.AddDate(0, 0, d).Add(time.Duration(rng.IntN(86400)) * time.Second),
				Anomalies: anomaly.Set(rng.IntN(1 << anomaly.NumKinds)),
			}
			switch rng.IntN(4) {
			case 0:
				r.Fail = traceroute.FailReason(1 + rng.IntN(4))
				r.Unreachable = rng.IntN(2) == 0
			default:
				for h := 0; h < 2+rng.IntN(4); h++ {
					r.ASPath = append(r.ASPath, topology.ASN(64500+rng.IntN(300)))
				}
			}
			if rng.IntN(3) == 0 {
				r.TruePath = append([]topology.ASN(nil), r.ASPath...)
				r.TrueActs = []iclab.GroundTruthAct{{ASN: 64700, Kinds: anomaly.Set(rng.IntN(1 << anomaly.NumKinds))}}
			}
			if rng.IntN(8) == 0 {
				// Disagree with the table: forces the explicit-field path.
				r.URL = "override.example"
				r.Category = webcat.Category(rng.IntN(int(webcat.NumCategories)))
				r.TargetASN = 65000
				r.VantageCountry = "ZZ"
			}
			f.Days[d] = append(f.Days[d], r)
		}
	}
	iclab.NumberPaths(f.Days...)
	return f
}

// randomWire draws a wireRecord the fast encoder handles (no string or
// pointer overrides), with every field ranging over its whole type.
func randomWire(rng *rand.Rand) wireRecord {
	wr := wireRecord{
		Day:       int(rng.Uint64()),
		Vantage:   rng.Uint32(),
		Target:    int32(rng.Uint32()),
		At:        int64(rng.Uint64()),
		Anomalies: uint8(rng.IntN(256)),
		Fail:      uint8(rng.IntN(256)),
	}
	if rng.IntN(2) == 0 {
		// Small values too, so short numbers and zeros show up.
		wr.Day, wr.Target, wr.At = rng.IntN(4000), int32(rng.IntN(100)-1), rng.Int64N(1<<20)-1<<19
	}
	for n := rng.IntN(6); n > 0; n-- {
		wr.Path = append(wr.Path, rng.Uint32()>>(rng.IntN(4)*8))
	}
	for n := rng.IntN(4); n > 0; n-- {
		wr.TruePath = append(wr.TruePath, rng.Uint32())
	}
	for n := rng.IntN(3); n > 0; n-- {
		wr.TrueActs = append(wr.TrueActs, wireAct{ASN: rng.Uint32(), Kinds: uint8(rng.IntN(256))})
	}
	wr.Unreachable = rng.IntN(2) == 1
	return wr
}

// TestAppendWireMatchesJSON differentially pins the hand-rolled record
// codec against encoding/json over a sweep of wire shapes: every
// omitempty combination the fast path can see must encode byte-identically
// (newline included) and parse back through parseWire to the same record.
// If the wireRecord struct tags ever drift, this fails before the golden
// file does.
func TestAppendWireMatchesJSON(t *testing.T) {
	cases := []wireRecord{
		{},
		{Day: 3, Vantage: 65001, Target: -1, At: -62135596800000000},
		{Day: 0, Vantage: 1, Target: 0, At: 1462867200000000000, Anomalies: 3},
		{Day: 7, Vantage: 4200000000, Target: 12, At: 1, Path: []uint32{1, 2, 3}},
		{Day: 1, Vantage: 2, Target: 3, At: 4, Fail: 2},
		{Day: 1, Vantage: 2, Target: 3, At: 4, TruePath: []uint32{9}},
		{Day: 1, Vantage: 2, Target: 3, At: 4,
			TrueActs: []wireAct{{ASN: 64512, Kinds: 0}, {ASN: 7, Kinds: 31}}},
		{Day: 1, Vantage: 2, Target: 3, At: 4, Unreachable: true},
		{Day: 2, Vantage: 3, Target: 4, At: 1462867200000000000, Anomalies: 255,
			Path: []uint32{10, 20, 30, 40}, Fail: 1, TruePath: []uint32{10, 20, 30},
			TrueActs: []wireAct{{ASN: 1, Kinds: 2}}, Unreachable: true},
		{Day: math.MinInt, Vantage: math.MaxUint32, Target: math.MinInt32, At: math.MinInt64,
			Anomalies: math.MaxUint8, Path: []uint32{0, math.MaxUint32}, Fail: math.MaxUint8},
		{Day: math.MaxInt, Target: math.MaxInt32, At: math.MaxInt64,
			TrueActs: []wireAct{{ASN: math.MaxUint32, Kinds: math.MaxUint8}}},
	}
	rng := rand.New(rand.NewPCG(42, 7))
	for i := 0; i < 200; i++ {
		cases = append(cases, randomWire(rng))
	}
	for i, wr := range cases {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		if err := enc.Encode(&wr); err != nil {
			t.Fatalf("case %d: json encode: %v", i, err)
		}
		got := appendWire(nil, &wr)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("case %d: appendWire diverges from encoding/json\n got: %s\nwant: %s", i, got, want.Bytes())
		}
		var back wireRecord
		if !parseWire(got, &back, nil) {
			t.Errorf("case %d: parseWire refuses appendWire's line %s", i, got)
		} else if !reflect.DeepEqual(back, wr) {
			t.Errorf("case %d: parseWire(%s) = %+v, want %+v", i, got, back, wr)
		}
	}
}

// TestParseWireFallsBack lists lines encoding/json accepts that are not in
// the canonical shape; parseWire must refuse each so Decode hands it to
// json.Unmarshal. The last few are not JSON at all.
func TestParseWireFallsBack(t *testing.T) {
	for _, line := range []string{
		`{"d":0,"v":1,"t":2,"at":3,"url":"x.org","cat":0}`,
		`{"d":0,"v":1,"t":2,"at":3,"vc":"US"}`,
		`{"d":0,"v":1,"t":2,"at":3,"tasn":9}`,
		`{"d":0, "v":1,"t":2,"at":3}`,
		`{"d":0,"v":1,"t":2,"at":3} `,
		`{"d":0,"v":1,"t":2,"at":3}` + "\r\n",
		`{"d":0,"v":1,"t":2,"at":3}` + "\n\n",
		`{"v":1,"d":0,"t":2,"at":3}`,
		`{"d":0,"v":1,"t":2,"at":3,"f":1,"an":1}`,
		`{"d":0,"v":1,"t":2,"at":3,"an":1,"an":2}`,
		`{"D":0,"v":1,"t":2,"at":3}`,
		`{"d":0,"v":1,"t":2,"at":3,"an":0}`,
		`{"d":0,"v":1,"t":2,"at":3,"f":0}`,
		`{"d":0,"v":1,"t":2,"at":3,"p":[]}`,
		`{"d":0,"v":1,"t":2,"at":3,"p":null}`,
		`{"d":0,"v":1,"t":2,"at":3,"u":false}`,
		`{"d":0,"v":1,"t":2,"at":3,"ta":[{"k":1,"a":2}]}`,
		`{"d":-0,"v":1,"t":2,"at":3}`,
		`{"d":0,"v":1,"t":-0,"at":3}`,
		`{"d":0,"v":1,"t":2,"at":1e3}`,
		`{"d":0,"v":1.0,"t":2,"at":3}`,
		`{"d":0,"v":1,"t":2,"at":3,"x":1}`,
		// Not JSON, or not a wireRecord: json.Unmarshal reports the error.
		`{"d":00,"v":1,"t":2,"at":3}`,
		`{"d":0,"v":-1,"t":2,"at":3}`,
		`{"d":0,"v":4294967296,"t":2,"at":3}`,
		`{"d":0,"v":18446744073709551617,"t":2,"at":3}`, // 2^64+1 wraps to 1
		`{"d":0,"v":1,"t":2147483648,"at":3}`,
		`{"d":0,"v":1,"t":2,"at":9223372036854775808}`,
		`{"d":0,"v":1,"t":2,"at":3,"an":256}`,
		`{"d":0,"v":1,"t":2,"at":3,"p":[1,]}`,
		`{"d":0,"v":1,"t":2,"at":3`,
		`{"d":0,"v":1,"t":2,"at":3}x`,
	} {
		var wr wireRecord
		if parseWire([]byte(line), &wr, nil) {
			t.Errorf("parseWire accepts non-canonical line %s", line)
		}
	}
}

// FuzzParseWire holds parseWire to json.Unmarshal: on any line parseWire
// accepts, encoding/json must decode the same record. It also round-trips
// a random canonical record through appendWire and parseWire.
func FuzzParseWire(f *testing.F) {
	f.Add([]byte(`{"d":0,"v":64512,"t":0,"at":1462075200000000000,"p":[64512,64700,64600],"tp":[64512,64700,64600]}`+"\n"), uint64(1))
	f.Add([]byte(`{"d":-7,"v":0,"t":-1,"at":-1,"an":3,"f":4,"ta":[{"a":64700,"k":3},{"a":0,"k":0}],"u":true}`), uint64(2))
	f.Add([]byte(`{"d":9223372036854775807,"v":4294967295,"t":-2147483648,"at":-9223372036854775808}`), uint64(3))
	f.Add([]byte(`{"d":0,"v":1,"t":2,"at":3,"url":"x.org","cat":0}`), uint64(4))
	f.Add([]byte(`{"p":[7,8],"d":1,"v":1,"t":1,"at":3,"tp":[7,8]}`), uint64(5))
	f.Fuzz(func(t *testing.T, line []byte, seed uint64) {
		var fast wireRecord
		if parseWire(line, &fast, nil) {
			var ref wireRecord
			if err := json.Unmarshal(line, &ref); err != nil {
				t.Fatalf("parseWire accepts %q, which encoding/json rejects: %v", line, err)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("parseWire(%q) = %+v, encoding/json decodes %+v", line, fast, ref)
			}
		}
		wr := randomWire(rand.New(rand.NewPCG(seed, 0x11e)))
		canon := appendWire(nil, &wr)
		var back wireRecord
		if !parseWire(canon, &back, nil) || !reflect.DeepEqual(back, wr) {
			t.Fatalf("canonical line %s parses back as %+v, want %+v", canon, back, wr)
		}
		// Decode the line twice around a twin json.Unmarshal must decode:
		// if the stream decodes, its path IDs are NumberPaths'.
		line = bytes.TrimSuffix(line, []byte("\n"))
		twin := append([]byte("{ "), bytes.TrimPrefix(line, []byte("{"))...)
		if f, err := decodePlain(bytes.NewReader(plainLines(wireHeader, line, twin, line))); err == nil {
			checkNumbering(t, f)
		}
	})
}

// wireHeader is the header FuzzParseWire decodes its lines under: every
// day a header may declare, and a few targets.
var wireHeader = Header{Days: 1 << 20, Targets: []Target{{URL: "a.org"}, {URL: "b.org"}, {URL: "c.org"}}}

// plainLines returns the uncompressed stream of h, its code tables filled
// and its record count set, followed by the record lines.
func plainLines(h Header, lines ...[]byte) []byte {
	h.fillTables()
	h.Records = len(lines)
	head, err := json.Marshal(&h)
	if err != nil {
		panic(err)
	}
	out := append(head, '\n')
	for _, l := range lines {
		out = append(append(out, l...), '\n')
	}
	return out
}

// checkNumbering holds a decoded file's path IDs to iclab.NumberPaths'
// numbering of the same records in table order, and checks that records
// of one path share one array.
func checkNumbering(t *testing.T, f *File) {
	t.Helper()
	table := iclab.MergeShards(f.Days)
	numbered := slices.Clone(table)
	iclab.NumberPaths(numbered)
	for i := range table {
		d, n := &table[i], &numbered[i]
		if d.PathID != n.PathID {
			t.Fatalf("record %d (path %v): decode numbered it %d, NumberPaths %d", i, d.ASPath, d.PathID, n.PathID)
		}
		if len(d.ASPath) > 0 && &d.ASPath[0] != &n.ASPath[0] {
			t.Fatalf("record %d (path %v) does not share its path's first array", i, d.ASPath)
		}
	}
}

// TestDecodeNumbersPaths pins decode's path numbering: IDs in table order,
// repeats sharing their first record's array, a "tp" equal to "p"
// sharing it too, lines that fall back to json.Unmarshal numbered by
// their path's value, and an out-of-order stream numbered in the order
// of the table decode lays out.
func TestDecodeNumbersPaths(t *testing.T) {
	h := oneTarget
	h.Days, h.Records = 2, 7
	lines := func(days ...string) []string {
		recs := []string{
			`{"d":%s,"v":1,"t":0,"at":0,"p":[1,2,3],"tp":[1,2,3]}`,
			`{"d":%s,"v":1,"t":0,"at":1,"f":1}`,
			`{"d":%s,"v":1,"t":0,"at":2,"p":[1,2],"tp":[1,2,3]}`,
			`{"p":[1,2,3],"d":%s,"v":1,"t":0,"at":3}`, // json.Unmarshal fallback
			`{"d":%s,"v":1,"t":0,"at":4,"p":[1,2,3]}`,
			`{"f":2,"d":%s,"v":1,"t":0,"at":5}`, // fallback, no path
			`{"d":%s,"v":1,"t":0,"at":6,"p":[1,2]}`,
		}
		var out []string
		for i, r := range recs {
			out = append(out, fmt.Sprintf(r, days[i%len(days)]))
		}
		return out
	}
	for _, tc := range []struct {
		name string
		days []string
		want []int32
	}{
		{"in day order", []string{"0"}, []int32{1, 2, 3, 1, 1, 2, 3}},
		// Days 1 0 1 0 1 0 1: the table holds day 0's records (stream
		// lines 1, 3 and 5) before day 1's.
		{"out of day order", []string{"1", "0"}, []int32{1, 2, 1, 2, 3, 2, 3}},
	} {
		f, err := decodeLines(t, h, nil, lines(tc.days...)...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkNumbering(t, f)
		table := iclab.MergeShards(f.Days)
		var got []int32
		for _, r := range table {
			got = append(got, r.PathID)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: IDs %v, want %v", tc.name, got, tc.want)
		}
		for _, r := range table {
			if len(r.TruePath) > 0 && slices.Equal(r.TruePath, r.ASPath) && &r.TruePath[0] != &r.ASPath[0] {
				t.Errorf("%s: record at %v: a \"tp\" equal to \"p\" has its own array", tc.name, r.At)
			}
		}
	}
}

// decodeLines gzips a header built from h (its code tables filled by
// fillTables and then adjusted by edit) followed by newline-terminated
// record lines, and decodes the result.
func decodeLines(t *testing.T, h Header, edit func(*Header), lines ...string) (*File, error) {
	t.Helper()
	h.fillTables()
	if edit != nil {
		edit(&h)
	}
	head, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(append(head, '\n'))
	for _, l := range lines {
		zw.Write([]byte(l + "\n"))
	}
	zw.Close()
	return Decode(&buf)
}

var oneTarget = Header{Days: 1, Records: 1, Targets: []Target{{URL: "u.org", ASN: 9}}}

// TestAnomalyKindsFollowTheTable decodes under a header whose anomaly
// table swaps dns and rst: both a record's anomaly bits and its
// ground-truth act kinds must read through the table, and a bit the table
// does not name is an error.
func TestAnomalyKindsFollowTheTable(t *testing.T) {
	swap := func(h *Header) { h.AnomalyKinds[0], h.AnomalyKinds[1] = h.AnomalyKinds[1], h.AnomalyKinds[0] }
	rst := anomaly.MakeSet(anomaly.RST)
	for _, line := range []string{
		`{"d":0,"v":1,"t":0,"at":0,"an":1,"ta":[{"a":7,"k":1}]}`, // canonical
		`{"d":0,"v":1,"t":0,"at":0,"ta":[{"k":1,"a":7}],"an":1}`, // json.Unmarshal fallback
	} {
		f, err := decodeLines(t, oneTarget, swap, line)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		r := f.Days[0][0]
		if r.Anomalies != rst || len(r.TrueActs) != 1 || r.TrueActs[0].Kinds != rst {
			t.Errorf("%s: anomalies %v, acts %+v; want rst in both", line, r.Anomalies, r.TrueActs)
		}
	}
	short := func(h *Header) { h.AnomalyKinds = h.AnomalyKinds[:2] }
	for _, line := range []string{
		`{"d":0,"v":1,"t":0,"at":0,"an":64}`,
		`{"d":0,"v":1,"t":0,"at":0,"an":4}`,
		`{"d":0,"v":1,"t":0,"at":0,"ta":[{"a":7,"k":5}]}`,
	} {
		if _, err := decodeLines(t, oneTarget, short, line); err == nil || !strings.Contains(err.Error(), "anomaly bit") {
			t.Errorf("%s under a 2-kind table: err = %v", line, err)
		}
	}
}

// TestDecodeFallbackStartsFromEmptyRecord pins that a line decoded by
// json.Unmarshal never inherits array elements an earlier line left in the
// reused record: the act below names no kinds, so it has none.
func TestDecodeFallbackStartsFromEmptyRecord(t *testing.T) {
	h := oneTarget
	h.Records = 2
	f, err := decodeLines(t, h, nil,
		`{"d":0,"v":1,"t":0,"at":0,"ta":[{"a":7,"k":3}]}`,
		`{"d":0,"v":1,"t":0,"at":1,"ta":[{"a":8}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if acts := f.Days[0][1].TrueActs; len(acts) != 1 || acts[0] != (iclab.GroundTruthAct{ASN: 8}) {
		t.Errorf("second record's acts = %+v, want one act by AS8 with no kinds", acts)
	}
}

// TestRecordLineCap checks the record-line limit at its boundary: a line
// of maxRecordLine bytes (newline included) decodes, one byte more is an
// error naming the record.
func TestRecordLineCap(t *testing.T) {
	line := `{"d":0,"v":1,"t":0,"at":0}`
	pad := func(n int) string { return line[:len(line)-1] + strings.Repeat(" ", n-len(line)-1) + "}" }
	if _, err := decodeLines(t, oneTarget, nil, pad(maxRecordLine)); err != nil {
		t.Errorf("line of %d bytes: %v", maxRecordLine, err)
	}
	_, err := decodeLines(t, oneTarget, nil, pad(maxRecordLine+1))
	if err == nil || !strings.Contains(err.Error(), "record 0") || !strings.Contains(err.Error(), "longer than") {
		t.Errorf("line of %d bytes: err = %v", maxRecordLine+1, err)
	}
}

// FuzzDatasetDecode feeds arbitrary bytes to Decode, both as they are and
// gzip-wrapped: it must return a file or an error, never both or neither,
// and never panic. Each input also goes through matchSerial, which holds
// the decode pipeline to the line loop alone at a block size that cuts its
// lines.
func FuzzDatasetDecode(f *testing.F) {
	// One stored-block writer serves every execution: a fresh writer, or
	// real compression, would cost more than the decode under test.
	zw, err := gzip.NewWriterLevel(io.Discard, gzip.NoCompression)
	if err != nil {
		f.Fatal(err)
	}
	// Streams whose lines repeat an earlier line's path, in canonical
	// lines and in lines that fall back to json.Unmarshal, in and out of
	// day order.
	h := oneTarget
	h.Days = 3
	for _, lines := range [][]string{
		{`{"d":0,"v":1,"t":0,"at":0,"p":[7,8]}`, `{"d":0,"v":1,"t":0,"at":1,"p":[7,8],"tp":[7,8]}`, `{"d":0,"v":1,"t":0,"at":2,"f":1}`},
		{`{"d":1,"v":1,"t":0,"at":0,"p":[7,8]}`, `{"at":1,"d":0,"v":1,"t":0,"p":[7,8]}`, `{"d":0,"v":1,"t":0,"at":2,"p":[7]}`, `{"d":2,"v":1,"t":0,"at":3,"p":[7]}`},
		{`{"d":0,"v":1,"t":0,"at":0,"p": [9, 10]}`, `{"d":0,"v":1,"t":0,"at":1,"p":[9,10]}`, `{"d":0,"v":1,"t":0,"at":2,"f":1,"p":[]}`, `{"d":0,"v":1,"t":0,"at":3}`},
	} {
		var bs [][]byte
		for _, l := range lines {
			bs = append(bs, []byte(l))
		}
		f.Add(plainLines(h, bs...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var wrapped bytes.Buffer
		zw.Reset(&wrapped)
		zw.Write(data)
		zw.Close()
		for _, in := range [][]byte{data, wrapped.Bytes()} {
			file, err := Decode(bytes.NewReader(in))
			if (file == nil) == (err == nil) {
				t.Fatalf("Decode returned file %v and error %v", file != nil, err)
			}
			if file != nil {
				checkNumbering(t, file)
			}
			// 64-byte blocks cut most record lines, and give an input of a
			// few hundred bytes more blocks than inFlight, so the reader
			// waits for blocks the line loop hands back.
			matchSerial(t, in, 64)
		}
	})
}

// matchSerial decodes in through decodeAhead at each of sizes and through
// decodePlain alone, once as the plain layer and, if it is one, once as a
// gzip stream: the files must be deeply equal and the errors read the
// same.
func matchSerial(t *testing.T, in []byte, sizes ...int) {
	t.Helper()
	for _, layer := range []string{"plain", "gzip"} {
		open := func() io.Reader {
			if layer == "plain" {
				return bytes.NewReader(in)
			}
			zr, err := gzip.NewReader(bytes.NewReader(in))
			if err != nil {
				return nil
			}
			return zr
		}
		if open() == nil {
			continue
		}
		want, wantErr := decodePlain(open())
		for _, size := range sizes {
			got, err := decodeAhead(open(), size)
			if errText(err) != errText(wantErr) {
				t.Fatalf("%s layer, %d-byte blocks: error %q, the serial loop's %q", layer, size, errText(err), errText(wantErr))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s layer, %d-byte blocks: the decoded file differs from the serial loop's", layer, size)
			}
		}
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestDecodePipelineMatchesSerial pins the pipeline to the serial loop
// where the queue between its stages could change the outcome: a final
// line without a newline, streams cut short mid-line, a gzip checksum that
// fails after the last line, and a bad record at the end of a long stream.
// Each case also checks the outcome itself. Lines at the length limit,
// which Decode's blocks cut, are TestRecordLineCap's.
func TestDecodePipelineMatchesSerial(t *testing.T) {
	h := oneTarget
	h.fillTables()
	rec := func(i int) string { return fmt.Sprintf(`{"d":0,"v":1,"t":0,"at":%d,"p":[1,2,3]}`, i) }
	plain := func(records int, lines ...string) []byte {
		h := h
		h.Records = records
		head, err := json.Marshal(&h)
		if err != nil {
			t.Fatal(err)
		}
		return append(head, "\n"+strings.Join(lines, "\n")...)
	}
	gz := func(b []byte) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(b)
		zw.Close()
		return buf.Bytes()
	}
	// Enough records to fill several of Decode's blocks.
	var many []string
	for i := 0; len(many)*len(rec(i)) < 3*blockSize; i++ {
		many = append(many, rec(i))
	}
	terminated := func(lines ...string) []string { return append(lines, "") }

	unterminated := plain(2, rec(0), rec(1))
	cutLine := plain(2, rec(0), rec(1))
	cutLine = cutLine[:len(cutLine)-5]
	manyGz := gz(plain(len(many), terminated(many...)...))
	badSum := bytes.Clone(manyGz)
	badSum[len(badSum)-5] ^= 0xff // the CRC-32 in the gzip trailer
	badLast := plain(len(many)+1, terminated(append(many, `{"d":0,"v":1,"t":0,"at":1,"p":[1,]}`)...)...)

	for _, tc := range []struct {
		name string
		in   []byte
		want string // a substring of the error, "" for a clean decode
	}{
		{"unterminated final line", gz(unterminated), ""},
		{"plain stream cut mid-line", gz(cutLine), "decode record 1: unexpected end of JSON input"},
		{"gzip stream cut mid-line", manyGz[:len(manyGz)/2], "unexpected EOF"},
		{"flipped gzip checksum", badSum, fmt.Sprintf("read record %d: gzip: invalid checksum", len(many))},
		{"bad record in the last block", gz(badLast), fmt.Sprintf("decode record %d:", len(many))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			matchSerial(t, tc.in, 1, 7, 64, blockSize)
			f, err := Decode(bytes.NewReader(tc.in))
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("err = %v", err)
			case tc.want == "" && f.Header.Records == 0:
				t.Fatal("decoded no records")
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestDecodeReleasesReader decodes a stream of many blocks whose second
// record is bad. The line loop stops there while the reader still has
// blocks to read, and must stop it: Decode returns the serial loop's
// error, and the goroutine count falls back to where it was.
func TestDecodeReleasesReader(t *testing.T) {
	h := oneTarget
	h.fillTables()
	h.Records = 1 << 16
	head, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(append(head, '\n'))
	fmt.Fprintf(zw, `{"d":0,"v":1,"t":0,"at":0}`+"\n"+`{"d":0,"v":1,"t":0,"at":"1"}`+"\n")
	for i := 2; i < h.Records; i++ {
		fmt.Fprintf(zw, `{"d":0,"v":1,"t":0,"at":%d,"p":[1,2,3,4,5,6,7,8]}`+"\n", i)
	}
	zw.Close()
	in := buf.Bytes()
	_, want := decodePlain(gzipReader(t, in))

	base := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := Decode(bytes.NewReader(in))
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Decode did not return after a bad record: the reader was left blocked")
	}
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("err = %v, want the serial loop's %v", err, want)
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Decode returned, %d before", n, base)
	}
}

func gzipReader(t *testing.T, in []byte) io.Reader {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	return zr
}

// decodeAlloc decodes in and returns the heap bytes the decode allocated
// and its record count.
func decodeAlloc(t *testing.T, in []byte) (uint64, int, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f, err := Decode(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	n := 0
	if f != nil {
		for _, day := range f.Days {
			n += len(day)
		}
	}
	return after.TotalAlloc - before.TotalAlloc, n, err
}

// TestDecodeAllocationBudget bounds the heap decode allocates. Records
// go into one table that doubles until the records read reach an eighth of
// the header's count and is then sized to it, and their paths and acts
// are carved from shared chunks, each distinct path once, so a multi-day
// file costs about 1.25 times its table plus the paths and their
// numbering, per record. A header that claims more
// records than the stream holds must fail as truncated, and the table can
// grow to at most eight times the records read: a stream of a few
// thousand records allocates at most ten tables (the last at most eight,
// the doublings before it about two) more than under a truthful header,
// claiming either just under eight times its records or 2^40. A short
// stream whose header claims 2^20 days and an absurd record count, up to
// MaxInt, must not allocate by those claims: no more than the 24 MiB of
// day slots the claim alone once cost. The test must not run in parallel
// with others: TotalAlloc counts every goroutine's allocations.
func TestDecodeAllocationBudget(t *testing.T) {
	// About 1.25 times what this fixture measured when the budget was
	// set, 300 bytes a record (294 without the race detector). Doubling
	// the table up to the header's count took 409; growing one slice per
	// day by append took 676. Numbering paths as they are parsed costs
	// most here, where 11,535 of the 15,360 records have a path of their
	// own: 355 bytes a record (349 without the race detector). A
	// numbering that kept a Go map of string keys and a path slice grown
	// by append took 444.
	const budget = 375
	var buf bytes.Buffer
	if err := Encode(&buf, randomFile(5, 120, 160)); err != nil {
		t.Fatal(err)
	}
	bytesAlloc, records, err := decodeAlloc(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	perRecord := float64(bytesAlloc) / float64(records)
	t.Logf("%d records, %.0f heap bytes a record (budget %d)", records, perRecord, budget)
	if perRecord > budget {
		t.Errorf("decode allocated %.0f heap bytes a record, over the budget of %d", perRecord, budget)
	}

	var plain bytes.Buffer
	if err := encodePlain(&plain, randomFile(9, 20, 160)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		keep  int // the record lines kept, all when negative
		claim int // the header's record count, or
		times int // this many times the lines kept
	}{
		// The table doubles from 1,024 records to the claim of 8,192 once
		// it is full, so it ends at eight times the 1,025 records read.
		{keep: 1025, claim: 8 << 10},
		// A claim past eight times the records is never reached.
		{keep: -1, times: 16},
		{keep: -1, claim: 1 << 40},
	} {
		truthful, n, err := decodeAlloc(t, gzipClaim(t, plain.Bytes(), tc.keep, -1))
		if err != nil {
			t.Fatal(err)
		}
		claim := tc.claim
		if tc.times > 0 {
			claim = tc.times * n
		}
		bytesAlloc, _, err := decodeAlloc(t, gzipClaim(t, plain.Bytes(), tc.keep, claim))
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("a %d-record stream claiming %d records decoded with err = %v", n, claim, err)
		}
		table := uint64(n) * uint64(unsafe.Sizeof(iclab.Record{}))
		t.Logf("a %d-record stream claiming %d records: %d heap bytes, %d under a truthful header, %d a table",
			n, claim, bytesAlloc, truthful, table)
		if bytesAlloc > truthful+10*table {
			t.Errorf("a %d-record stream claiming %d records allocated %d bytes, over %d under a truthful header plus ten %d-byte tables",
				n, claim, bytesAlloc, truthful, table)
		}
	}

	const daySlots = 24 << 20
	for _, claim := range []int{1 << 40, math.MaxInt} {
		h := oneTarget
		h.fillTables()
		h.Days, h.Records = 1<<20, claim
		head, err := json.Marshal(&h)
		if err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		zw := gzip.NewWriter(&buf)
		zw.Write(append(head, '\n'))
		for i := 0; i < 100; i++ {
			fmt.Fprintf(zw, `{"d":%d,"v":1,"t":0,"at":%d}`+"\n", i*1000, i)
		}
		zw.Close()
		bytesAlloc, _, err = decodeAlloc(t, buf.Bytes())
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("a 100-record stream claiming %d records decoded with err = %v", h.Records, err)
		}
		t.Logf("a 100-record stream claiming %d days and %d records: %d heap bytes", h.Days, h.Records, bytesAlloc)
		if bytesAlloc > daySlots {
			t.Errorf("a 100-record stream claiming %d days and %d records allocated %d bytes, over %d",
				h.Days, h.Records, bytesAlloc, daySlots)
		}
	}
}

// gzipClaim gzips the header and the first keep record lines of a plain
// stream, all of them when keep is negative, with the header's record
// count set to claim, or to the lines kept when claim is negative.
func gzipClaim(t *testing.T, plain []byte, keep, claim int) []byte {
	t.Helper()
	head, records, _ := bytes.Cut(plain, []byte("\n"))
	lines := bytes.SplitAfter(records, []byte("\n"))
	if len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if keep >= 0 {
		lines = lines[:keep]
	}
	if claim < 0 {
		claim = len(lines)
	}
	var h Header
	if err := json.Unmarshal(head, &h); err != nil {
		t.Fatal(err)
	}
	h.Records = claim
	head, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(append(head, '\n'))
	zw.Write(bytes.Join(lines, nil))
	zw.Close()
	return buf.Bytes()
}

// TestDecodeLaysDaysOutInOrder checks the decoded table's layout: every
// day is a view of one day-ordered table, so MergeShards returns it
// without a copy, whether the stream was written in day order or not; a
// day's records keep their stream order.
func TestDecodeLaysDaysOutInOrder(t *testing.T) {
	h := oneTarget
	h.Days, h.Records = 4, 6
	for _, tc := range []struct {
		name   string
		days   []int
		wantAt [][]int64
	}{
		{"in day order", []int{0, 0, 1, 3, 3, 3}, [][]int64{{0, 1}, {2}, nil, {3, 4, 5}}},
		{"out of day order", []int{3, 0, 3, 1, 0, 3}, [][]int64{{1, 4}, {3}, nil, {0, 2, 5}}},
	} {
		var lines []string
		for i, d := range tc.days {
			lines = append(lines, fmt.Sprintf(`{"d":%d,"v":1,"t":0,"at":%d}`, d, i))
		}
		f, err := decodeLines(t, h, nil, lines...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for d, want := range tc.wantAt {
			var got []int64
			for _, r := range f.Days[d] {
				got = append(got, r.At.UnixNano())
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: day %d holds records at %v, want %v", tc.name, d, got, want)
			}
		}
		if f.Days[2] != nil {
			t.Errorf("%s: the empty day is %v, want nil", tc.name, f.Days[2])
		}
		if merged := iclab.MergeShards(f.Days); &merged[0] != &f.Days[0][0] {
			t.Errorf("%s: the decoded days are not views of one table", tc.name)
		}
	}
}
