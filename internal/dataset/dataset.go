package dataset

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"churntomo/internal/anomaly"
	"churntomo/internal/iclab"
	"churntomo/internal/topology"
	"churntomo/internal/traceroute"
	"churntomo/internal/webcat"
)

// Magic identifies a churntomo dataset stream; Version is the format
// revision this package reads and writes. Compatibility with v1 files is
// pinned by the golden-file test — bump Version (and teach Decode the old
// shape) rather than changing what v1 means.
const (
	Magic   = "churntomo/dataset"
	Version = 1
)

// Vantage is one measurement vantage point's header entry.
type Vantage struct {
	ASN     uint32 `json:"asn"`
	Country string `json:"country"`
}

// Target is one test-list URL's header entry: the URL, its category code
// (an index into Header.Categories) and the hosting AS.
type Target struct {
	URL      string `json:"url"`
	Category uint8  `json:"category"`
	ASN      uint32 `json:"asn"`
}

// ASMeta is one AS's metadata-table entry — what the report layer needs to
// name censors, resolve countries and split churn by destination class
// without the generated topology.
type ASMeta struct {
	ASN     uint32 `json:"asn"`
	Name    string `json:"name,omitempty"`
	Country string `json:"country,omitempty"`
	Class   string `json:"class,omitempty"`
}

// Header is the stream's first JSON line: the world metadata the solvers
// and reports need, plus the code tables the record lines reference.
type Header struct {
	Format  string `json:"format"`
	Version int    `json:"version"`

	// Scenario names the world the measurements were taken in (a preset
	// name for synthesized data, a free-form label for ingested data).
	Scenario string `json:"scenario,omitempty"`
	// Seed is the master seed that generated a synthetic world, 0 for
	// ingested data.
	Seed uint64 `json:"seed,omitempty"`
	// Start anchors the measurement period; Days is its length and the
	// number of day batches in the stream (empty days included).
	Start time.Time `json:"start"`
	Days  int       `json:"days"`
	// Records counts the record lines that follow; Decode verifies it.
	Records int `json:"records"`

	// Code tables: records reference anomaly kinds by bit, elimination
	// reasons and URL categories by index into these, making the stream
	// decodable without this package's constants.
	AnomalyKinds []string `json:"anomaly_kinds"`
	FailReasons  []string `json:"fail_reasons"`
	Categories   []string `json:"categories"`

	Vantages []Vantage `json:"vantages"`
	Targets  []Target  `json:"targets"`
	// ASes is the optional AS metadata table; TruthCensors the optional
	// ground-truth censoring ASes (synthetic worlds only).
	ASes         []ASMeta `json:"ases,omitempty"`
	TruthCensors []uint32 `json:"truth_censors,omitempty"`
}

// File is one decoded dataset: the header plus the measurement records in
// day-ordered batches (Days[d] holds day d's records, empty days kept).
// A record's position in the day-ordered sequence (iclab.MergeShards)
// identifies it, exactly as in a live measurement run. Decoded records
// are read-only, so one File may feed concurrent runs.
type File struct {
	Header Header
	Days   [][]iclab.Record
}

// wireRecord is one record line. The compact path references the header's
// vantage and target tables; the explicit URL/Category/TargetASN/
// VantageCountry fields appear only when a record disagrees with its table
// entry (foreign data with sloppy indices), so synthesized datasets stay
// small.
type wireRecord struct {
	Day     int    `json:"d"`
	Vantage uint32 `json:"v"`
	Target  int32  `json:"t"`
	At      int64  `json:"at"` // UnixNano, UTC

	Anomalies uint8    `json:"an,omitempty"`
	Path      []uint32 `json:"p,omitempty"`
	Fail      uint8    `json:"f,omitempty"`

	// Explicit overrides of the table lookups (rare).
	URL            string `json:"url,omitempty"`
	Category       *uint8 `json:"cat,omitempty"`
	TargetASN      uint32 `json:"tasn,omitempty"`
	VantageCountry string `json:"vc,omitempty"`

	// Ground truth (synthetic worlds only).
	TruePath    []uint32  `json:"tp,omitempty"`
	TrueActs    []wireAct `json:"ta,omitempty"`
	Unreachable bool      `json:"u,omitempty"`
}

// wireAct is one ground-truth censor action.
type wireAct struct {
	ASN   uint32 `json:"a"`
	Kinds uint8  `json:"k"`
}

// fillTables stamps the format identity and the current code tables.
func (h *Header) fillTables() {
	h.Format = Magic
	h.Version = Version
	h.AnomalyKinds = h.AnomalyKinds[:0]
	for _, k := range anomaly.Kinds {
		h.AnomalyKinds = append(h.AnomalyKinds, k.String())
	}
	h.FailReasons = h.FailReasons[:0]
	for r := traceroute.OK; r <= traceroute.ErrDisagree; r++ {
		h.FailReasons = append(h.FailReasons, r.String())
	}
	h.Categories = h.Categories[:0]
	for c := webcat.Category(0); c < webcat.NumCategories; c++ {
		h.Categories = append(h.Categories, c.String())
	}
}

// Encode writes f as a gzipped JSONL stream: the header line, then one
// line per record in day order. The header's Format, Version, Days,
// Records and code tables are stamped here — callers fill only the world
// metadata.
func Encode(w io.Writer, f *File) error {
	zw := gzip.NewWriter(w)
	if err := encodePlain(zw, f); err != nil {
		zw.Close() //churnvet:ok errflow -- error path: the encode error being returned outranks a close failure on an already-broken stream
		return err
	}
	return zw.Close()
}

// encodePlain is Encode before compression — the layer the golden-file
// test pins, so format stability is asserted independently of the gzip
// implementation's byte output.
func encodePlain(w io.Writer, f *File) error {
	h := f.Header
	h.fillTables()
	h.Days = len(f.Days)
	h.Records = 0
	for _, day := range f.Days {
		h.Records += len(day)
	}

	countryOf := make(map[uint32]string, len(h.Vantages))
	for _, v := range h.Vantages {
		countryOf[v.ASN] = v.Country
	}

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(&h); err != nil {
		return fmt.Errorf("dataset: encode header: %w", err)
	}
	var wr wireRecord
	var line []byte
	for day, recs := range f.Days {
		for i := range recs {
			if err := toWire(&recs[i], day, &h, countryOf, &wr); err != nil {
				return err
			}
			// Records without explicit string overrides — every record a
			// synthesized dataset emits — take the hand-rolled encoder;
			// appendWire produces byte-for-byte what json.Encoder would
			// (the differential test pins that), without per-record
			// reflection or marshal buffers.
			if wr.URL == "" && wr.Category == nil && wr.TargetASN == 0 && wr.VantageCountry == "" {
				line = appendWire(line[:0], &wr)
				if _, err := bw.Write(line); err != nil {
					return fmt.Errorf("dataset: encode day %d record %d: %w", day, i, err)
				}
				continue
			}
			if err := enc.Encode(&wr); err != nil {
				return fmt.Errorf("dataset: encode day %d record %d: %w", day, i, err)
			}
		}
	}
	return bw.Flush()
}

// toWire converts one record into wr, compacting fields the header tables
// imply. wr is overwritten; its slices keep their capacity across calls.
func toWire(r *iclab.Record, day int, h *Header, countryOf map[uint32]string, wr *wireRecord) error {
	if r.Fail > traceroute.ErrDisagree {
		return fmt.Errorf("dataset: day %d: unencodable fail reason %d", day, r.Fail)
	}
	*wr = wireRecord{
		Day:       day,
		Vantage:   uint32(r.Vantage),
		Target:    r.TargetIdx,
		At:        r.At.UnixNano(),
		Anomalies: uint8(r.Anomalies),
		Fail:      uint8(r.Fail),
		Path:      wr.Path[:0],
		TruePath:  wr.TruePath[:0],
		TrueActs:  wr.TrueActs[:0],
	}
	for _, a := range r.ASPath {
		wr.Path = append(wr.Path, uint32(a))
	}
	// The compact path relies on the tables round-tripping the record; any
	// disagreement falls back to explicit fields rather than silently
	// rewriting the data.
	tableOK := r.TargetIdx >= 0 && int(r.TargetIdx) < len(h.Targets)
	if tableOK {
		t := h.Targets[r.TargetIdx]
		tableOK = t.URL == r.URL && webcat.Category(t.Category) == r.Category && topology.ASN(t.ASN) == r.TargetASN
	}
	if !tableOK {
		cat := uint8(r.Category)
		wr.URL, wr.Category, wr.TargetASN = r.URL, &cat, uint32(r.TargetASN)
	}
	if countryOf[uint32(r.Vantage)] != r.VantageCountry {
		wr.VantageCountry = r.VantageCountry
	}
	for _, a := range r.TruePath {
		wr.TruePath = append(wr.TruePath, uint32(a))
	}
	for _, act := range r.TrueActs {
		wr.TrueActs = append(wr.TrueActs, wireAct{ASN: uint32(act.ASN), Kinds: uint8(act.Kinds)})
	}
	wr.Unreachable = r.Unreachable
	return nil
}

// appendWire appends wr's JSON line — identical to what json.Encoder
// emits, newline included — to b. Only valid for records with no string
// or pointer overrides (URL, Category, TargetASN, VantageCountry unset):
// every remaining field is numeric or boolean, so no escaping logic is
// needed. Field order and omitempty behaviour mirror the wireRecord
// struct tags exactly; the golden v1 file and the differential test both
// pin the equivalence.
func appendWire(b []byte, wr *wireRecord) []byte {
	b = append(b, `{"d":`...)
	b = strconv.AppendInt(b, int64(wr.Day), 10)
	b = append(b, `,"v":`...)
	b = strconv.AppendUint(b, uint64(wr.Vantage), 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, int64(wr.Target), 10)
	b = append(b, `,"at":`...)
	b = strconv.AppendInt(b, wr.At, 10)
	if wr.Anomalies != 0 {
		b = append(b, `,"an":`...)
		b = strconv.AppendUint(b, uint64(wr.Anomalies), 10)
	}
	if len(wr.Path) > 0 {
		b = append(b, `,"p":[`...)
		for i, a := range wr.Path {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(a), 10)
		}
		b = append(b, ']')
	}
	if wr.Fail != 0 {
		b = append(b, `,"f":`...)
		b = strconv.AppendUint(b, uint64(wr.Fail), 10)
	}
	if len(wr.TruePath) > 0 {
		b = append(b, `,"tp":[`...)
		for i, a := range wr.TruePath {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(a), 10)
		}
		b = append(b, ']')
	}
	if len(wr.TrueActs) > 0 {
		b = append(b, `,"ta":[`...)
		for i, act := range wr.TrueActs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"a":`...)
			b = strconv.AppendUint(b, uint64(act.ASN), 10)
			b = append(b, `,"k":`...)
			b = strconv.AppendUint(b, uint64(act.Kinds), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if wr.Unreachable {
		b = append(b, `,"u":true`...)
	}
	return append(b, '}', '\n')
}

// parseWire is appendWire's reader twin. It decodes line into wr when the
// line has exactly the canonical shape appendWire writes, and reports
// whether it did: keys in wireRecord order, each optional key present only
// with a non-zero value, integers in JSON form (no leading zeros, no
// fraction or exponent, a '-' only on d, t and at, never -0) that fit
// their fields, no whitespace, at most one trailing newline. Every other
// line returns false with wr partly written; the caller then starts from
// an empty record and decodes the line with json.Unmarshal, which stays
// the reference (FuzzParseWire pins that both agree on every line
// parseWire accepts).
func parseWire(line []byte, wr *wireRecord) bool {
	p := wireParser{b: line}
	day, ok := p.signed(`{"d":`, math.MinInt, math.MaxInt)
	if !ok {
		return false
	}
	vantage, ok := p.unsigned(`,"v":`, math.MaxUint32)
	if !ok {
		return false
	}
	target, ok := p.signed(`,"t":`, math.MinInt32, math.MaxInt32)
	if !ok {
		return false
	}
	if wr.At, ok = p.signed(`,"at":`, math.MinInt64, math.MaxInt64); !ok {
		return false
	}
	wr.Day, wr.Vantage, wr.Target = int(day), uint32(vantage), int32(target)
	if p.lit(`,"an":`) {
		an, ok := p.digits(math.MaxUint8)
		if !ok || an == 0 {
			return false
		}
		wr.Anomalies = uint8(an)
	}
	if p.lit(`,"p":[`) {
		if wr.Path, ok = p.uints(wr.Path); !ok {
			return false
		}
	}
	if p.lit(`,"f":`) {
		fail, ok := p.digits(math.MaxUint8)
		if !ok || fail == 0 {
			return false
		}
		wr.Fail = uint8(fail)
	}
	if p.lit(`,"tp":[`) {
		if wr.TruePath, ok = p.uints(wr.TruePath); !ok {
			return false
		}
	}
	if p.lit(`,"ta":[`) {
		for {
			asn, ok := p.unsigned(`{"a":`, math.MaxUint32)
			if !ok {
				return false
			}
			kinds, ok := p.unsigned(`,"k":`, math.MaxUint8)
			if !ok || !p.lit("}") {
				return false
			}
			wr.TrueActs = append(wr.TrueActs, wireAct{ASN: uint32(asn), Kinds: uint8(kinds)})
			if p.lit("]") {
				break
			}
			if !p.lit(",") {
				return false
			}
		}
	}
	wr.Unreachable = p.lit(`,"u":true`)
	if !p.lit("}") {
		return false
	}
	rest := line[p.i:]
	return len(rest) == 0 || len(rest) == 1 && rest[0] == '\n'
}

// wireParser is parseWire's cursor over one line.
type wireParser struct {
	b []byte
	i int
}

// lit consumes s if the line continues with it.
func (p *wireParser) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// digits consumes a JSON integer's digits, whose value must not exceed
// max (at most 2^63, which has 19 digits, so 19 digits never overflow n).
func (p *wireParser) digits(max uint64) (uint64, bool) {
	start := p.i
	var n uint64
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		n = n*10 + uint64(p.b[p.i]-'0')
		p.i++
	}
	// JSON has no empty numbers and no leading zeros.
	nd := p.i - start
	if nd == 0 || nd > 19 || p.b[start] == '0' && nd > 1 || n > max {
		return 0, false
	}
	return n, true
}

// unsigned consumes key and an unsigned integer no larger than max.
func (p *wireParser) unsigned(key string, max uint64) (uint64, bool) {
	if !p.lit(key) {
		return 0, false
	}
	return p.digits(max)
}

// signed consumes key and an integer in [min, max], with min < 0 < max;
// "-0" does not count.
func (p *wireParser) signed(key string, min, max int64) (int64, bool) {
	if !p.lit(key) {
		return 0, false
	}
	if !p.lit("-") {
		n, ok := p.digits(uint64(max))
		return int64(n), ok
	}
	n, ok := p.digits(uint64(-(min + 1)) + 1)
	return -int64(n), ok && n != 0
}

// uints consumes the elements and closing bracket of a non-empty array of
// uint32s, appending them to dst.
func (p *wireParser) uints(dst []uint32) ([]uint32, bool) {
	for {
		n, ok := p.digits(math.MaxUint32)
		if !ok {
			return dst, false
		}
		dst = append(dst, uint32(n))
		if p.lit("]") {
			return dst, true
		}
		if !p.lit(",") {
			return dst, false
		}
	}
}

// codeTables resolves a header's code tables against the current
// constants, so records decode by the names the file declares rather than
// by positional luck.
type codeTables struct {
	kinds      []anomaly.Kind // wire bit -> kind
	fails      []traceroute.FailReason
	categories []webcat.Category
	countryOf  map[uint32]string
}

func tablesOf(h *Header) (*codeTables, error) {
	t := &codeTables{countryOf: make(map[uint32]string, len(h.Vantages))}
	kindByName := map[string]anomaly.Kind{}
	for _, k := range anomaly.Kinds {
		kindByName[k.String()] = k
	}
	for _, name := range h.AnomalyKinds {
		k, ok := kindByName[name]
		if !ok {
			return nil, fmt.Errorf("dataset: unknown anomaly kind %q", name)
		}
		t.kinds = append(t.kinds, k)
	}
	failByName := map[string]traceroute.FailReason{}
	for r := traceroute.OK; r <= traceroute.ErrDisagree; r++ {
		failByName[r.String()] = r
	}
	for _, name := range h.FailReasons {
		r, ok := failByName[name]
		if !ok {
			return nil, fmt.Errorf("dataset: unknown fail reason %q", name)
		}
		t.fails = append(t.fails, r)
	}
	catByName := map[string]webcat.Category{}
	for c := webcat.Category(0); c < webcat.NumCategories; c++ {
		catByName[c.String()] = c
	}
	for _, name := range h.Categories {
		c, ok := catByName[name]
		if !ok {
			return nil, fmt.Errorf("dataset: unknown category %q", name)
		}
		t.categories = append(t.categories, c)
	}
	for _, v := range h.Vantages {
		t.countryOf[v.ASN] = v.Country
	}
	return t, nil
}

// fromWire converts one record line back, resolving table references.
func fromWire(wr *wireRecord, h *Header, t *codeTables) (iclab.Record, error) {
	var r iclab.Record
	if wr.Day < 0 || wr.Day >= h.Days {
		return r, fmt.Errorf("dataset: record day %d outside the period of %d days", wr.Day, h.Days)
	}
	r.Vantage = topology.ASN(wr.Vantage)
	r.TargetIdx = wr.Target
	r.At = time.Unix(0, wr.At).UTC()
	var err error
	if r.Anomalies, err = t.anomalies(wr.Anomalies); err != nil {
		return r, err
	}
	if int(wr.Fail) >= len(t.fails) {
		return r, fmt.Errorf("dataset: fail code %d outside the header's %d reasons", wr.Fail, len(t.fails))
	}
	r.Fail = t.fails[wr.Fail]
	r.ASPath = asns(wr.Path)
	switch {
	// The category pointer marks the explicit-override form — the URL
	// alone cannot, since omitempty drops an empty override URL.
	case wr.Category != nil || wr.URL != "":
		if wr.Category == nil || int(*wr.Category) >= len(t.categories) {
			return r, fmt.Errorf("dataset: record for %q carries no decodable category", wr.URL)
		}
		r.URL, r.Category, r.TargetASN = wr.URL, t.categories[*wr.Category], topology.ASN(wr.TargetASN)
	case wr.Target >= 0 && int(wr.Target) < len(h.Targets):
		tgt := h.Targets[wr.Target]
		if int(tgt.Category) >= len(t.categories) {
			return r, fmt.Errorf("dataset: target %d category code %d outside the header's table", wr.Target, tgt.Category)
		}
		r.URL, r.Category, r.TargetASN = tgt.URL, t.categories[tgt.Category], topology.ASN(tgt.ASN)
	default:
		return r, fmt.Errorf("dataset: record references target %d of %d and carries no explicit URL", wr.Target, len(h.Targets))
	}
	r.VantageCountry = wr.VantageCountry
	if r.VantageCountry == "" {
		r.VantageCountry = t.countryOf[wr.Vantage]
	}
	r.TruePath = asns(wr.TruePath)
	if len(wr.TrueActs) > 0 {
		r.TrueActs = make([]iclab.GroundTruthAct, len(wr.TrueActs))
		for i, act := range wr.TrueActs {
			r.TrueActs[i].ASN = topology.ASN(act.ASN)
			if r.TrueActs[i].Kinds, err = t.anomalies(act.Kinds); err != nil {
				return r, err
			}
		}
	}
	r.Unreachable = wr.Unreachable
	return r, nil
}

// anomalies maps wire anomaly bits through the header's kind table; a set
// bit the table does not name is an error, not a silently dropped kind.
func (t *codeTables) anomalies(bits uint8) (anomaly.Set, error) {
	var s anomaly.Set
	for bit := 0; bits>>bit != 0; bit++ {
		if bits&(1<<bit) == 0 {
			continue
		}
		if bit >= len(t.kinds) {
			return 0, fmt.Errorf("dataset: anomaly bit %d outside the header's %d kinds", bit, len(t.kinds))
		}
		s = s.Add(t.kinds[bit])
	}
	return s, nil
}

// asns converts a wire AS path, keeping an empty path nil.
func asns(wire []uint32) []topology.ASN {
	if len(wire) == 0 {
		return nil
	}
	out := make([]topology.ASN, len(wire))
	for i, a := range wire {
		out[i] = topology.ASN(a)
	}
	return out
}

// Decode reads a gzipped dataset stream, validating the magic, version and
// record count. It never panics on corrupt input.
func Decode(r io.Reader) (*File, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: not a gzipped dataset: %w", err)
	}
	defer zr.Close() //churnvet:ok errflow -- read path: gzip reader close frees state only; a decode error from decodePlain already dominates
	return decodePlain(zr)
}

// decodePlain decodes the uncompressed JSONL layer.
func decodePlain(r io.Reader) (*File, error) {
	br := bufio.NewReader(r)
	line, err := readLine(br)
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	var h Header
	if err := json.Unmarshal(line, &h); err != nil {
		return nil, fmt.Errorf("dataset: decode header: %w", err)
	}
	if h.Format != Magic {
		return nil, fmt.Errorf("dataset: format %q is not %q", h.Format, Magic)
	}
	if h.Version != Version {
		return nil, fmt.Errorf("dataset: version %d not supported (this build reads v%d)", h.Version, Version)
	}
	if h.Days < 0 || h.Records < 0 {
		return nil, fmt.Errorf("dataset: header declares %d days, %d records", h.Days, h.Records)
	}
	// The day-batch slice is allocated from the header, so an absurd count
	// must be rejected here — "never panics on corrupt input" includes not
	// dying in makeslice. maxDays is ~2870 years of measurements.
	const maxDays = 1 << 20
	if h.Days > maxDays {
		return nil, fmt.Errorf("dataset: header declares %d days (limit %d); corrupt header?", h.Days, maxDays)
	}
	tables, err := tablesOf(&h)
	if err != nil {
		return nil, err
	}

	f := &File{Header: h, Days: make([][]iclab.Record, h.Days)}
	n := 0
	var wr wireRecord
	var lineBuf []byte
	for {
		line, err := readLineInto(br, lineBuf)
		lineBuf = line[:0]
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read record %d: %w", n, err)
		}
		if len(line) == 0 {
			continue
		}
		// Reset the reused record by value but keep the slices' capacity;
		// absent fields must not inherit the previous record's values.
		wr = wireRecord{Path: wr.Path[:0], TruePath: wr.TruePath[:0], TrueActs: wr.TrueActs[:0]}
		if !parseWire(line, &wr) {
			// json.Unmarshal decodes array elements into existing backing
			// storage without zeroing them, so the fallback starts from an
			// empty record: an element missing a key reads as zero, not as
			// whatever an earlier line left there.
			wr = wireRecord{}
			if err := json.Unmarshal(line, &wr); err != nil {
				return nil, fmt.Errorf("dataset: decode record %d: %w", n, err)
			}
		}
		rec, err := fromWire(&wr, &h, tables)
		if err != nil {
			return nil, err
		}
		f.Days[wr.Day] = append(f.Days[wr.Day], rec)
		n++
	}
	if n != h.Records {
		return nil, fmt.Errorf("dataset: header declares %d records, stream holds %d (truncated?)", h.Records, n)
	}
	return f, nil
}

// readLine reads one \n-terminated line of any length (the header line of
// a paper-scale dataset outgrows a Scanner's default buffer).
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	if len(line) > 0 && errors.Is(err, io.EOF) {
		return line, nil // unterminated final line
	}
	if err != nil {
		return nil, err
	}
	return line, nil
}

// maxRecordLine caps one record line. The longest line a synthesized world
// writes is a few hundred bytes; the cap keeps a corrupt or hostile stream
// (a gzip bomb, say) from growing the line buffer without limit.
const maxRecordLine = 1 << 20

// readLineInto is readLine for record lines, accumulating into a reusable
// buffer: record lines are consumed immediately, so the decode loop reads
// every line into the same backing array instead of allocating one per
// record. A line longer than maxRecordLine is an error.
func readLineInto(br *bufio.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		switch {
		case len(buf) > maxRecordLine:
			return buf[:0], fmt.Errorf("line longer than %d bytes", maxRecordLine)
		case errors.Is(err, bufio.ErrBufferFull):
			continue // long line: keep accumulating
		case errors.Is(err, io.EOF) && len(buf) > 0:
			return buf, nil // unterminated final line
		default:
			return buf, err
		}
	}
}

// WriteFile encodes f to path (the conventional extension is .jsonl.gz).
func WriteFile(path string, f *File) error {
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if err := Encode(out, f); err != nil {
		out.Close()     //churnvet:ok errflow -- best-effort cleanup on the error path; the encode error is returned
		os.Remove(path) //churnvet:ok errflow -- best-effort removal of the half-written file; the encode error is returned
		return err
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	return nil
}

// ReadFile decodes the dataset at path.
func ReadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer in.Close() //churnvet:ok errflow -- read-only fd: close cannot lose data, and Decode's error already dominates
	return Decode(in)
}
