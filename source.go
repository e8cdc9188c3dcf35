package churntomo

// The measurement-source API: the public boundary between *where
// measurements come from* and *how they are localized*. A Source supplies
// day-ordered batches of Measurement records plus the world metadata
// (vantages, targets, period, AS table) the solvers and reports need.
// ScenarioSource — the default — synthesizes them from a scenario world
// exactly as the fused pipeline always has; FileSource replays a dataset
// exported by Result.Export (the versioned on-disk format of
// internal/dataset); external ingesters implement Source to point the
// tomography at real data without touching the synthesis stack.
//
// Measurement is the pipeline's one record type, and a record is never
// written after it is measured, decoded or copied in. The built-in
// sources hand their records to a run as they are, so one FileSource's
// decoded records feed every run it serves, concurrent ones included.
// Records are deep-copied (cloneDays) only where a public Dataset would
// otherwise share them with someone else: FileSource.Open (the shared
// decoded cache), Result.Dataset (the run's records) and a run over a
// caller's Dataset. So a caller editing a Dataset never reaches a run's
// records, nor a run the caller's. Freshly measured or decoded records
// that nobody else holds (ScenarioSource.Open, LoadDataset) and a
// Dataset only being encoded (Dataset.WriteFile) are handed over as they
// are.
//
// A run's records lie in one day-ordered table whose day batches are
// views of it: RunByDayCtx measures into one, dataset decode appends into
// one and cloneDays copies into one, so iclab.MergeShards hands a run the
// table itself. Inside the package a view's capacity runs on into the
// next day. Every Dataset the package hands out has its days capped at
// their length (fileToPublic), so a caller appending to one day
// reallocates that day instead of writing over the next.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"churntomo/internal/censor"
	"churntomo/internal/dataset"
	"churntomo/internal/iclab"
	"churntomo/internal/topology"
	"churntomo/internal/traceroute"
	"churntomo/internal/webcat"
)

// Category classifies a test-list URL's content; its String form is the
// display name ("News", "Politics", ...).
type Category = webcat.Category

// PathFail classifies why a measurement yielded no usable AS path — the
// paper's four record-elimination rules. A Measurement with Fail !=
// PathOK never contributes a clause.
type PathFail = traceroute.FailReason

// The path-inference outcomes, re-exported for external consumers.
const (
	PathOK             PathFail = traceroute.OK
	PathTraceFailed    PathFail = traceroute.ErrTraceFailed    // rule 2: traceroute error
	PathNoMapping      PathFail = traceroute.ErrNoMapping      // rule 1: no IP mappable
	PathSilentBoundary PathFail = traceroute.ErrSilentBoundary // rule 3: silent hop between differing ASes
	PathsDisagree      PathFail = traceroute.ErrDisagree       // rule 4: the three traceroutes disagree
)

// TruthAct records, for validation only, one censor that acted on a
// measurement and with which techniques. Ingested real-world data leaves
// it empty — the paper had no ground truth either.
type TruthAct = iclab.GroundTruthAct

// Measurement is one measurement record — the §3.1 tuple (vantage AS,
// URL, anomaly outcomes, inferred AS path, timestamp) plus validation-only
// ground truth; see the field notes on the aliased type. Raw packet
// captures and traceroutes are consumed during generation and not kept.
// A record's position in the day-ordered batches identifies it.
type Measurement = iclab.Record

// VantageInfo is one vantage point's metadata.
type VantageInfo struct {
	ASN     ASN
	Country string
}

// TargetInfo is one test-list URL's metadata.
type TargetInfo struct {
	URL      string
	Category Category
	ASN      ASN
}

// ASInfo is one AS's metadata: what the report layer needs to name
// censors, resolve countries and split churn by destination class. Class
// is the CAIDA-style class name ("transit", "content", "enterprise"); ""
// is treated as "transit".
type ASInfo struct {
	ASN           ASN
	Name, Country string
	Class         string
}

// SourceInfo is the world metadata attached to a dataset: the measurement
// period and the tables the solvers and reports resolve records against.
type SourceInfo struct {
	// Label names the dataset's origin (a file path, "scenario <name>").
	Label string
	// Scenario names the world the measurements were taken in — a preset
	// name for synthesized data, a free-form label for ingested data.
	Scenario string
	// Seed is the master seed of a synthetic world, 0 for ingested data.
	Seed uint64
	// Start anchors the measurement period; Days is its length.
	Start time.Time
	Days  int

	Vantages []VantageInfo
	Targets  []TargetInfo
	// ASes is the optional AS metadata table; without it censors are
	// reported by bare ASN and churn-by-class is empty.
	ASes []ASInfo
	// TruthCensors lists the ground-truth censoring ASes of a synthetic
	// world; empty for ingested data (validation is then unavailable).
	TruthCensors []ASN
}

// Dataset is an in-memory measurement dataset: the world metadata plus
// the records in day-ordered batches (Days[d] holds day d's measurements;
// empty days are kept so replay timing is preserved). A *Dataset is
// itself a Source, so a programmatically built dataset can be analyzed
// directly: New(WithSource(ds)).
type Dataset struct {
	Info SourceInfo
	Days [][]Measurement
}

// Source supplies measurements to an Experiment. Open produces the
// dataset one cell analyzes; cfg is the cell's configuration, which
// synthesizing sources use to size and seed the world and replaying
// sources may ignore. Open must be safe for concurrent calls (one
// Experiment may Run concurrently, and experiments may share a source)
// and should honor ctx cancellation.
type Source interface {
	// Label names the source in events and errors.
	Label() string
	// Open loads or generates the dataset for one cell configuration.
	Open(ctx context.Context, cfg Config) (*Dataset, error)
}

// cellSource is the internal fast path: built-in sources hand the cell
// runner its world (keeping the full substrate for reports) and their day
// shards as they are, skipping the Dataset copy. External Source
// implementations go through Open and adoptFile instead.
type cellSource interface {
	openCell(ctx context.Context, cfg Config, emit func(Event)) (*cell, [][]iclab.Record, error)
}

// ScenarioSource synthesizes measurements from a scenario world — the
// default source, byte-identical to the pre-Source fused pipeline. The
// world is the registered preset cfg.Scenario names (an experiment's
// WithScenario selection lands there; register a composed spec with
// RegisterScenario to run it) and is sized by the usual Config
// dimensions.
type ScenarioSource struct{}

// Label implements Source.
func (s *ScenarioSource) Label() string { return "scenario" }

// openCell implements the internal fast path: exactly the fused
// build-then-measure pipeline, substrate events included.
func (s *ScenarioSource) openCell(ctx context.Context, cfg Config, emit func(Event)) (*cell, [][]iclab.Record, error) {
	spec, err := resolveScenario(cfg.Scenario)
	if err != nil {
		return nil, nil, err
	}
	c, err := prepareSpecCtx(ctx, cfg, spec, emit)
	if err != nil {
		return nil, nil, err
	}
	ev := newEvent(StageMeasure)
	ev.Stats.Seed = c.cfg.Seed
	emit(ev)
	shards, err := iclab.RunByDayCtx(ctx, c.world, c.cfg.platformConfig())
	if err != nil {
		return nil, nil, err
	}
	return c, shards, nil
}

// Open implements the public Source contract: build the world, run the
// measurement schedule, and return the dataset in exported form. The
// batches are the same records an Experiment using this source analyzes.
func (s *ScenarioSource) Open(ctx context.Context, cfg Config) (*Dataset, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c, shards, err := s.openCell(ctx, cfg, func(Event) {})
	if err != nil {
		return nil, err
	}
	d := fileToPublic(&dataset.File{Header: headerOf(c), Days: shards})
	d.Info.Label = "scenario " + c.cfg.Scenario
	return d, nil
}

// FileSource replays a dataset file written by Result.Export (or genlab
// -export): the versioned, gzipped JSONL format of internal/dataset. The
// file's day batches feed batch localization and streaming replay through
// the incremental engine without regenerating the world. The file is
// decoded once per FileSource and cached, so repeated and concurrent runs
// over one FileSource pay the gzip+JSON cost a single time; a FileSource
// therefore snapshots the file as of its first use. Every run reads the
// cached records in place; no run writes to them.
type FileSource struct {
	Path string

	once   sync.Once
	cached *dataset.File
	err    error
}

// Label implements Source.
func (s *FileSource) Label() string { return s.Path }

// read decodes the file on first use and serves the cache afterwards.
func (s *FileSource) read() (*dataset.File, error) {
	s.once.Do(func() {
		s.cached, s.err = dataset.ReadFile(s.Path)
	})
	return s.cached, s.err
}

// Open implements Source by decoding the file into exported form. The
// records are a copy of the cache, which later runs over this source read.
func (s *FileSource) Open(ctx context.Context, cfg Config) (*Dataset, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	f, err := s.read()
	if err != nil {
		return nil, err
	}
	d := fileToPublic(&dataset.File{Header: f.Header, Days: cloneDays(f.Days)})
	d.Info.Label = s.Path
	return d, nil
}

// openCell implements the internal fast path: decode once and adopt the
// cached shards directly, skipping the Dataset round trip. Concurrent
// cells share the shards, which every stage only reads.
func (s *FileSource) openCell(ctx context.Context, cfg Config, emit func(Event)) (*cell, [][]iclab.Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	ev := newEvent(StageLoad)
	ev.Stats.Seed = cfg.Seed
	ev.Source = s.Path
	emit(ev)
	f, err := s.read()
	if err != nil {
		return nil, nil, fmt.Errorf("churntomo: %w", err)
	}
	return adoptFile(cfg, f)
}

// Label implements Source for in-memory datasets.
func (d *Dataset) Label() string {
	if d.Info.Label != "" {
		return d.Info.Label
	}
	return "in-memory dataset"
}

// Open implements Source: the dataset is its own data.
func (d *Dataset) Open(context.Context, Config) (*Dataset, error) { return d, nil }

// WriteFile encodes the dataset to path in the versioned on-disk format
// (conventionally named *.jsonl.gz) — the writer side of FileSource, for
// ingesters that build datasets programmatically.
func (d *Dataset) WriteFile(path string) error {
	f, err := publicToFile(d)
	if err != nil {
		return err
	}
	return dataset.WriteFile(path, f)
}

// LoadDataset decodes a dataset file into memory — the inspection
// counterpart of FileSource, for tooling that wants the records
// themselves rather than an analysis.
func LoadDataset(path string) (*Dataset, error) {
	f, err := dataset.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := fileToPublic(f)
	d.Info.Label = path
	return d, nil
}

// Export writes the run's measured dataset to path in the versioned
// on-disk format, ready for FileSource / churnlab -input to analyze
// without regenerating the world. It applies to single-cell runs (batch
// or streaming); a matrix run has no single dataset to export.
func (r *Result) Export(path string) error {
	f, err := r.exportFile()
	if err != nil {
		return err
	}
	return dataset.WriteFile(path, f)
}

// Dataset returns the run's measured dataset in exported form — what
// Export writes, without the file. The same single-cell restriction
// applies. The records are a copy: editing them leaves the Result as it
// was.
func (r *Result) Dataset() (*Dataset, error) {
	f, err := r.exportFile()
	if err != nil {
		return nil, err
	}
	f.Days = cloneDays(f.Days)
	d := fileToPublic(f)
	d.Info.Label = "result " + r.Config.Scenario
	return d, nil
}

// exportFile snapshots the single-cell run as a dataset file.
func (r *Result) exportFile() (*dataset.File, error) {
	if r.Mode == ModeMatrix {
		return nil, fmt.Errorf("churntomo: Export: a matrix run has no single dataset; export per-cell runs instead")
	}
	if r.cell == nil || r.cell.dataset == nil {
		return nil, fmt.Errorf("churntomo: Export: result carries no measured dataset")
	}
	return fileOf(r.cell)
}

// headerOf derives the dataset header from a cell's world.
func headerOf(c *cell) dataset.Header {
	w := c.world
	h := dataset.Header{
		Scenario: c.cfg.Scenario,
		Seed:     c.cfg.Seed,
		Start:    w.Start.UTC(),
		Days:     w.Days(),
	}
	for _, v := range w.Vantages {
		h.Vantages = append(h.Vantages, dataset.Vantage{ASN: uint32(v.ASN), Country: v.Country})
	}
	for _, t := range w.Targets {
		h.Targets = append(h.Targets, dataset.Target{URL: t.URL.Host, Category: uint8(t.URL.Category), ASN: uint32(t.ASN)})
	}
	if w.Graph != nil {
		for i := range w.Graph.ASes {
			as := &w.Graph.ASes[i]
			h.ASes = append(h.ASes, dataset.ASMeta{
				ASN: uint32(as.ASN), Name: as.Name, Country: as.Country, Class: as.Class.String(),
			})
		}
	}
	if w.Censors != nil {
		for _, asn := range w.Censors.ASNs() {
			h.TruthCensors = append(h.TruthCensors, uint32(asn))
		}
	}
	return h
}

// fileOf snapshots a measured cell, splitting the merged record sequence
// back into the day batches a replay consumes.
func fileOf(c *cell) (*dataset.File, error) {
	h := headerOf(c)
	f := &dataset.File{Header: h, Days: make([][]iclab.Record, h.Days)}
	start := c.world.Start.UTC()
	for i := range c.dataset.Records {
		rec := c.dataset.Records[i]
		day := int(rec.At.UTC().Sub(start) / (24 * time.Hour))
		if day < 0 || day >= h.Days {
			return nil, fmt.Errorf("churntomo: Export: record %d at %v falls outside the %d-day period starting %v",
				i, rec.At, h.Days, start)
		}
		f.Days[day] = append(f.Days[day], rec)
	}
	return f, nil
}

// classByName parses the CAIDA-style class names the AS table carries.
var classByName = map[string]topology.Class{
	"":           topology.ClassTransit,
	"transit":    topology.ClassTransit,
	"content":    topology.ClassContent,
	"enterprise": topology.ClassEnterprise,
}

// adoptFile reconstructs the world a decoded dataset runs under: a
// lookup-only metadata graph, a ground-truth registry (nil when the file
// lists no true censors, so the run stays ungraded), and a scenario shell
// carrying the period and the vantage/target tables — everything the
// solve, churn, leakage and report stages read, with no routing substrate
// (none is needed after measurement).
func adoptFile(cfg Config, f *dataset.File) (*cell, [][]iclab.Record, error) {
	h := &f.Header
	if h.Scenario != "" {
		cfg.Scenario = h.Scenario
	}
	if h.Seed != 0 {
		cfg.Seed = h.Seed
	}
	if h.Days > 0 {
		cfg.Days = h.Days
	} else {
		cfg.Days = len(f.Days)
	}
	if !h.Start.IsZero() {
		cfg.Start = h.Start.UTC()
	}
	if n := len(h.Vantages); n > 0 {
		cfg.Vantages = n
	}
	if n := len(h.Targets); n > 0 {
		cfg.URLs = n
	}
	countries := map[string]bool{}
	ases := make([]topology.AS, 0, len(h.ASes))
	for _, m := range h.ASes {
		class, ok := classByName[m.Class]
		if !ok {
			return nil, nil, fmt.Errorf("churntomo: dataset AS%d carries unknown class %q", m.ASN, m.Class)
		}
		as := topology.AS{ASN: ASN(m.ASN), Name: m.Name, Country: m.Country, Class: class}
		if c, ok := topology.CountryByCode(m.Country); ok {
			as.Region = c.Region
		}
		ases = append(ases, as)
		countries[m.Country] = true
	}
	if len(h.ASes) > 0 {
		cfg.ASes = len(h.ASes)
		cfg.Countries = len(countries)
	}
	cfg.fillDefaults()

	g := topology.MetadataGraph(ases)
	var reg *censor.Registry
	if len(h.TruthCensors) > 0 {
		reg = censor.NewRegistry()
		for _, asn := range h.TruthCensors {
			reg.Add(censor.NewPolicy(ASN(asn), g.CountryOf(ASN(asn)), censor.Behavior{}, 0, 0))
		}
	}
	s := &iclab.Scenario{
		Graph:   g,
		Censors: reg,
		Start:   cfg.Start,
		End:     cfg.Start.AddDate(0, 0, cfg.Days),
		Seed:    h.Seed,
	}
	for _, v := range h.Vantages {
		s.Vantages = append(s.Vantages, iclab.Vantage{ASN: ASN(v.ASN), Country: v.Country})
	}
	for _, t := range h.Targets {
		if int(t.Category) >= int(webcat.NumCategories) {
			return nil, nil, fmt.Errorf("churntomo: dataset target %q carries unknown category code %d", t.URL, t.Category)
		}
		s.Targets = append(s.Targets, iclab.Target{
			URL: webcat.URL{Host: t.URL, Category: Category(t.Category)}, ASN: ASN(t.ASN),
		})
	}
	return &cell{cfg: cfg, world: s}, f.Days, nil
}

// fileToPublic converts a decoded file into the exported Dataset shape.
// The Dataset takes the file's day batches as they are, each capped at its
// length: the batches may be adjacent views of one table, and a capped
// view reallocates on append instead of writing into the next day.
func fileToPublic(f *dataset.File) *Dataset {
	h := &f.Header
	d := &Dataset{Info: SourceInfo{
		Scenario: h.Scenario,
		Seed:     h.Seed,
		Start:    h.Start.UTC(),
		Days:     h.Days,
	}}
	for _, v := range h.Vantages {
		d.Info.Vantages = append(d.Info.Vantages, VantageInfo{ASN: ASN(v.ASN), Country: v.Country})
	}
	for _, t := range h.Targets {
		d.Info.Targets = append(d.Info.Targets, TargetInfo{URL: t.URL, Category: Category(t.Category), ASN: ASN(t.ASN)})
	}
	for _, m := range h.ASes {
		d.Info.ASes = append(d.Info.ASes, ASInfo{ASN: ASN(m.ASN), Name: m.Name, Country: m.Country, Class: m.Class})
	}
	for _, asn := range h.TruthCensors {
		d.Info.TruthCensors = append(d.Info.TruthCensors, ASN(asn))
	}
	d.Days = make([][]Measurement, len(f.Days))
	for day, batch := range f.Days {
		d.Days[day] = batch[:len(batch):len(batch)]
	}
	return d
}

// cloneDays deep-copies day batches into one day-ordered table: the
// copies share no slice with the originals, each day is a view of the
// table (so MergeShards over them copies nothing), and empty days stay
// nil. It is the one place records are copied across the public
// boundary, in both directions.
func cloneDays(days [][]Measurement) [][]Measurement {
	records := 0
	for _, batch := range days {
		records += len(batch)
	}
	table := make([]Measurement, 0, records)
	out := make([][]Measurement, len(days))
	for day, batch := range days {
		if len(batch) == 0 {
			continue
		}
		lo := len(table)
		table = append(table, batch...)
		for i := lo; i < len(table); i++ {
			r := &table[i]
			r.ASPath = append([]ASN(nil), r.ASPath...)
			r.TruePath = append([]ASN(nil), r.TruePath...)
			r.TrueActs = append([]TruthAct(nil), r.TrueActs...)
		}
		out[day] = table[lo:]
	}
	return out
}

// publicToFile converts an exported Dataset back to the internal file
// shape — the adapter every external Source implementation feeds. The
// file shares the Dataset's day batches, padded to the declared period in
// a new outer slice; the Dataset itself is left as it was.
func publicToFile(d *Dataset) (*dataset.File, error) {
	if d == nil {
		return nil, fmt.Errorf("churntomo: nil Dataset")
	}
	info := &d.Info
	days := info.Days
	if days == 0 {
		days = len(d.Days)
	}
	if days < len(d.Days) {
		return nil, fmt.Errorf("churntomo: dataset declares %d days but carries %d day batches", days, len(d.Days))
	}
	h := dataset.Header{
		Scenario: info.Scenario,
		Seed:     info.Seed,
		Start:    info.Start.UTC(),
		Days:     days,
	}
	for _, v := range info.Vantages {
		h.Vantages = append(h.Vantages, dataset.Vantage{ASN: uint32(v.ASN), Country: v.Country})
	}
	for _, t := range info.Targets {
		if int(t.Category) >= int(webcat.NumCategories) {
			return nil, fmt.Errorf("churntomo: dataset target %q carries unknown category %d", t.URL, t.Category)
		}
		h.Targets = append(h.Targets, dataset.Target{URL: t.URL, Category: uint8(t.Category), ASN: uint32(t.ASN)})
	}
	for _, m := range info.ASes {
		if _, ok := classByName[m.Class]; !ok {
			return nil, fmt.Errorf("churntomo: dataset AS%d carries unknown class %q", m.ASN, m.Class)
		}
		h.ASes = append(h.ASes, dataset.ASMeta{ASN: uint32(m.ASN), Name: m.Name, Country: m.Country, Class: m.Class})
	}
	for _, asn := range info.TruthCensors {
		h.TruthCensors = append(h.TruthCensors, uint32(asn))
	}
	f := &dataset.File{Header: h, Days: make([][]Measurement, days)}
	copy(f.Days, d.Days)
	return f, nil
}
