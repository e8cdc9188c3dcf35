package iclab

import (
	"math/rand/v2"
	"slices"
	"time"

	"churntomo/internal/anomaly"
	"churntomo/internal/censor"
	"churntomo/internal/detect"
	"churntomo/internal/dnssim"
	"churntomo/internal/httpsim"
	"churntomo/internal/netaddr"
	"churntomo/internal/routing"
	"churntomo/internal/topology"
	"churntomo/internal/traceroute"
	"churntomo/internal/webcat"
)

// TracesPerTest is the number of traceroutes taken per measurement (paper
// §3.1: "three traceroutes between the vantage point and the URL").
const TracesPerTest = 3

// GroundTruthAct records, for validation only, one censor that acted on a
// measurement and with which techniques.
type GroundTruthAct struct {
	ASN   topology.ASN
	Kinds anomaly.Set
}

// Record is one measurement: the tuple the paper's §3.1 lists (vantage AS,
// URL, anomaly outcomes, timestamp) plus the AS-level path inferred from
// the test's three traceroutes, or the reason none could be. Path
// inference consumes the traceroutes themselves; the record keeps only its
// result, as the dataset format does.
//
// A record is written once, where it is measured (Scenario.measure),
// decoded (package dataset) or copied from a caller's data, and is
// read-only afterwards: the CNF builders, the streaming engine, the churn
// summary and the exporters only read it, so its slices may be shared.
// Its position in the day-ordered sequence is its identity.
type Record struct {
	Vantage topology.ASN
	// PathID numbers ASPath within the record's table: records of one
	// table with equal paths share one ID and one backing array, IDs run
	// 1.. in first-seen table order (the empty path included), and 0 means
	// not numbered. Measurement, decode and a copy of a caller's data
	// number their table (NumberPaths); the CNF builders and the churn
	// summary read the ID instead of the path and panic on a conclusive
	// record without one. The field sits in Vantage's padding.
	PathID         int32
	VantageCountry string
	TargetASN      topology.ASN
	// TargetIdx indexes the scenario's Targets table (a decoded dataset's
	// header Targets), or is -1 when unknown; URL, Category and TargetASN
	// always name the target themselves.
	TargetIdx int32
	URL       string
	Category  webcat.Category
	At        time.Time

	// Anomalies holds the detector outcomes (never ground truth).
	Anomalies anomaly.Set
	// ASPath is the AS-level path inferred from the traceroutes via the
	// IP-to-AS database; nil when Fail != traceroute.OK.
	ASPath []topology.ASN
	Fail   traceroute.FailReason

	// Ground truth, for validation only — the tomography must not read
	// these fields. Empty for ingested real-world data, since the paper
	// had no ground truth either.
	TruePath    []topology.ASN
	TrueActs    []GroundTruthAct
	Unreachable bool // routing offered no path at measurement time
}

// PlatformConfig tunes the measurement schedule and noise.
type PlatformConfig struct {
	Seed uint64

	// Workers is how many day shards are measured concurrently. 0 uses
	// GOMAXPROCS (parallel.ForEach's default), 1 forces the serial path.
	// Output is bit-identical at any setting: every day derives its own
	// RNG stream via DaySeed, and shards are merged in day order.
	Workers int

	// URLsPerDay is how many URLs the fleet tests each day. Vantages are
	// synchronized (the fleet works through the list in lockstep), so each
	// tested URL gets clauses from every vantage that day — the paper's
	// per-URL CNFs depend on that breadth. Default 6.
	URLsPerDay int
	// RepeatsPerDay is how many times each (vantage, URL) pair is measured
	// on a testing day; repeats at different hours are what let a single
	// day observe path churn (Figure 3's per-day series). Default 2.
	RepeatsPerDay int

	Traceroute traceroute.Config
	HTTPNoise  httpsim.Noise
	DNSNoise   dnssim.Noise

	// MidTestChurnWindow is how far apart a test's traceroutes are spread;
	// a routing change inside the window yields disagreeing traces (the
	// paper's rule-4 eliminations). Default 10 minutes.
	MidTestChurnWindow time.Duration
}

func (c *PlatformConfig) fillDefaults() {
	if c.URLsPerDay == 0 {
		c.URLsPerDay = 6
	}
	if c.RepeatsPerDay == 0 {
		c.RepeatsPerDay = 2
	}
	if c.HTTPNoise == (httpsim.Noise{}) {
		c.HTTPNoise = httpsim.DefaultNoise()
	}
	if c.DNSNoise == (dnssim.Noise{}) {
		c.DNSNoise = dnssim.Noise{DupResponseProb: 0.0002, SlowInjectorProb: 0.001}
	}
	if c.MidTestChurnWindow == 0 {
		c.MidTestChurnWindow = 10 * time.Minute
	}
}

// pathRNG is a day scratch's reusable path-keyed RNG. The schedule
// derives a fresh deterministic stream per (seed, path) pair; re-seeding
// one PCG is state-identical to rand.NewPCG with the same words, so
// reusing the pair replaces two heap allocations per expansion with none
// while producing bit-identical streams. Never shared across goroutines.
type pathRNG struct {
	pcg rand.PCG
	rng *rand.Rand
}

func newPathRNG() *pathRNG {
	p := &pathRNG{}
	p.rng = rand.New(&p.pcg)
	return p
}

// seeded resets the stream to (a, b) and returns the shared Rand. The
// previous return value is invalidated; callers must finish consuming one
// stream before seeding the next.
func (p *pathRNG) seeded(a, b uint64) *rand.Rand {
	p.pcg.Seed(a, b)
	return p.rng
}

// dayScratch is the memory one measurement day works in: a routing View
// and every buffer a test fills and discards, plus the arena the day's
// records take their paths from. RunByDayCtx hands each day one from its
// free list and takes it back when the day ends, so a worker reuses one
// scratch for all the days it measures. Every buffer is overwritten
// before it is read, and the View is Reset between days, so nothing a day
// measures depends on which days the scratch served before.
type dayScratch struct {
	view  *routing.View
	pr    *pathRNG
	pages *pageVerdicts // the run's, shared read-only

	path   []int32              // the test's AS-index path
	alt    []int32              // the resolver's path, or a trace's
	asns   []topology.ASN       // the resolver path's ASNs
	exp    traceroute.Expansion // the test's path
	altExp traceroute.Expansion // the resolver's path, or a trace's that differs
	traces [TracesPerTest]traceroute.Trace
	infer  traceroute.Inferrer
	http   httpsim.Result
	segs   detect.Scratch // the HTTP detector's segment list
	dns    dnssim.Result
	inj    []httpsim.Injector
	dnsInj []dnssim.Injector
	cands  []fixedPage         // the test's candidate pages, target's first
	paths  Arena[topology.ASN] // the records' paths
}

func (s *Scenario) newDayScratch(pages *pageVerdicts) *dayScratch {
	return &dayScratch{view: s.Oracle.View(), pr: newPathRNG(), pages: pages}
}

// pcgStreamPlatform is the per-day measurement-schedule RNG stream word
// ("platform" in ASCII); stream words are module-unique, enforced by
// churnvet.
const pcgStreamPlatform = 0x706c6174666f726d // "platform"

// runDay measures one day's shard of the schedule in sc, writing its
// records into out, which holds exactly one day's records. Each day owns
// an RNG stream derived from (seed, day) alone, so shards are independent
// of execution order: the engine can run them serially or on a worker pool
// and merge identical records either way. The day routes through sc's
// View, which starts the day empty, and no other day touches it meanwhile.
func (s *Scenario) runDay(cfg PlatformConfig, day int, sc *dayScratch, out []Record) {
	at := s.Start.AddDate(0, 0, day)
	rng := rand.New(rand.NewPCG(DaySeed(cfg.Seed^s.Seed, day), pcgStreamPlatform))
	i := 0
	// The fleet works through the URL list in lockstep, URLsPerDay at a
	// time, wrapping around the list.
	for k := 0; k < cfg.URLsPerDay; k++ {
		ti := (day*cfg.URLsPerDay + k) % len(s.Targets)
		target := &s.Targets[ti]
		for vi := range s.Vantages {
			v := &s.Vantages[vi]
			for r := 0; r < cfg.RepeatsPerDay; r++ {
				// Spread repeats across the day (early morning / late
				// evening) so intra-day churn is observable.
				hour := (4 + r*15 + rng.IntN(4)) % 24
				when := at.Add(time.Duration(hour)*time.Hour + time.Duration(rng.IntN(3600))*time.Second)
				// Under ECMP each measurement is one flow: it hashes onto
				// a forwarding plane and every packet of the test (HTTP,
				// DNS, the paris-style traceroutes) follows it. The guard
				// keeps single-plane runs off the extra RNG draw, so they
				// stay byte-identical to a plane-unaware platform.
				var plane int32
				if s.ECMPPaths > 1 {
					plane = int32(rng.IntN(s.ECMPPaths))
				}
				out[i] = s.measure(v, target, int32(ti), when, plane, cfg, rng, sc)
				i++
			}
		}
	}
}

// measure runs one full test: DNS via two resolvers, HTTP with capture
// analysis, blockpage comparison, and three traceroutes, routing through
// the day's View and filling the day's buffers. The record's paths are
// carved from the day's arena; an inferred path equal to the true one
// shares its array.
func (s *Scenario) measure(v *Vantage, target *Target, targetIdx int32,
	at time.Time, plane int32, cfg PlatformConfig, rng *rand.Rand, sc *dayScratch) Record {
	rec := Record{
		Vantage:        v.ASN,
		VantageCountry: v.Country,
		TargetASN:      target.ASN,
		TargetIdx:      targetIdx,
		URL:            target.URL.Host,
		Category:       target.URL.Category,
		At:             at,
	}

	idxPath, ok := sc.view.AppendPath(sc.path[:0], v.Idx, target.Idx, at, plane)
	sc.path = idxPath
	if !ok {
		// No route: every sub-test errors out; the record is eliminated by
		// rule 2 during clause construction.
		rec.Fail = traceroute.ErrTraceFailed
		rec.Unreachable = true
		return rec
	}
	asnPath := s.Oracle.AppendASNs(sc.paths.Take(len(idxPath))[:0], idxPath)
	rec.TruePath = asnPath

	// The router-level expansion is derived from a path-keyed RNG: the same
	// AS path always yields the same hop distances, so middlebox
	// detectability is a stable property of a path rather than a
	// per-measurement coin flip (see censor.Behavior's doc).
	exp := &sc.exp
	traceroute.Expand(s.Graph, idxPath, target.IP, sc.pr.seeded(s.Seed^0x657870, pathHash(idxPath)), exp)

	active := s.Censors.ActiveOn(asnPath, target.URL.Category, at)

	// --- DNS test: default resolver (inside the vantage AS) and the open
	// anycast resolver, mirroring ICLab's dual-resolver methodology.
	if s.dnsTest(&rec, v, target, at, plane, active, cfg, rng, sc) {
		rec.Anomalies = rec.Anomalies.Add(anomaly.DNS)
	}

	// --- HTTP test with packet capture analysis. The body's candidate
	// pages are the target's and those the Block injectors serve.
	injectors := sc.inj[:0]
	cands := append(sc.cands[:0], fixedPage{target.Body, sc.pages.targets[targetIdx]})
	for _, act := range active {
		for _, k := range act.Techniques.Members() {
			if k == anomaly.DNS {
				continue
			}
			b := act.Policy.Behavior
			inj := httpsim.Injector{
				ASN:       uint32(act.ASN),
				Dist:      exp.DistOfAS(act.PathIndex),
				Technique: k,
				InitTTL:   b.InitTTL,
				SeqSkew:   b.SeqSkew,
				InPath:    b.InPath,
				MimicTTL:  b.MimicTTL,
				KillsConn: b.KillsConn,
			}
			if k == anomaly.Block {
				key := pageKey{b.Blockpage, act.Policy.Country}
				inj.Blockpage = s.blockpages[key]
				cands = append(cands, fixedPage{inj.Blockpage, sc.pages.blocks[key]})
			}
			injectors = append(injectors, inj)
		}
		if len(act.Techniques.Members()) > 0 {
			rec.TrueActs = append(rec.TrueActs, GroundTruthAct{ASN: act.ASN, Kinds: act.Techniques})
		}
	}
	sc.inj, sc.cands = injectors, cands
	res := &sc.http
	httpsim.Simulate(httpsim.Params{
		At:         at.Add(2 * time.Second),
		ClientIP:   v.IP,
		ServerIP:   target.IP,
		Host:       target.URL.Host,
		ServerDist: exp.ServerDist(),
		ServerTTL:  target.ServerTTL,
		Body:       target.Body,
	}, injectors, cfg.HTTPNoise, rng, res)
	verdict := detect.HTTP(&res.Capture, v.IP, target.IP, &sc.segs)
	if verdict.TTL {
		rec.Anomalies = rec.Anomalies.Add(anomaly.TTL)
	}
	if verdict.SEQ {
		rec.Anomalies = rec.Anomalies.Add(anomaly.SEQ)
	}
	if verdict.RST {
		rec.Anomalies = rec.Anomalies.Add(anomaly.RST)
	}
	if sc.pages.blockpage(res.Body, res.BaselineLen, cands) {
		rec.Anomalies = rec.Anomalies.Add(anomaly.Block)
	}

	// --- Three traceroutes, spread across a small window so genuine
	// routing changes occasionally split them (rule-4 eliminations).
	traces := sc.traces[:]
	for i := range traces {
		traceAt := at.Add(time.Duration(i) * cfg.MidTestChurnWindow / TracesPerTest)
		tIdxPath, tok := sc.view.AppendPath(sc.alt[:0], v.Idx, target.Idx, traceAt, plane)
		sc.alt = tIdxPath
		if !tok {
			traces[i] = traceroute.Trace{Err: true, Hops: traces[i].Hops[:0]}
			continue
		}
		tExp := exp
		if !slices.Equal(tIdxPath, idxPath) {
			tExp = &sc.altExp
			traceroute.Expand(s.Graph, tIdxPath, target.IP, sc.pr.seeded(s.Seed^0x657870, pathHash(tIdxPath)), tExp)
		}
		traceroute.Probe(tExp, cfg.Traceroute, rng, &traces[i])
	}
	path, why := sc.infer.Consensus(traces, s.DB.At(at), v.ASN)
	if rec.Fail = why; why == traceroute.OK {
		rec.ASPath = asnPath
		if !slices.Equal(path, asnPath) {
			rec.ASPath = append(sc.paths.Take(len(path))[:0], path...)
		}
	}
	return rec
}

// dnsTest runs the dual-resolver lookup, reporting a DNS anomaly from
// either capture, and appends the ground-truth injecting censors to
// rec.TrueActs. Note the attribution mismatch this preserves from the
// paper: injection happens on the resolver path, but the clause built
// from this record uses the URL path — a censor on one and not the other
// is methodological noise.
func (s *Scenario) dnsTest(rec *Record, v *Vantage, target *Target, at time.Time, plane int32,
	activeOnDest []censor.Active, cfg PlatformConfig, rng *rand.Rand, sc *dayScratch) bool {
	// Default resolver: lives inside the vantage AS, so only vantage-AS
	// censors see the query.
	defResolver := s.Graph.HostIP(v.Idx, 9)
	defInjectors := sc.dnsInj[:0]
	for _, act := range activeOnDest {
		if act.PathIndex == 0 && act.Techniques.Has(anomaly.DNS) {
			defInjectors = append(defInjectors, dnssim.Injector{
				ASN: uint32(act.ASN), Dist: 1,
				Answer:  sinkholeFor(act.ASN),
				InitTTL: act.Policy.Behavior.InitTTL,
			})
		}
	}
	for _, inj := range defInjectors {
		rec.TrueActs = append(rec.TrueActs, GroundTruthAct{ASN: topology.ASN(inj.ASN), Kinds: anomaly.MakeSet(anomaly.DNS)})
	}
	dns := &sc.dns
	dnssim.Simulate(dnssim.Params{
		At: at, ClientIP: v.IP, ResolverIP: defResolver, Host: target.URL.Host,
		QueryID: uint16(rng.Uint32()), ResolverDist: 2, TrueAnswer: target.IP,
		ResolverTTL: 64,
	}, defInjectors, cfg.DNSNoise, rng, dns)
	sc.dnsInj = defInjectors
	if detect.DNSDual(&dns.Capture, v.IP) {
		return true
	}

	// Open resolver: the query transits the path toward the anycast AS;
	// DNS censors along it inject.
	rIdxPath, ok := sc.view.AppendPath(sc.alt[:0], v.Idx, s.ResolverIdx, at, plane)
	sc.alt = rIdxPath
	if !ok {
		return false // resolver unreachable; no data
	}
	sc.asns = s.Oracle.AppendASNs(sc.asns[:0], rIdxPath)
	rExp := &sc.altExp
	traceroute.Expand(s.Graph, rIdxPath, s.Graph.ResolverIP, sc.pr.seeded(s.Seed^0x657870, pathHash(rIdxPath)), rExp)
	openInjectors := sc.dnsInj[:0]
	for _, act := range s.Censors.ActiveOn(sc.asns, target.URL.Category, at) {
		if act.Techniques.Has(anomaly.DNS) {
			openInjectors = append(openInjectors, dnssim.Injector{
				ASN: uint32(act.ASN), Dist: rExp.DistOfAS(act.PathIndex),
				Answer:  sinkholeFor(act.ASN),
				InitTTL: act.Policy.Behavior.InitTTL,
			})
		}
	}
	for _, inj := range openInjectors {
		rec.TrueActs = append(rec.TrueActs, GroundTruthAct{ASN: topology.ASN(inj.ASN), Kinds: anomaly.MakeSet(anomaly.DNS)})
	}
	dnssim.Simulate(dnssim.Params{
		At: at.Add(time.Second), ClientIP: v.IP, ResolverIP: s.Graph.ResolverIP,
		Host: target.URL.Host, QueryID: uint16(rng.Uint32()),
		ResolverDist: rExp.ServerDist(), TrueAnswer: target.IP, ResolverTTL: 64,
	}, openInjectors, cfg.DNSNoise, rng, dns)
	sc.dnsInj = openInjectors
	return detect.DNSDual(&dns.Capture, v.IP)
}

// sinkholeFor derives a censor's DNS sinkhole address.
func sinkholeFor(asn topology.ASN) netaddr.IP {
	return netaddr.MakeIP(10, byte(asn>>8), byte(asn), 1)
}

// pathHash folds an AS-index path into a 64-bit seed.
func pathHash(path []int32) uint64 {
	h := uint64(1469598103934665603)
	for _, p := range path {
		h ^= uint64(uint32(p))
		h *= 1099511628211
	}
	return h
}
