package routing

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"churntomo/internal/topology"
)

// EventKind discriminates churn events.
type EventKind uint8

// Churn event kinds.
const (
	// LinkDown takes an inter-AS link out of service.
	LinkDown EventKind = iota
	// LinkUp restores a failed link.
	LinkUp
	// PolicyShift re-rolls one AS's tie-break salt, modeling an intra-policy
	// routing change (local-pref tweak, IGP cost change) that moves traffic
	// without any failure.
	PolicyShift
)

// Event is one churn event.
type Event struct {
	At   time.Time
	Kind EventKind
	Link int32  // LinkDown/LinkUp
	AS   int32  // PolicyShift: AS index
	Salt uint64 // PolicyShift: new salt
}

// epoch is a maximal interval with constant routing state.
type epoch struct {
	at   time.Time
	down []int32 // sorted link IDs out of service
}

type saltChange struct {
	epoch int32
	salt  uint64
}

// linkFlip is one link whose up/down state differs between an epoch and
// the one before it; down is its state in the later epoch.
type linkFlip struct {
	link int32
	down bool
}

// saltFlip is one AS whose policy salt differs between an epoch and the
// one before it. xor is the difference, so applying it moves a salt either
// way across the boundary.
type saltFlip struct {
	epoch, as int32
	xor       uint64
}

// Timeline is a precomputed churn schedule over [Start, End). Routing state
// is constant within an epoch; epochs change at event times.
type Timeline struct {
	Start, End time.Time

	events  []Event
	epochs  []epoch
	starts  []instant              // each epoch's start, as EpochAt searches it
	salts   map[int32][]saltChange // per-AS policy shifts, by epoch
	base    uint64                 // base salt mixed into every AS
	nevents int

	// Each epoch's net change from the one before, for walking one
	// routing state across epochs: epoch e's flips are
	// flips[flipAt[e]:flipAt[e+1]] and shifts[shiftAt[e]:shiftAt[e+1]].
	// Epoch 0 has none.
	flips   []linkFlip
	flipAt  []int32
	shifts  []saltFlip // sorted by (epoch, AS)
	shiftAt []int32
}

// TimelineConfig parameterizes churn generation.
type TimelineConfig struct {
	Seed       uint64
	Start, End time.Time

	// FailuresPerLinkYear is the expected number of failures each link
	// suffers per year for stable links. Default 6; see FlappyFrac for
	// the unstable tail.
	FailuresPerLinkYear float64
	// MeanOutage is the mean outage duration. Default 8h. Durations are
	// exponential, clamped to [15m, 7d].
	MeanOutage time.Duration
	// PolicyShiftsPerASYear is the expected number of tie-break re-rolls
	// per AS per year. Default 15.
	PolicyShiftsPerASYear float64

	// FlappyFrac is the fraction of links that are chronically unstable
	// (damaged fiber, congested exchanges); FlappyMult scales their failure
	// rate. Heavy-tailed instability is what lets a quarter of pairs change
	// paths within a day (Figure 3) without every pair churning monthly.
	// Flappy outages are short (mean 1/4 of MeanOutage): flaps, not
	// maintenance windows. Defaults: 0.2 and 90 — a flappy link is down
	// roughly an eighth of the time, which is what makes a quarter of
	// pairs change paths within a day as the paper observes.
	FlappyFrac float64
	FlappyMult float64

	// Outages schedules correlated regional failure bursts on top of the
	// independent per-link churn (a cable cut, a blackout, a hurricane).
	// Empty means none, which leaves the generated timeline bit-identical
	// to one built without the field.
	Outages []RegionalOutage

	// Waves schedules correlated policy-shift bursts: BGP routing changes
	// that move many paths at one instant without any link failing — the
	// routing-induced-change regime where a fixed censor sees its
	// observing paths reshuffled mid-timeline. Empty means none, which
	// leaves the generated timeline bit-identical to one built without
	// the field.
	Waves []PolicyWave
}

// RegionalOutage is one correlated failure burst: at Start + At*(End-Start)
// a Frac-sized random subset of the links touching Region fails, and every
// failed link recovers together after Duration. Correlated failures are
// what distinguish a regional incident from background churn — they shift
// many paths at once, giving the tomography a very different measurement
// mix than independent flaps.
type RegionalOutage struct {
	Region   topology.Region
	At       float64       // burst position as a fraction of the span, in [0, 1)
	Duration time.Duration // how long the burst lasts; must be > 0
	Frac     float64       // fraction of the region's links taken down, in (0, 1]
}

// PolicyWave is one correlated policy-shift burst: at Start + At*(End-Start)
// a Frac-sized random subset of all ASes simultaneously re-rolls its
// tie-break salt, modeling a wave of BGP updates (a provider repricing, an
// IXP policy change, a route-leak cleanup) that redraws many paths at one
// epoch boundary. Unlike a RegionalOutage nothing fails: connectivity is
// unchanged, only path selection moves — which is exactly the regime where
// a *fixed* censor's set of observing paths churns under it.
type PolicyWave struct {
	At   float64 // burst position as a fraction of the span, in [0, 1)
	Frac float64 // fraction of ASes re-rolling their salt, in (0, 1]
}

func (c *TimelineConfig) fillDefaults() {
	if c.FailuresPerLinkYear == 0 {
		c.FailuresPerLinkYear = 6
	}
	if c.MeanOutage == 0 {
		c.MeanOutage = 8 * time.Hour
	}
	if c.PolicyShiftsPerASYear == 0 {
		c.PolicyShiftsPerASYear = 15
	}
	if c.FlappyFrac == 0 {
		c.FlappyFrac = 0.25
	}
	if c.FlappyMult == 0 {
		c.FlappyMult = 140
	}
}

// The timeline generator's RNG stream words (ASCII mnemonics). Outage
// bursts, policy waves, and the salt base each get a dedicated stream so
// the background churn stays byte-identical whether or not those
// features are scheduled; stream words are module-unique, enforced by
// churnvet.
const (
	pcgStreamChurn   = 0x636875726e     // "churn"
	pcgStreamOutages = 0x6f757461676573 // "outages"
	pcgStreamWaves   = 0x7761766573     // "waves"
	pcgStreamSalt    = 0x73616c74       // "salt"
)

// GenTimeline builds a churn timeline for g. Identical inputs produce
// identical timelines.
func GenTimeline(g *topology.Graph, cfg TimelineConfig) (*Timeline, error) {
	cfg.fillDefaults()
	if !cfg.Start.Before(cfg.End) {
		return nil, fmt.Errorf("routing: timeline start %v not before end %v", cfg.Start, cfg.End)
	}
	for i, o := range cfg.Outages {
		if o.At < 0 || o.At >= 1 {
			return nil, fmt.Errorf("routing: outage %d: At %v outside [0, 1)", i, o.At)
		}
		if o.Frac <= 0 || o.Frac > 1 {
			return nil, fmt.Errorf("routing: outage %d: Frac %v outside (0, 1]", i, o.Frac)
		}
		if o.Duration <= 0 {
			return nil, fmt.Errorf("routing: outage %d: Duration %v must be > 0", i, o.Duration)
		}
	}
	for i, w := range cfg.Waves {
		if w.At < 0 || w.At >= 1 {
			return nil, fmt.Errorf("routing: wave %d: At %v outside [0, 1)", i, w.At)
		}
		if w.Frac <= 0 || w.Frac > 1 {
			return nil, fmt.Errorf("routing: wave %d: Frac %v outside (0, 1]", i, w.Frac)
		}
	}
	// Wall-clock instants only: with no monotonic reading on the
	// timeline's times, time.Time.After orders any time against them by
	// wall clock, the order EpochAt's integer search reproduces.
	cfg.Start, cfg.End = cfg.Start.Round(0), cfg.End.Round(0)
	rng := rand.New(rand.NewPCG(cfg.Seed, pcgStreamChurn))
	span := cfg.End.Sub(cfg.Start)
	years := span.Hours() / (365 * 24)

	var events []Event

	// Link failures: Poisson arrivals per link, exponential outages.
	// A small set of flappy links carries most of the instability.
	for _, link := range g.Links {
		rate := cfg.FailuresPerLinkYear
		meanOutage := cfg.MeanOutage
		if rng.Float64() < cfg.FlappyFrac {
			rate *= cfg.FlappyMult
			meanOutage /= 4
		}
		n := poisson(rng, rate*years)
		for i := 0; i < n; i++ {
			at := cfg.Start.Add(time.Duration(rng.Float64() * float64(span)))
			dur := time.Duration(rng.ExpFloat64() * float64(meanOutage))
			if dur < 15*time.Minute {
				dur = 15 * time.Minute
			}
			if dur > 7*24*time.Hour {
				dur = 7 * 24 * time.Hour
			}
			events = append(events, Event{At: at, Kind: LinkDown, Link: link.ID})
			upAt := at.Add(dur)
			if upAt.Before(cfg.End) {
				events = append(events, Event{At: upAt, Kind: LinkUp, Link: link.ID})
			}
		}
	}

	// Policy shifts.
	for i := range g.ASes {
		n := poisson(rng, cfg.PolicyShiftsPerASYear*years)
		for k := 0; k < n; k++ {
			at := cfg.Start.Add(time.Duration(rng.Float64() * float64(span)))
			events = append(events, Event{At: at, Kind: PolicyShift, AS: int32(i), Salt: rng.Uint64()})
		}
	}

	// Regional outage bursts. A dedicated RNG keeps the background churn
	// above byte-identical whether or not bursts are scheduled.
	if len(cfg.Outages) > 0 {
		orng := rand.New(rand.NewPCG(cfg.Seed, pcgStreamOutages))
		for _, o := range cfg.Outages {
			at := cfg.Start.Add(time.Duration(o.At * float64(span)))
			for _, link := range g.Links {
				if g.ASes[link.A].Region != o.Region && g.ASes[link.B].Region != o.Region {
					continue
				}
				if orng.Float64() >= o.Frac {
					continue
				}
				events = append(events, Event{At: at, Kind: LinkDown, Link: link.ID})
				if upAt := at.Add(o.Duration); upAt.Before(cfg.End) {
					events = append(events, Event{At: upAt, Kind: LinkUp, Link: link.ID})
				}
			}
		}
	}

	// Policy-shift waves. Like outage bursts, a dedicated RNG keeps the
	// background churn above byte-identical whether or not waves are
	// scheduled.
	if len(cfg.Waves) > 0 {
		wrng := rand.New(rand.NewPCG(cfg.Seed, pcgStreamWaves))
		for _, w := range cfg.Waves {
			at := cfg.Start.Add(time.Duration(w.At * float64(span)))
			for i := range g.ASes {
				if wrng.Float64() >= w.Frac {
					continue
				}
				events = append(events, Event{At: at, Kind: PolicyShift, AS: int32(i), Salt: wrng.Uint64()})
			}
		}
	}

	sort.Slice(events, func(i, j int) bool {
		if !events[i].At.Equal(events[j].At) {
			return events[i].At.Before(events[j].At)
		}
		// Deterministic order for simultaneous events.
		if events[i].Kind != events[j].Kind {
			return events[i].Kind < events[j].Kind
		}
		return events[i].Link < events[j].Link
	})

	tl := &Timeline{
		Start:   cfg.Start,
		End:     cfg.End,
		events:  events,
		salts:   make(map[int32][]saltChange),
		base:    rand.New(rand.NewPCG(cfg.Seed, pcgStreamSalt)).Uint64(),
		nevents: len(events),
	}
	tl.buildEpochs(g)
	tl.buildDeltas()
	tl.starts = make([]instant, len(tl.epochs))
	for i := range tl.epochs {
		tl.starts[i] = instantOf(tl.epochs[i].at)
	}
	return tl, nil
}

// buildEpochs sweeps the event list into constant-state intervals. It
// keeps each link's concurrent failure count and the sorted list of the
// links that are down, and gives each epoch a copy of that list as it
// stands after the epoch's last event.
func (tl *Timeline) buildEpochs(g *topology.Graph) {
	failures := make([]int32, len(g.Links)) // by link ID
	var down []int32                        // sorted links with failures
	tl.epochs = append(tl.epochs, epoch{at: tl.Start})
	for k, ev := range tl.events {
		switch ev.Kind {
		case LinkDown:
			if failures[ev.Link]++; failures[ev.Link] == 1 {
				i, _ := slices.BinarySearch(down, ev.Link)
				down = slices.Insert(down, i, ev.Link)
			}
		case LinkUp:
			if failures[ev.Link] > 0 {
				if failures[ev.Link]--; failures[ev.Link] == 0 {
					i, _ := slices.BinarySearch(down, ev.Link)
					down = slices.Delete(down, i, i+1)
				}
			}
		case PolicyShift:
			epochID := int32(len(tl.epochs)) // the epoch about to be created
			if ev.At.Equal(tl.epochs[len(tl.epochs)-1].at) {
				// A shift sharing its instant with an earlier event (a
				// correlated wave, or a shift landing exactly on tl.Start)
				// merges into that epoch instead of opening a new one; its
				// salt must take effect there, not one boundary later.
				epochID = int32(len(tl.epochs) - 1)
			}
			tl.salts[ev.AS] = append(tl.salts[ev.AS], saltChange{epoch: epochID, salt: ev.Salt})
			// Fall through to creating an epoch boundary below.
		}
		if !ev.At.Equal(tl.epochs[len(tl.epochs)-1].at) {
			tl.epochs = append(tl.epochs, epoch{at: ev.At})
		}
		if k+1 == len(tl.events) || !tl.events[k+1].At.Equal(ev.At) {
			tl.epochs[len(tl.epochs)-1].down = append(make([]int32, 0, len(down)), down...)
		}
	}
}

// buildDeltas records every epoch's net change from the one before. The
// link part diffs consecutive down lists, so a failure of an already-down
// link, or a down and up at the same instant, is no change. The salt part
// keeps the last shift of each AS in each epoch, since that one wins.
func (tl *Timeline) buildDeltas() {
	n := len(tl.epochs)
	tl.flipAt = make([]int32, n+1)
	for e := 1; e < n; e++ {
		tl.flipAt[e] = int32(len(tl.flips))
		prev, cur := tl.epochs[e-1].down, tl.epochs[e].down
		i, j := 0, 0
		for i < len(prev) || j < len(cur) {
			switch {
			case j == len(cur) || i < len(prev) && prev[i] < cur[j]:
				tl.flips = append(tl.flips, linkFlip{link: prev[i], down: false})
				i++
			case i == len(prev) || cur[j] < prev[i]:
				tl.flips = append(tl.flips, linkFlip{link: cur[j], down: true})
				j++
			default:
				i, j = i+1, j+1
			}
		}
	}
	tl.flipAt[n] = int32(len(tl.flips))

	for as, changes := range tl.salts {
		var prev uint64 // the shift in force before each epoch; 0 is the base salt
		for k, c := range changes {
			if k+1 < len(changes) && changes[k+1].epoch == c.epoch {
				continue
			}
			if c.epoch > 0 && c.salt != prev {
				tl.shifts = append(tl.shifts, saltFlip{epoch: c.epoch, as: as, xor: prev ^ c.salt})
			}
			prev = c.salt
		}
	}
	sort.Slice(tl.shifts, func(i, j int) bool {
		a, b := tl.shifts[i], tl.shifts[j]
		return a.epoch < b.epoch || a.epoch == b.epoch && a.as < b.as
	})
	tl.shiftAt = make([]int32, n+1)
	k := 0
	for e := range tl.shiftAt {
		for k < len(tl.shifts) && int(tl.shifts[k].epoch) < e {
			k++
		}
		tl.shiftAt[e] = int32(k)
	}
}

// linkFlips returns the links whose state changes at the boundary into
// epoch e, with their state in e.
func (tl *Timeline) linkFlips(e int32) []linkFlip { return tl.flips[tl.flipAt[e]:tl.flipAt[e+1]] }

// saltFlips returns the ASes whose salt changes at the boundary into
// epoch e.
func (tl *Timeline) saltFlips(e int32) []saltFlip { return tl.shifts[tl.shiftAt[e]:tl.shiftAt[e+1]] }

// flipsAcross returns, as one contiguous range each, the link flips and
// salt flips of every boundary between epochs a and b, in either order:
// the boundaries into epochs min(a, b)+1 through max(a, b), in timeline
// order. A link flips at most once per boundary but may flip at several.
func (tl *Timeline) flipsAcross(a, b int32) ([]linkFlip, []saltFlip) {
	lo, hi := min(a, b)+1, max(a, b)+1
	return tl.flips[tl.flipAt[lo]:tl.flipAt[hi]], tl.shifts[tl.shiftAt[lo]:tl.shiftAt[hi]]
}

// flipsBetween counts the flips a walk from epoch a to epoch b applies.
func (tl *Timeline) flipsBetween(a, b int32) int {
	flips, shifts := tl.flipsAcross(a, b)
	return len(flips) + len(shifts)
}

// NumEpochs returns the number of constant-routing-state intervals.
func (tl *Timeline) NumEpochs() int { return len(tl.epochs) }

// NumEvents returns the number of generated churn events.
func (tl *Timeline) NumEvents() int { return tl.nevents }

// EpochAt returns the epoch index covering t (clamped to the timeline).
// It binary-searches the epochs' starts as integers, in the order
// time.Time.After gives times without a monotonic reading, which the
// timeline's own never carry (GenTimeline strips it): so the answer is
// After's for every t, before, inside or after the timeline.
func (tl *Timeline) EpochAt(t time.Time) int32 {
	return tl.epochOf(instantOf(t))
}

// epochNear is EpochAt(t) for a caller whose last answer was hint: it
// checks hint's epoch before it searches, since a caller's queries
// cluster in time (a test asks its own path, the resolver's and its
// first trace's at one instant).
func (tl *Timeline) epochNear(t time.Time, hint int32) int32 {
	k := instantOf(t)
	if h := int(hint); h >= 0 && h < len(tl.starts) && !tl.starts[h].after(k) &&
		(h+1 == len(tl.starts) || tl.starts[h+1].after(k)) {
		return hint
	}
	return tl.epochOf(k)
}

// epochOf returns the last epoch starting at or before k, or 0 when
// every epoch starts after it.
func (tl *Timeline) epochOf(k instant) int32 {
	lo, hi := 0, len(tl.starts) // the first epoch starting after k lies in [lo, hi]
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); tl.starts[m].after(k) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return int32(max(lo-1, 0))
}

// instant is a time as an integer pair that orders as time.Time.After
// orders times without monotonic readings: seconds, then nanoseconds.
type instant struct {
	sec  int64
	nsec int32
}

// after reports whether a is later than b.
func (a instant) after(b instant) bool { return a.sec > b.sec || a.sec == b.sec && a.nsec > b.nsec }

// unixToInternal is the number of seconds from January 1 of year 1 to
// the Unix epoch, the offset between time.Time's own second count and
// its Unix seconds.
const unixToInternal = 62135596800

// instantOf returns t's instant. The seconds are time.Time's own count,
// from January 1 of year 1: Unix seconds shifted back by the offset,
// wrapping where that count wraps, so instants order exactly as After
// does, also where UnixNano would overflow (beyond about 292 years from
// 1970).
func instantOf(t time.Time) instant {
	return instant{sec: t.Unix() + unixToInternal, nsec: int32(t.Nanosecond())}
}

// DownLinks returns the sorted link IDs out of service during epoch ep. The
// returned slice must not be modified.
func (tl *Timeline) DownLinks(ep int32) []int32 { return tl.epochs[ep].down }

// LinkDownAt reports whether link is down during epoch ep.
func (tl *Timeline) LinkDownAt(link, ep int32) bool {
	down := tl.epochs[ep].down
	i := sort.Search(len(down), func(i int) bool { return down[i] >= link })
	return i < len(down) && down[i] == link
}

// EpochSalts fills salt[i] with SaltAt(i, ep) for every AS index i in one
// pass: the base salts are a pure function of the index, and only ASes
// with policy-shift history need the binary search. This is the bulk form
// a View builds its routing state from.
func (tl *Timeline) EpochSalts(ep int32, salt []uint64) {
	for i := range salt {
		salt[i] = tl.base ^ splitmix(uint64(uint32(i)))
	}
	for as, changes := range tl.salts {
		if int(as) >= len(salt) {
			continue
		}
		i := sort.Search(len(changes), func(i int) bool { return changes[i].epoch > ep })
		if i > 0 {
			salt[as] ^= changes[i-1].salt
		}
	}
}

// SaltAt returns the policy salt of AS index as during epoch ep.
func (tl *Timeline) SaltAt(as, ep int32) uint64 {
	salt := tl.base ^ splitmix(uint64(uint32(as)))
	changes := tl.salts[as]
	// Last change at or before ep wins.
	i := sort.Search(len(changes), func(i int) bool { return changes[i].epoch > ep })
	if i > 0 {
		salt ^= changes[i-1].salt
	}
	return salt
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// poisson draws a Poisson variate; for large lambda it falls back to a
// normal approximation, which is fine for churn scheduling.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
