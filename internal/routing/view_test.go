package routing

// Model-based tests for Views and the timeline deltas they walk: every
// View answer, and every repaired tree, must equal ComputeTree on that
// epoch's state, built from the timeline's public accessors, in next hop,
// class and length; and a boundary that changes a tree must always count
// as touching it.

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"churntomo/internal/topology"
)

var viewStart = time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)

// viewWorld generates model world seed (1–6): 120–240 ASes over ten days.
// Even seeds add a regional outage burst and two policy waves, all at one
// instant; every third seed raises policy shifts to 400 per AS-year.
func viewWorld(t testing.TB, seed uint64) (*topology.Graph, *Timeline) {
	t.Helper()
	g := graph(t, 100+seed, 120+int(seed%6)*24)
	cfg := TimelineConfig{Seed: seed, Start: viewStart, End: viewStart.AddDate(0, 0, 10)}
	if seed%2 == 0 {
		cfg.Outages = []RegionalOutage{{Region: g.ASes[len(g.ASes)/2].Region, At: 0.4, Duration: 6 * time.Hour, Frac: 0.5}}
		cfg.Waves = []PolicyWave{{At: 0.4, Frac: 0.3}, {At: 0.4, Frac: 0.2}}
	}
	if seed%3 == 0 {
		cfg.PolicyShiftsPerASYear = 400
	}
	tl, err := GenTimeline(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, tl
}

// checkView answers queries on v and fails on the first answer that
// differs from ComputeTree in any route's next hop, class or length: a
// View's trees seed its later repairs and reuse decisions, so all three
// must be exact. It returns the trees v built for the queries.
func checkView(t *testing.T, v *View, queries []runKeyAt) int {
	t.Helper()
	g, tl := v.o.G, v.o.TL
	before := v.computed
	for i, q := range queries {
		down, salt := epochState(g, tl, q.ep)
		want := ComputeTree(g, q.dst, down, salt, planeSalt(q.plane), Routes{})
		if got := v.routesAt(q.dst, q.ep, q.plane); !sameRoutes(got, want) {
			t.Fatalf("query %d (dst %d, epoch %d, plane %d): View routes differ from ComputeTree",
				i, q.dst, q.ep, q.plane)
		}
	}
	return v.computed - before
}

func sameRoutes(a, b Routes) bool {
	return slices.Equal(a.Tree, b.Tree) && slices.Equal(a.class, b.class) && slices.Equal(a.dist, b.dist)
}

type runKeyAt struct{ dst, ep, plane int32 }

func TestViewMatchesComputeTree(t *testing.T) {
	answered, computed := 0, 0
	for seed := uint64(1); seed <= 6; seed++ {
		g, tl := viewWorld(t, seed)
		rng := rand.New(rand.NewPCG(seed, 0x76696577)) // "view"
		dsts := make([]int32, 8)
		for i := range dsts {
			dsts[i] = rng.Int32N(int32(len(g.ASes)))
		}
		n := int32(tl.NumEpochs())
		queries := make([]runKeyAt, 4000)
		for i := range queries {
			ep := rng.Int32N(n)
			if i%2 == 0 { // near mid-timeline, so runs grow both ways
				ep = min(max(n/2-20+rng.Int32N(41), 0), n-1)
			}
			queries[i] = runKeyAt{dsts[rng.IntN(len(dsts))], ep, rng.Int32N(3)}
		}
		rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
		c := checkView(t, NewOracle(g, tl, 0).View(), queries)
		if c >= len(queries) {
			t.Errorf("world %d: the View computed %d trees for %d queries; no run ever grew", seed, c, len(queries))
		}
		answered += len(queries)
		computed += c
	}
	t.Logf("%d queries answered with %d tree computes", answered, computed)
}

// TestViewResetMatchesFresh serves day-long windows of queries from one
// View with a Reset between them, as a measurement worker serves its
// days, and checks every answer against a fresh View's and ComputeTree
// in next hop, class and length. Every other window straddles the
// instant where even worlds burst, so trees built across a regional
// outage and two policy waves land in storage an earlier window's trees
// left. The recycled View must build exactly the trees the fresh Views
// build, by Oracle.Stats.
func TestViewResetMatchesFresh(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g, tl := viewWorld(t, seed)
		shared, fresh := NewOracle(g, tl, 0), NewOracle(g, tl, 0)
		v := shared.View()
		rng := rand.New(rand.NewPCG(seed, 0x7265736574)) // "reset"
		dsts := make([]int32, 6)
		for i := range dsts {
			dsts[i] = rng.Int32N(int32(len(g.ASes)))
		}
		burst := viewStart.Add(4 * 24 * time.Hour) // At 0.4 of ten days
		for w := range 8 {
			from := viewStart.Add(time.Duration(rng.Int64N(int64(9 * 24 * time.Hour))))
			if w%2 == 0 {
				from = burst.Add(-time.Duration(1 + rng.Int64N(int64(23*time.Hour))))
			}
			lo, hi := tl.EpochAt(from), tl.EpochAt(from.Add(24*time.Hour))
			fv := fresh.View()
			for i := range 300 {
				q := runKeyAt{dsts[rng.IntN(len(dsts))], lo + rng.Int32N(hi-lo+1), rng.Int32N(3)}
				down, salt := epochState(g, tl, q.ep)
				ref := ComputeTree(g, q.dst, down, salt, planeSalt(q.plane), Routes{})
				if want := fv.routesAt(q.dst, q.ep, q.plane); !sameRoutes(want, ref) {
					t.Fatalf("world %d, window %d, query %d: a fresh View differs from ComputeTree", seed, w, i)
				}
				if got := v.routesAt(q.dst, q.ep, q.plane); !sameRoutes(got, ref) {
					t.Fatalf("world %d, window %d, query %d (dst %d, epoch %d, plane %d): the recycled View differs from ComputeTree",
						seed, w, i, q.dst, q.ep, q.plane)
				}
			}
			v.Reset()
		}
		_, got := shared.Stats()
		_, want := fresh.Stats()
		if got != want {
			t.Errorf("world %d: the recycled View built %d trees, the fresh Views %d", seed, got, want)
		}
	}
}

// TestTimelineDeltas walks one routing state across every epoch, forward
// from epoch 0 and backward from the last, and checks it against
// DownLinks and EpochSalts at each step. Every flip must change the
// state, so a failure of an already-down link or a same-instant down and
// up is no flip. The worlds include same-instant outage and wave events
// and, in the last, a wave landing exactly on Start.
func TestTimelineDeltas(t *testing.T) {
	worlds := make([]*Timeline, 0, 7)
	graphs := make([]*topology.Graph, 0, 7)
	for seed := uint64(1); seed <= 6; seed++ {
		g, tl := viewWorld(t, seed)
		graphs, worlds = append(graphs, g), append(worlds, tl)
	}
	g := graph(t, 107, 150)
	tl, err := GenTimeline(g, TimelineConfig{Seed: 7, Start: viewStart, End: viewStart.AddDate(0, 0, 10),
		Waves: []PolicyWave{{At: 0, Frac: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	_, salt0 := epochState(g, tl, 0)
	shifted := 0
	for as, s := range salt0 {
		if s != tl.base^splitmix(uint64(as)) {
			shifted++
		}
	}
	if shifted < len(g.ASes)/4 {
		t.Fatalf("a wave re-rolling half the ASes on Start shifted %d of %d salts in epoch 0", shifted, len(g.ASes))
	}
	graphs, worlds = append(graphs, g), append(worlds, tl)

	for w, tl := range worlds {
		g := graphs[w]
		n := int32(tl.NumEpochs())
		check := func(ep int32, down []bool, salt []uint64) {
			t.Helper()
			wantDown, wantSalt := epochState(g, tl, ep)
			if !slices.Equal(down, wantDown) || !slices.Equal(salt, wantSalt) {
				t.Fatalf("world %d: walked state differs from DownLinks/EpochSalts at epoch %d", w, ep)
			}
		}
		step := func(down []bool, salt []uint64, e int32, fwd bool) {
			t.Helper()
			for _, f := range tl.linkFlips(e) {
				if down[f.link] == (f.down == fwd) {
					t.Fatalf("world %d: epoch %d flips link %d to the state it already has", w, e, f.link)
				}
				down[f.link] = f.down == fwd
			}
			prev := int32(-1)
			for _, s := range tl.saltFlips(e) {
				if s.epoch != e || s.as <= prev || s.xor == 0 {
					t.Fatalf("world %d: epoch %d salt flips not one nonzero change per AS in AS order", w, e)
				}
				prev = s.as
				salt[s.as] ^= s.xor
			}
		}
		down, salt := epochState(g, tl, 0)
		for e := int32(1); e < n; e++ {
			step(down, salt, e, true)
			check(e, down, salt)
		}
		for e := n - 1; e > 0; e-- {
			step(down, salt, e, false)
			check(e-1, down, salt)
		}

		// A View's moveTo, which walks or rebuilds, lands on the same states.
		v := NewOracle(g, tl, 0).View()
		rng := rand.New(rand.NewPCG(uint64(w), 0x6d6f7665)) // "move"
		for range 200 {
			ep := rng.Int32N(n)
			if rng.IntN(2) == 0 && v.ep >= 0 {
				ep = min(max(v.ep+rng.Int32N(9)-4, 0), n-1)
			}
			v.moveTo(ep)
			check(ep, v.down, v.salt)
		}
	}
}

// TestMoveToWalksMatchReset: moveTo between random epoch pairs, forward
// and backward, must leave the View's down links and salts equal to a
// reset of the target epoch from DownLinks and EpochSalts. A walk applies
// every boundary it crosses as one range, so the test counts walks in
// each direction that cross a link flipping more than once, where the
// range's order decides the state.
func TestMoveToWalksMatchReset(t *testing.T) {
	walks, reflips := [2]int{}, [2]int{}
	for seed := uint64(1); seed <= 6; seed++ {
		g, tl := viewWorld(t, seed)
		n := int32(tl.NumEpochs())
		v := NewOracle(g, tl, 0).View()
		rng := rand.New(rand.NewPCG(seed, 0x7061697273)) // "pairs"
		for range 300 {
			a, b := rng.Int32N(n), rng.Int32N(n)
			if rng.IntN(2) == 0 { // a short walk, within a few boundaries
				b = min(max(a+rng.Int32N(41)-20, 0), n-1)
			}
			v.ep = -1
			v.moveTo(a) // a reset, whatever the View held
			walked := tl.flipsBetween(a, b) <= len(v.down)+len(v.salt)
			v.moveTo(b)
			wantDown, wantSalt := epochState(g, tl, b)
			if !slices.Equal(v.down, wantDown) || !slices.Equal(v.salt, wantSalt) {
				t.Fatalf("world %d: moveTo from epoch %d to %d (walk %v) differs from a reset at %d", seed, a, b, walked, b)
			}
			if !walked || a == b {
				continue
			}
			dir := 0
			if b < a {
				dir = 1
			}
			walks[dir]++
			flips, _ := tl.flipsAcross(a, b)
			seen := map[int32]bool{}
			for _, f := range flips {
				if seen[f.link] {
					reflips[dir]++
					break
				}
				seen[f.link] = true
			}
		}
	}
	t.Logf("walks forward %d (%d reflipping a link), backward %d (%d)", walks[0], reflips[0], walks[1], reflips[1])
	for dir, name := range []string{"forward", "backward"} {
		if walks[dir] < 100 || reflips[dir] < 20 {
			t.Errorf("%s: %d walks, %d crossing a link that flips twice; the pairs exercise too little",
				name, walks[dir], reflips[dir])
		}
	}
}

// TestTouchRules checks the reuse rules on every consecutive epoch pair
// of the model worlds: when the tree changes across a boundary, crossing
// it from either side must count as a touch. When it does not, only rule
// 3 (a salt change on a routed AS) may count one, since rules 1 and 2 are
// exact, except where a flipped link has a parallel link between the same
// two ASes: rule 1 judges tree edges by AS pair, so it may flag a link
// the route does not use.
func TestTouchRules(t *testing.T) {
	kept, boundaries := 0, 0
	for seed := uint64(1); seed <= 6; seed++ {
		g, tl := viewWorld(t, seed)
		pairs := map[[2]int32]int{}
		for _, l := range g.Links {
			pairs[[2]int32{min(l.A, l.B), max(l.A, l.B)}]++
		}
		parallel := func(e int32) bool {
			for _, f := range tl.linkFlips(e) {
				if l := g.Links[f.link]; pairs[[2]int32{min(l.A, l.B), max(l.A, l.B)}] > 1 {
					return true
				}
			}
			return false
		}
		v := NewOracle(g, tl, 0).View()
		n := int32(tl.NumEpochs())
		keys := []runKey{{0, 0}, {int32(len(g.ASes)) / 2, 1}, {int32(len(g.ASes)) - 1, 2}}
		prev := make([]Routes, len(keys))
		v.moveTo(0)
		for k, key := range keys {
			prev[k] = ComputeTree(g, key.dst, v.down, v.salt, planeSalt(key.plane), Routes{})
		}
		for e := int32(1); e < n; e++ {
			v.moveTo(e)
			for k, key := range keys {
				psalt := planeSalt(key.plane)
				cur := ComputeTree(g, key.dst, v.down, v.salt, psalt, Routes{})
				fwd := v.touches(&prev[k], key.dst, e, true, psalt)
				bwd := v.touches(&cur, key.dst, e, false, psalt)
				changed := !slices.Equal(prev[k].Tree, cur.Tree)
				if changed && (!fwd || !bwd) {
					t.Fatalf("world %d, dst %d, plane %d: tree changes into epoch %d, but touched forward %v, backward %v",
						seed, key.dst, key.plane, e, fwd, bwd)
				}
				if !changed && (fwd || bwd) && !saltTouches(tl, &cur, key.dst, e) && !parallel(e) {
					t.Fatalf("world %d, dst %d, plane %d: tree keeps into epoch %d, but a link change touched it (forward %v, backward %v)",
						seed, key.dst, key.plane, e, fwd, bwd)
				}
				if !fwd {
					kept++
				}
				boundaries++
				prev[k] = cur
			}
		}
	}
	t.Logf("%d of %d boundaries kept their tree", kept, boundaries)
}

// saltTouches reports whether rule 3 alone flags the boundary into epoch
// e for rt: a salt change on a routed AS other than the destination.
func saltTouches(tl *Timeline, rt *Routes, dst, e int32) bool {
	for _, s := range tl.saltFlips(e) {
		if s.as != dst && rt.class[s.as] != phaseNone {
			return true
		}
	}
	return false
}

// TestRepairMatchesComputeTree repairs trees across random gaps of up to
// ±30 epochs on the model worlds and checks every repair against
// ComputeTree in next hop, class and length. Half the gaps end on the far
// side of the instant where even worlds burst (a regional outage and two
// policy waves), which seeds a repair with a third of the graph. repair
// runs on every gap, past the flip bound too; build must repair exactly
// the gaps within it and compute the rest, and a jump across the whole
// timeline must force that fallback.
func TestRepairMatchesComputeTree(t *testing.T) {
	repaired, fellBack := 0, 0
	for seed := uint64(1); seed <= 6; seed++ {
		g, tl := viewWorld(t, seed)
		v := NewOracle(g, tl, 0).View()
		rng := rand.New(rand.NewPCG(seed, 0x726570616972)) // "repair"
		n := int32(tl.NumEpochs())
		burst := tl.EpochAt(viewStart.Add(4 * 24 * time.Hour)) // At 0.4 of ten days
		check := func(dst, e0, e1, plane int32) {
			t.Helper()
			psalt := planeSalt(plane)
			v.moveTo(e0)
			from := ComputeTree(g, dst, v.down, v.salt, psalt, Routes{})
			v.moveTo(e1)
			want := ComputeTree(g, dst, v.down, v.salt, psalt, Routes{})
			if got := v.repair(&from, dst, e0, psalt, Routes{}); !sameRoutes(got, want) {
				t.Fatalf("world %d, dst %d, plane %d: repair from epoch %d to %d differs from ComputeTree",
					seed, dst, plane, e0, e1)
			}
			before := v.repaired
			if got := v.build(dst, psalt, &from, e0, Routes{}); !sameRoutes(got, want) {
				t.Fatalf("world %d, dst %d, plane %d: build from epoch %d to %d differs from ComputeTree",
					seed, dst, plane, e0, e1)
			}
			if within := tl.flipsBetween(e0, e1) <= repairBound(g); within != (v.repaired > before) {
				t.Fatalf("world %d: %d flips from epoch %d to %d, bound %d, but build repaired %v",
					seed, tl.flipsBetween(e0, e1), e0, e1, repairBound(g), !within)
			}
			if v.repaired > before {
				repaired++
			} else {
				fellBack++
			}
		}
		for i := range 600 {
			e0 := rng.Int32N(n)
			gap := rng.Int32N(61) - 30
			if i%2 == 0 { // cross the burst instant, from either side
				short := rng.Int32N(30) // epochs from e0 to the last before the burst
				e0, gap = burst-1-short, short+1+rng.Int32N(30-short)
				if rng.IntN(2) == 0 {
					e0, gap = e0+gap, -gap
				}
			}
			e0 = min(max(e0, 0), n-1)
			e1 := min(max(e0+gap, 0), n-1)
			check(rng.Int32N(int32(len(g.ASes))), e0, e1, rng.Int32N(3))
		}
		before := fellBack
		check(rng.Int32N(int32(len(g.ASes))), 0, n-1, 0)
		if fellBack == before {
			t.Fatalf("world %d: a jump across all %d epochs did not fall back to ComputeTree", seed, n)
		}
	}
	if repaired == 0 {
		t.Fatal("no gap was within the flip bound; build never repaired")
	}
	t.Logf("build repaired %d trees and computed %d", repaired, fellBack)
}

// FuzzViewTrees decodes a query sequence over a small, heavily churning
// world and checks every View answer against ComputeTree in next hop,
// class and length: on a fresh View, and then with the sequence's two
// halves on one View with a Reset between them, where the second half
// must build exactly the trees a fresh View builds for it. The first byte
// sets the View's tree bound (1–8), so drops happen too; then every four
// bytes are one query: destination, epoch (two bytes) and plane (0–2).
// The checked-in corpus under testdata/fuzz/FuzzViewTrees walks runs
// forward and backward across the world's outage and wave (epoch 341),
// interleaves planes, drops at a one-tree bound and jumps far enough to
// rebuild the state.
func FuzzViewTrees(f *testing.F) {
	g := graph(f, 31, 60)
	tl, err := GenTimeline(g, TimelineConfig{Seed: 31, Start: viewStart, End: viewStart.AddDate(0, 0, 3),
		PolicyShiftsPerASYear: 400,
		Outages:               []RegionalOutage{{Region: g.ASes[30].Region, At: 0.5, Duration: 3 * time.Hour, Frac: 0.6}},
		Waves:                 []PolicyWave{{At: 0.5, Frac: 0.3}}})
	if err != nil {
		f.Fatal(err)
	}
	n := tl.NumEpochs()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		bound := 1 + int(data[0]%8)
		var queries []runKeyAt
		for q := data[1:]; len(q) >= 4 && len(queries) < 256; q = q[4:] {
			queries = append(queries, runKeyAt{
				dst:   int32(int(q[0]) % len(g.ASes)),
				ep:    int32((int(q[1])<<8 | int(q[2])) % n),
				plane: int32(q[3] % 3),
			})
		}
		checkView(t, NewOracle(g, tl, bound).View(), queries)
		v, half := NewOracle(g, tl, bound).View(), len(queries)/2
		checkView(t, v, queries[:half])
		v.Reset()
		got := checkView(t, v, queries[half:])
		if want := checkView(t, NewOracle(g, tl, bound).View(), queries[half:]); got != want {
			t.Fatalf("after a Reset the View built %d trees for the second half, a fresh View %d", got, want)
		}
	})
}
