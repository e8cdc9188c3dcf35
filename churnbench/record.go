package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"time"
)

// recordCandidates is how many world seeds (1..N) -record scans per world
// family, and catalogSize how many of them it keeps.
const recordCandidates, catalogSize = 20, 6

// recordReference records every candidate world of each family — its
// verdicts and exact counts — and keeps as the family's catalog the keep
// worlds closest to one another on the counts that set the runs' cost:
// routing tree computes and CNF clauses for batch-synth, CNF clauses and
// incremental re-solves for the replays. So the spread of a metric across
// seeds reflects the run rather than which world was drawn.
func recordReference(ctx context.Context, sc scale, dir string, seeds []uint64, keep int, log io.Writer) (*reference, error) {
	ref := &reference{
		Note:     fmt.Sprintf("recorded by churnbench -record: world seeds %d..%d per family, the %d closest to one another on the cost counts kept", seeds[0], seeds[len(seeds)-1], keep),
		Families: map[string][]worldRef{},
	}
	for _, family := range []string{familySynth, familyReplay} {
		var worlds []worldRef
		var costs [][]float64
		for _, seed := range seeds {
			wr, tw, err := recordWorld(ctx, sc, family, seed, dir, log)
			if err != nil {
				return nil, fmt.Errorf("%s world %d: %w", family, seed, err)
			}
			cost := []float64{tw.vals["routing.tree_computes"], tw.vals["tomo.clauses"]}
			if family == familyReplay {
				cost = []float64{tw.vals["tomo.clauses"], tw.vals["stream.solved"]}
			}
			fmt.Fprintf(log, "churnbench: recorded %s world %d: cost counts %v\n", family, seed, cost)
			worlds = append(worlds, wr)
			costs = append(costs, cost)
		}
		ref.Families[family] = cluster(worlds, costs, keep)
	}
	return ref, nil
}

// recordWorld records one world: the public export's digest (replays),
// every workload's end-to-end verdict, and the traced run's exact counts,
// after checking the traced run agrees with the end-to-end runs.
func recordWorld(ctx context.Context, sc scale, family string, seed uint64, dir string, log io.Writer) (worldRef, *tracedWorld, error) {
	wr := worldRef{Seed: seed, Verdicts: map[string]verdict{}, Counts: map[string]map[string]float64{}}
	tracedPath := filepath.Join(dir, fmt.Sprintf("traced-%s-%d.jsonl.gz", family, seed))
	tw, err := traceWorld(ctx, sc, family, seed, tracedPath, false)
	if err != nil {
		return wr, nil, err
	}
	for _, wl := range workloads {
		if wl.family != family {
			continue
		}
		b := &bench{sc: sc, wl: wl, world: worldRef{Seed: seed}, dir: dir, log: log}
		if wl.replay && wr.FileSHA256 == "" {
			if err := b.setup(ctx); err != nil {
				return wr, nil, err
			}
			if wr.FileSHA256, err = fileSHA256(b.filePath()); err != nil {
				return wr, nil, err
			}
			if wr.FileSHA256 != tw.fileSHA {
				return wr, nil, fmt.Errorf("traced export digest %s differs from the public export's %s", tw.fileSHA, wr.FileSHA256)
			}
		}
		start := time.Now()
		res, err := b.runOnce(ctx)
		if err != nil {
			return wr, nil, err
		}
		e2eMS := ms(start)
		v := verdictOf(res, wl.stream)
		if err := tw.traceVerdict(wl).diff(v); err != nil {
			return wr, nil, fmt.Errorf("%s: traced run differs from the end-to-end run: %w", wl.name, err)
		}
		vals, err := tw.finish(wl, res, e2eMS)
		if err != nil {
			return wr, nil, err
		}
		wr.Verdicts[wl.name] = v
		wr.Counts[wl.name] = exactOf(vals)
	}
	return wr, tw, nil
}

// cluster keeps the keep worlds closest to one another: for every world,
// its keep nearest worlds (itself included) by the sum of cost
// differences relative to the family median; the group with the smallest
// total distance wins. It returns the group in seed order.
func cluster(worlds []worldRef, costs [][]float64, keep int) []worldRef {
	if keep > len(worlds) {
		keep = len(worlds)
	}
	medians := make([]float64, len(costs[0]))
	for k := range medians {
		col := make([]float64, len(costs))
		for i := range costs {
			col[i] = costs[i][k]
		}
		medians[k] = median(col)
	}
	dist := func(i, j int) float64 {
		d := 0.0
		for k, m := range medians {
			d += math.Abs(costs[i][k]-costs[j][k]) / m
		}
		return d
	}
	var best []int
	bestSpread := math.Inf(1)
	for i := range worlds {
		near := make([]int, len(worlds))
		for j := range near {
			near[j] = j
		}
		sort.SliceStable(near, func(a, b int) bool { return dist(i, near[a]) < dist(i, near[b]) })
		near = near[:keep]
		spread := 0.0
		for _, j := range near {
			spread += dist(i, j)
		}
		if spread < bestSpread {
			best, bestSpread = near, spread
		}
	}
	kept := make([]worldRef, 0, keep)
	for _, i := range best {
		kept = append(kept, worlds[i])
	}
	sort.Slice(kept, func(a, b int) bool { return kept[a].Seed < kept[b].Seed })
	return kept
}
