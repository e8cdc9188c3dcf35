package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"churntomo"
)

// referenceJSON is the recorded reference: per world family, the catalog
// of worlds a seed picks from, with each world's verdicts and exact counts.
//
//go:embed reference.json
var referenceJSON []byte

// verdict is what a run concluded: the identified censors, the CNF count
// and its 0/1/2+ solution histogram and, for a streaming run, the censor
// count of every window. Two runs of the same input must agree on all of it.
type verdict struct {
	Identified    []uint32 `json:"identified"`
	CNFs          int      `json:"cnfs"`
	Classes       [3]int   `json:"classes"` // unsat, unique, multiple
	WindowCensors []int    `json:"window_censors,omitempty"`
}

// verdictOf extracts the verdict of an end-to-end run.
func verdictOf(res *churntomo.Result, stream bool) verdict {
	v := verdict{
		Identified: []uint32{},
		CNFs:       res.Summary.CNFs,
		Classes:    [3]int{res.Summary.UnsatCNFs, res.Summary.UniqueCNFs, res.Summary.MultipleCNFs},
	}
	for _, c := range res.Censors {
		v.Identified = append(v.Identified, uint32(c.ASN))
	}
	if stream {
		v.WindowCensors = []int{}
		for _, w := range res.Windows {
			v.WindowCensors = append(v.WindowCensors, len(w.Identified))
		}
	}
	return v
}

// diff describes the first difference from want, nil when equal.
func (v verdict) diff(want verdict) error {
	switch {
	case !slices.Equal(v.Identified, want.Identified):
		return fmt.Errorf("verdict: identified %v, reference %v", v.Identified, want.Identified)
	case v.CNFs != want.CNFs:
		return fmt.Errorf("verdict: %d CNFs, reference %d", v.CNFs, want.CNFs)
	case v.Classes != want.Classes:
		return fmt.Errorf("verdict: 0/1/2+ histogram %v, reference %v", v.Classes, want.Classes)
	case !slices.Equal(v.WindowCensors, want.WindowCensors):
		return fmt.Errorf("verdict: per-window censor counts %v, reference %v", v.WindowCensors, want.WindowCensors)
	}
	return nil
}

// reference is the recorded truth the verdict gate checks against.
type reference struct {
	// Note says how the file was made.
	Note string `json:"note"`
	// Families maps a world family to its catalog; a workload seed n
	// picks world n mod len(catalog).
	Families map[string][]worldRef `json:"families"`
}

// worldRef is one catalog world.
type worldRef struct {
	Seed uint64 `json:"seed"`
	// FileSHA256 is the digest of the exported world (replay family).
	FileSHA256 string `json:"file_sha256,omitempty"`
	// Verdicts holds the end-to-end verdict per workload name.
	Verdicts map[string]verdict `json:"verdicts"`
	// Counts holds a traced run's exact per-layer counts per workload name.
	Counts map[string]map[string]float64 `json:"counts"`
}

func loadReference(data []byte) (*reference, error) {
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return &ref, nil
}

func writeReference(path string, ref *reference) error {
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// pick returns the catalog world a workload seed selects.
func (r *reference) pick(family string, seed uint64) (worldRef, error) {
	cat := r.Families[family]
	if len(cat) == 0 {
		return worldRef{}, fmt.Errorf("reference has no %s worlds", family)
	}
	return cat[seed%uint64(len(cat))], nil
}

// checkCounts compares a traced run's exact counts with the reference.
func checkCounts(got map[string]float64, want map[string]float64) error {
	for _, name := range exactCounts {
		w, ok := want[name]
		if !ok {
			return fmt.Errorf("reference lacks exact count %s", name)
		}
		if g := got[name]; g != w {
			return fmt.Errorf("exact count %s = %v, reference %v", name, g, w)
		}
	}
	return nil
}

// exactOf selects the exact counts from a traced run's metrics.
func exactOf(vals map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, name := range exactCounts {
		out[name] = vals[name]
	}
	return out
}
