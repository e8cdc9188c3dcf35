package tomo

import (
	"reflect"
	"testing"

	"churntomo/internal/sat"
	"churntomo/internal/topology"
)

// searchOutcome is Solve's oracle: the Outcome that SAT search reaches on
// CNFOf(in), via sat.Classify and, for 2+ models, one sat.PotentialTrue
// query per variable.
func searchOutcome(in *Instance) Outcome {
	out := Outcome{Inst: in, TotalVars: len(in.Vars)}
	cnf := CNFOf(in)
	cls, model := sat.Classify(cnf)
	out.Class = cls
	switch cls {
	case sat.Unique:
		for v := 1; v <= cnf.NumVars; v++ {
			if model[v] {
				out.Censors = append(out.Censors, in.Vars[v-1])
			}
		}
	case sat.Multiple:
		pot := sat.PotentialTrue(cnf)
		for v := 1; v <= cnf.NumVars; v++ {
			if pot[v] {
				out.Potential = append(out.Potential, in.Vars[v-1])
			} else {
				out.Eliminated++
			}
		}
	}
	return out
}

// instanceOf builds an instance over variables 1..nv, variable v standing
// for AS 64500+v, with the variables negated[v] marks on clean paths and
// the censored paths given as variable lists. The negated variables are
// renumbered first, in order, as materialize numbers them; the rest
// follow in order.
func instanceOf(nv int, negated []bool, paths [][]int) *Instance {
	in := &Instance{}
	renumbered := make([]int32, nv+1)
	for _, neg := range []bool{true, false} {
		for v := 1; v <= nv; v++ {
			if negated[v] == neg {
				in.Vars = append(in.Vars, topology.ASN(64500+v))
				renumbered[v] = int32(len(in.Vars))
			}
		}
		if neg {
			in.negated = len(in.Vars)
		}
	}
	for _, p := range paths {
		path := []topology.ASN{}
		for _, v := range p {
			path = append(path, topology.ASN(64500+v))
			in.censored = append(in.censored, renumbered[v])
		}
		in.PositivePaths = append(in.PositivePaths, path)
	}
	return in
}

// FuzzSolve decodes a random instance of the paper's shape and checks
// Solve's closed form against SAT search on its CNF (CNFOf): sat.Classify,
// sat.PotentialTrue and sat.CountModels(c, 2), and CountModels against
// sat.CountModels at caps 1 to 6. The first byte sets the variable count
// (0–7); then each of up to 12 header bytes either negates a variable
// (high bit set), as a clean path would, or starts a censored path of 0–4
// ASes, one byte each. So paths may repeat an AS or be empty, and a
// variable may be on no path at all. instanceOf numbers the negated
// variables first. The checked-in corpus under testdata/fuzz/FuzzSolve
// seeds each class and each of those shapes.
func FuzzSolve(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nv := int(data[0] % 8)
		negated := make([]bool, nv+1)
		var paths [][]int
		for i, headers := 1, 0; i < len(data) && headers < 12; headers++ {
			h := data[i]
			i++
			if h&0x80 != 0 && nv > 0 {
				negated[1+int(h)%nv] = true
				continue
			}
			path := []int{}
			for n := int(h % 5); n > 0 && nv > 0 && i < len(data); n-- {
				path = append(path, 1+int(data[i])%nv)
				i++
			}
			paths = append(paths, path)
		}
		in := instanceOf(nv, negated, paths)
		clauses := CNFOf(in).Clauses

		got := Solve(in)
		if want := searchOutcome(in); !reflect.DeepEqual(got, want) {
			t.Fatalf("Solve = %+v, search = %+v\nclauses %v", got, want, clauses)
		}
		byCount := []sat.Classification{sat.Unsat, sat.Unique, sat.Multiple}
		if n := sat.CountModels(CNFOf(in), 2); byCount[n] != got.Class {
			t.Fatalf("Solve class %v, but CountModels finds %d model(s)\nclauses %v",
				got.Class, n, clauses)
		}
		for c := 1; c <= 6; c++ {
			if n, want := CountModels(in, c), sat.CountModels(CNFOf(in), c); n != want {
				t.Fatalf("CountModels(cap %d) = %d, search counts %d\nclauses %v", c, n, want, clauses)
			}
		}
	})
}

func TestCountModelsCapPanics(t *testing.T) {
	in := &Instance{}
	for _, c := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CountModels(cap %d) did not panic", c)
				}
			}()
			CountModels(in, c)
		}()
	}
}
