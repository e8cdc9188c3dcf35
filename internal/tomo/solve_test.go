package tomo

import (
	"reflect"
	"testing"

	"churntomo/internal/sat"
	"churntomo/internal/topology"
)

// searchOutcome is Solve's oracle: the Outcome that SAT search reaches on
// a copy of in's CNF (search permutes literals inside clauses), via
// sat.Classify and, for 2+ models, one sat.PotentialTrue query per variable.
func searchOutcome(in *Instance) Outcome {
	out := Outcome{Inst: in, TotalVars: len(in.Vars)}
	cnf := copyCNF(in.CNF)
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

func copyCNF(c *sat.CNF) *sat.CNF {
	cp := &sat.CNF{NumVars: c.NumVars}
	for _, cl := range c.Clauses {
		cp.AddClause(cl...)
	}
	return cp
}

// FuzzSolve decodes a random CNF of the paper's shape and checks Solve's
// closed form against SAT search: sat.Classify, sat.PotentialTrue and
// sat.CountModels(c, 2), and CountModels against sat.CountModels at caps
// 1 to 6. The first byte sets the variable count (0–7);
// then each clause is one header byte, either a negative unit clause (high
// bit set) or a censored path of 0–4 ASes, one byte each. So paths may
// repeat an AS or be empty, and a variable may appear in no clause at all.
// The checked-in corpus under testdata/fuzz/FuzzSolve seeds each class and
// each of those shapes.
func FuzzSolve(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nv := int(data[0] % 8)
		in := &Instance{CNF: &sat.CNF{NumVars: nv}}
		for v := 1; v <= nv; v++ {
			in.Vars = append(in.Vars, topology.ASN(64500+v))
		}
		lit := func(b byte) sat.Lit { return sat.Lit(int32(1 + int(b)%nv)) }
		for i := 1; i < len(data) && len(in.CNF.Clauses) < 12; {
			h := data[i]
			i++
			if h&0x80 != 0 && nv > 0 {
				in.CNF.AddClause(lit(h).Neg())
				continue
			}
			var path []sat.Lit
			for n := int(h % 5); n > 0 && nv > 0 && i < len(data); n-- {
				path = append(path, lit(data[i]))
				i++
			}
			in.CNF.AddClause(path...)
		}

		got := Solve(in)
		if want := searchOutcome(in); !reflect.DeepEqual(got, want) {
			t.Fatalf("Solve = %+v, search = %+v\nclauses %v", got, want, in.CNF.Clauses)
		}
		byCount := []sat.Classification{sat.Unsat, sat.Unique, sat.Multiple}
		if n := sat.CountModels(copyCNF(in.CNF), 2); byCount[n] != got.Class {
			t.Fatalf("Solve class %v, but CountModels finds %d model(s)\nclauses %v",
				got.Class, n, in.CNF.Clauses)
		}
		for c := 1; c <= 6; c++ {
			if n, want := CountModels(in, c), sat.CountModels(copyCNF(in.CNF), c); n != want {
				t.Fatalf("CountModels(cap %d) = %d, search counts %d\nclauses %v", c, n, want, in.CNF.Clauses)
			}
		}
	})
}

func TestCountModelsCapPanics(t *testing.T) {
	in := &Instance{CNF: &sat.CNF{}}
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
