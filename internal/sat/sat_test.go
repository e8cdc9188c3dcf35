package sat

import (
	"math/rand/v2"
	"strings"
	"testing"
)

// bruteForce enumerates all assignments, the reference for every solver
// query on small instances.
func bruteForce(c *CNF) []Model {
	var models []Model
	n := c.NumVars
	for bits := 0; bits < 1<<n; bits++ {
		m := make(Model, n+1)
		for v := 1; v <= n; v++ {
			m[v] = bits&(1<<(v-1)) != 0
		}
		if satisfies(c, m) {
			models = append(models, m)
		}
	}
	return models
}

func satisfies(c *CNF, m Model) bool {
	for _, cl := range c.Clauses {
		ok := false
		for _, l := range cl {
			if (l > 0 && m[l.Var()]) || (l < 0 && !m[l.Var()]) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func TestSolveTrivial(t *testing.T) {
	var c CNF
	c.AddClause(1)
	m, ok := NewSolver(&c).Solve()
	if !ok || !m[1] {
		t.Fatalf("Solve (x1) = %v,%v", m, ok)
	}

	var u CNF
	u.AddClause(1)
	u.AddClause(-1)
	if _, ok := NewSolver(&u).Solve(); ok {
		t.Fatal("x1 & !x1 declared SAT")
	}

	var e CNF
	e.AddClause() // empty clause
	if _, ok := NewSolver(&e).Solve(); ok {
		t.Fatal("empty clause declared SAT")
	}

	empty := &CNF{}
	if _, ok := NewSolver(empty).Solve(); !ok {
		t.Fatal("empty CNF declared UNSAT")
	}
}

func TestSolveFalseBias(t *testing.T) {
	// The first model of an unconstrained positive clause problem should be
	// minimal in true-assignments given the false-first heuristic, and a
	// CNF of only negative units solves to all-false.
	var c CNF
	c.AddClause(-1)
	c.AddClause(-2)
	c.AddClause(-3)
	m, ok := NewSolver(&c).Solve()
	if !ok || m[1] || m[2] || m[3] {
		t.Fatalf("all-negative CNF model = %v", m)
	}
}

func TestTomographyShape(t *testing.T) {
	// (1|2|3) with ¬1, ¬2 forced: the paper's ideal case — unique model
	// identifying var 3 as the censor.
	var c CNF
	c.AddClause(1, 2, 3)
	c.AddClause(-1)
	c.AddClause(-2)
	cls, m := Classify(&c)
	if cls != Unique {
		t.Fatalf("Classify = %v, want Unique", cls)
	}
	if m[1] || m[2] || !m[3] {
		t.Fatalf("model = %v, want only var 3 true", m)
	}

	// Under-constrained: (1|2|3) with ¬1 only — multiple solutions.
	var c2 CNF
	c2.AddClause(1, 2, 3)
	c2.AddClause(-1)
	if cls, _ := Classify(&c2); cls != Multiple {
		t.Fatalf("Classify = %v, want Multiple", cls)
	}
	// Potential censors: 2 and 3, but not 1.
	pot := PotentialTrue(&c2)
	if pot[1] || !pot[2] || !pot[3] {
		t.Fatalf("PotentialTrue = %v", pot)
	}

	// Conflicting observations (policy change): (1|2) with ¬1, ¬2.
	var c3 CNF
	c3.AddClause(1, 2)
	c3.AddClause(-1)
	c3.AddClause(-2)
	if cls, _ := Classify(&c3); cls != Unsat {
		t.Fatalf("Classify = %v, want Unsat", cls)
	}
}

func TestCountModels(t *testing.T) {
	// (1|2|3) alone: 7 models.
	var c CNF
	c.AddClause(1, 2, 3)
	if n := CountModels(&c, 100); n != 7 {
		t.Errorf("CountModels = %d, want 7", n)
	}
	if n := CountModels(&c, 5); n != 5 {
		t.Errorf("capped CountModels = %d, want 5", n)
	}
	var u CNF
	u.AddClause(1)
	u.AddClause(-1)
	if n := CountModels(&u, 5); n != 0 {
		t.Errorf("UNSAT CountModels = %d", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("CountModels(cap=0) should panic")
		}
	}()
	CountModels(&c, 0)
}

func modelKey(m Model) string {
	var b strings.Builder
	for _, v := range m[1:] {
		if v {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

func TestSolveAssume(t *testing.T) {
	var c CNF
	c.AddClause(1, 2)
	s := NewSolver(&c)
	if _, ok := s.SolveAssume([]Lit{-1, -2}); ok {
		t.Error("assumptions violating the clause accepted")
	}
	if m, ok := s.SolveAssume([]Lit{-1}); !ok || !m[2] {
		t.Errorf("SolveAssume(-1) = %v,%v; want x2=true", m, ok)
	}
	// Solver is reusable after assumption queries.
	if _, ok := s.Solve(); !ok {
		t.Error("solver broken after assumption query")
	}
	if _, ok := s.SolveAssume([]Lit{0}); ok {
		t.Error("zero-literal assumption accepted")
	}
	if _, ok := s.SolveAssume([]Lit{99}); ok {
		t.Error("out-of-range assumption accepted")
	}
}

// Randomized cross-check against brute force: SAT/UNSAT agreement, model
// count agreement, and per-variable backbone agreement.
func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 42))
	for iter := 0; iter < 400; iter++ {
		nv := 2 + rng.IntN(9) // up to 10 vars
		nc := 1 + rng.IntN(18)
		var c CNF
		c.NumVars = nv
		for i := 0; i < nc; i++ {
			width := 1 + rng.IntN(3)
			cl := make([]Lit, 0, width)
			for w := 0; w < width; w++ {
				v := 1 + rng.IntN(nv)
				l := Lit(int32(v))
				if rng.IntN(2) == 0 {
					l = -l
				}
				cl = append(cl, l)
			}
			c.AddClause(cl...)
		}
		want := bruteForce(&c)

		m, ok := NewSolver(&c).Solve()
		if ok != (len(want) > 0) {
			t.Fatalf("iter %d: Solve=%v, brute force found %d models", iter, ok, len(want))
		}
		if ok && !satisfies(&c, m) {
			t.Fatalf("iter %d: returned non-model %v", iter, m)
		}
		if got := CountModels(&c, 1<<nv+1); got != len(want) {
			t.Fatalf("iter %d: CountModels=%d, want %d", iter, got, len(want))
		}
		// Backbone agreement.
		pot := PotentialTrue(&c)
		for v := 1; v <= nv; v++ {
			wantPot := false
			for _, wm := range want {
				if wm[v] {
					wantPot = true
					break
				}
			}
			if pot[v] != wantPot {
				t.Fatalf("iter %d: PotentialTrue[%d]=%v, want %v", iter, v, pot[v], wantPot)
			}
		}
		// Classification agreement.
		cls, um := Classify(&c)
		switch {
		case len(want) == 0 && cls != Unsat:
			t.Fatalf("iter %d: Classify=%v want Unsat", iter, cls)
		case len(want) == 1 && cls != Unique:
			t.Fatalf("iter %d: Classify=%v want Unique", iter, cls)
		case len(want) > 1 && cls != Multiple:
			t.Fatalf("iter %d: Classify=%v want Multiple", iter, cls)
		}
		if cls == Unique && modelKey(um) != modelKey(want[0]) {
			t.Fatalf("iter %d: unique model mismatch", iter)
		}
	}
}

func TestAddClauseZeroLiteralPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero literal accepted")
		}
	}()
	var c CNF
	c.AddClause(1, 0)
}

func TestClassificationString(t *testing.T) {
	if Unsat.String() != "0" || Unique.String() != "1" || Multiple.String() != "2+" {
		t.Error("classification names changed; figures depend on them")
	}
	if Classification(9).String() == "" {
		t.Error("unknown classification renders empty")
	}
}

func TestSolverReuseAfterEnumeration(t *testing.T) {
	// Classify twice on the same CNF value must agree (NewSolver copies
	// nothing, but blocking clauses live in the solver, not the CNF).
	var c CNF
	c.AddClause(1, 2, 3)
	c.AddClause(-1)
	a, _ := Classify(&c)
	b, _ := Classify(&c)
	if a != b {
		t.Fatalf("Classify not repeatable: %v then %v", a, b)
	}
	if len(c.Clauses) != 2 {
		t.Fatalf("Classify mutated the CNF: %d clauses", len(c.Clauses))
	}
}

func BenchmarkSolveTomographyCNF(b *testing.B) {
	// Typical tomography instance: 25 path ASes, a handful of positive
	// clauses, many negative units.
	var c CNF
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 6; i++ {
		c.AddClause(Lit(rng.IntN(25)+1), Lit(rng.IntN(25)+1), Lit(rng.IntN(25)+1))
	}
	for v := 1; v <= 20; v++ {
		c.AddClause(Lit(int32(-v)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewSolver(&c).Solve()
	}
}

func BenchmarkClassify(b *testing.B) {
	var c CNF
	c.AddClause(1, 2, 3)
	c.AddClause(-1)
	c.AddClause(-2)
	for v := 4; v <= 30; v++ {
		c.AddClause(Lit(int32(-v)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Classify(&c)
	}
}

func BenchmarkRandom3SAT(b *testing.B) {
	// 60 vars at clause ratio 3.5: decently hard for plain DPLL, trivial
	// for the sizes tomography needs — a headroom check.
	rng := rand.New(rand.NewPCG(2, 2))
	var c CNF
	c.NumVars = 60
	for i := 0; i < 210; i++ {
		c.AddClause(randLit(rng, 60), randLit(rng, 60), randLit(rng, 60))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewSolver(&c).Solve()
	}
}

func randLit(rng *rand.Rand, nv int) Lit {
	l := Lit(int32(rng.IntN(nv) + 1))
	if rng.IntN(2) == 0 {
		return -l
	}
	return l
}
