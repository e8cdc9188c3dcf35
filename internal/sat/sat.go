package sat

import "fmt"

// Lit is a literal: +v is variable v, -v its negation. Variables are
// numbered from 1.
type Lit int32

// Var returns the literal's variable.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// Clause is a disjunction of literals.
type Clause []Lit

// CNF is a conjunction of clauses over NumVars variables.
type CNF struct {
	NumVars int
	Clauses []Clause

	// arena backs the clauses: AddClause carves full-slice views out of
	// shared blocks instead of allocating one slice per clause, which is
	// the dominant allocation of bulk CNF construction. Capacity-clamped
	// views keep a clause's appends (there are none today) from bleeding
	// into its neighbor; in-place literal swaps — the solver's watch
	// normalization — stay within clause bounds and are safe.
	arena []Lit
}

// arenaBlock is the arena growth quantum, sized so typical path-length
// clauses pack a few dozen per allocation.
const arenaBlock = 256

// AddClause appends a clause, growing NumVars as needed.
func (c *CNF) AddClause(lits ...Lit) {
	for _, l := range lits {
		if l == 0 {
			panic("sat: zero literal")
		}
		if v := l.Var(); v > c.NumVars {
			c.NumVars = v
		}
	}
	if cap(c.arena)-len(c.arena) < len(lits) {
		block := arenaBlock
		if len(lits) > block {
			block = len(lits)
		}
		c.arena = make([]Lit, 0, block)
	}
	lo := len(c.arena)
	c.arena = append(c.arena, lits...)
	c.Clauses = append(c.Clauses, Clause(c.arena[lo:len(c.arena):len(c.arena)]))
}

// Model is a satisfying assignment; index i (1-based) holds variable i's
// value. Index 0 is unused.
type Model []bool

// value constants for the assignment vector.
const (
	unassigned int8 = 0
	vTrue      int8 = 1
	vFalse     int8 = -1
)

// Solver is the reference DPLL solver over one CNF: the engine behind
// Classify, CountModels and PotentialTrue, the oracle that tomo.Solve's and
// tomo.CountModels' closed forms are tested against. A Solver may be
// reused for multiple queries; blocking clauses added by enumeration are
// kept internal to those calls.
type Solver struct {
	nv      int
	clauses []Clause
	// watches maps a watch-index (2*var or 2*var+1 for the negation) to the
	// clauses watching that literal.
	watches [][]int32

	assign   []int8
	trail    []Lit
	trailLim []int  // trail length at each decision level
	flipped  []bool // whether the decision at each level has been inverted

	// units and hasEmpty mirror the structural unit and empty clauses, kept
	// by addClause so repeated queries (PotentialTrue's one per variable,
	// enumeration's one per model) never rescan the clause store.
	units    []Lit
	hasEmpty bool
}

// NewSolver builds a solver for the CNF. The CNF is not modified; its
// clauses are shared, so callers must not mutate them during solving.
func NewSolver(c *CNF) *Solver {
	s := &Solver{nv: c.NumVars}
	s.watches = make([][]int32, 2*(c.NumVars+1))
	s.assign = make([]int8, c.NumVars+1)
	for _, cl := range c.Clauses {
		s.addClause(cl)
	}
	return s
}

// watchIndex maps a literal to its watch list slot.
func watchIndex(l Lit) int {
	if l > 0 {
		return 2 * int(l)
	}
	return 2*int(-l) + 1
}

// addClause installs a clause with two watches (or registers it specially
// when shorter).
func (s *Solver) addClause(cl Clause) {
	id := int32(len(s.clauses))
	s.clauses = append(s.clauses, cl)
	if len(cl) == 0 {
		s.hasEmpty = true // immediate UNSAT for every future Solve
		return
	}
	if len(cl) == 1 {
		s.units = append(s.units, cl[0])
	}
	s.watches[watchIndex(cl[0])] = append(s.watches[watchIndex(cl[0])], id)
	if len(cl) > 1 {
		s.watches[watchIndex(cl[1])] = append(s.watches[watchIndex(cl[1])], id)
	}
}

func (s *Solver) litValue(l Lit) int8 {
	v := s.assign[l.Var()]
	if l < 0 {
		return -v
	}
	return v
}

// enqueue records l as true, returning false if it contradicts the current
// assignment.
func (s *Solver) enqueue(l Lit) bool {
	switch s.litValue(l) {
	case vTrue:
		return true
	case vFalse:
		return false
	}
	if l > 0 {
		s.assign[l.Var()] = vTrue
	} else {
		s.assign[l.Var()] = vFalse
	}
	s.trail = append(s.trail, l)
	return true
}

// propagate runs unit propagation over the watch lists from the given trail
// position; it returns false on conflict.
func (s *Solver) propagate(from int) bool {
	for qhead := from; qhead < len(s.trail); qhead++ {
		falsified := s.trail[qhead].Neg()
		wi := watchIndex(falsified)
		watchers := s.watches[wi]
		kept := watchers[:0]
		for wpos := 0; wpos < len(watchers); wpos++ {
			id := watchers[wpos]
			cl := s.clauses[id]

			if len(cl) == 1 {
				// Unit clause watched on its only literal, now falsified.
				kept = append(kept, id)
				s.watches[wi] = kept
				// Re-append untouched watchers after the conflict point.
				s.watches[wi] = append(s.watches[wi], watchers[wpos+1:]...)
				return false
			}

			// Normalize: make cl[1] the falsified watch.
			if cl[0] == falsified {
				cl[0], cl[1] = cl[1], cl[0]
			}
			// If the other watch is true, the clause is satisfied.
			if s.litValue(cl[0]) == vTrue {
				kept = append(kept, id)
				continue
			}
			// Look for a replacement watch.
			found := false
			for k := 2; k < len(cl); k++ {
				if s.litValue(cl[k]) != vFalse {
					cl[1], cl[k] = cl[k], cl[1]
					s.watches[watchIndex(cl[1])] = append(s.watches[watchIndex(cl[1])], id)
					found = true
					break
				}
			}
			if found {
				continue // watch moved elsewhere
			}
			// Clause is unit (or conflicting) on cl[0].
			kept = append(kept, id)
			if !s.enqueue(cl[0]) {
				s.watches[wi] = kept
				s.watches[wi] = append(s.watches[wi], watchers[wpos+1:]...)
				return false
			}
		}
		s.watches[wi] = kept
	}
	return true
}

// decisionLevel returns the current depth of the decision stack.
func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// decide pushes a new decision.
func (s *Solver) decide(l Lit) {
	s.trailLim = append(s.trailLim, len(s.trail))
	s.flipped = append(s.flipped, false)
	s.enqueue(l)
}

// undoLevel pops the top decision level, returning the decision literal.
func (s *Solver) undoLevel() Lit {
	lim := s.trailLim[len(s.trailLim)-1]
	dec := s.trail[lim]
	for i := len(s.trail) - 1; i >= lim; i-- {
		s.assign[s.trail[i].Var()] = unassigned
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:len(s.trailLim)-1]
	s.flipped = s.flipped[:len(s.flipped)-1]
	return dec
}

// reset clears all assignments.
func (s *Solver) reset() {
	for i := range s.assign {
		s.assign[i] = unassigned
	}
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.flipped = s.flipped[:0]
}

// Solve reports satisfiability and a model when satisfiable.
func (s *Solver) Solve() (Model, bool) { return s.SolveAssume(nil) }

// SolveAssume solves under the given assumption literals.
func (s *Solver) SolveAssume(assumps []Lit) (Model, bool) {
	s.reset()
	if s.hasEmpty {
		return nil, false
	}
	// Structural unit clauses (including blocking clauses over one
	// variable) seed the trail at level 0; addClause maintains the list so
	// queries never rescan the clause store.
	for _, l := range s.units {
		if !s.enqueue(l) {
			return nil, false
		}
	}
	for _, a := range assumps {
		if a == 0 || a.Var() > s.nv {
			return nil, false
		}
		if !s.enqueue(a) {
			return nil, false
		}
	}
	if !s.propagate(0) {
		return nil, false
	}
	if !s.search() {
		return nil, false
	}
	m := make(Model, s.nv+1)
	for v := 1; v <= s.nv; v++ {
		m[v] = s.assign[v] == vTrue
	}
	return m, true
}

// search runs DPLL from the current (propagated, conflict-free) state.
func (s *Solver) search() bool {
	for {
		// Pick the lowest-numbered unassigned variable; try false first so
		// the first model found is the minimal-censorship one (the common
		// all-False solution of anomaly-free CNFs pops out immediately).
		v := 0
		for i := 1; i <= s.nv; i++ {
			if s.assign[i] == unassigned {
				v = i
				break
			}
		}
		if v == 0 {
			return true // complete assignment
		}
		s.decide(Lit(int32(-v)))
		for !s.propagate(s.trailLim[len(s.trailLim)-1]) {
			// Conflict: backtrack to the nearest unflipped decision.
			for {
				if s.decisionLevel() == 0 {
					return false
				}
				wasFlipped := s.flipped[len(s.flipped)-1]
				dec := s.undoLevel()
				if !wasFlipped {
					s.trailLim = append(s.trailLim, len(s.trail))
					s.flipped = append(s.flipped, true)
					s.enqueue(dec.Neg())
					break
				}
			}
		}
	}
}

// blockModel adds a clause forbidding the exact assignment m.
func (s *Solver) blockModel(m Model) {
	cl := make(Clause, 0, s.nv)
	for v := 1; v <= s.nv; v++ {
		if m[v] {
			cl = append(cl, Lit(int32(-v)))
		} else {
			cl = append(cl, Lit(int32(v)))
		}
	}
	s.addClause(cl)
}

// Classification buckets a CNF by its number of models, the paper's §3.2
// trichotomy.
type Classification uint8

// Classification values.
const (
	Unsat    Classification = iota // no solution: noise or policy change
	Unique                         // exactly one: censors exactly identified
	Multiple                       // two or more: elimination only
)

// String names the classification.
func (c Classification) String() string {
	switch c {
	case Unsat:
		return "0"
	case Unique:
		return "1"
	case Multiple:
		return "2+"
	default:
		return fmt.Sprintf("classification(%d)", uint8(c))
	}
}

// Classify determines whether the CNF has zero, one, or multiple models.
// When exactly one exists it is returned.
func Classify(c *CNF) (Classification, Model) {
	s := NewSolver(c)
	m, ok := s.Solve()
	if !ok {
		return Unsat, nil
	}
	s.blockModel(m)
	if _, again := s.Solve(); again {
		return Multiple, nil
	}
	return Unique, m
}

// CountModels counts models up to cap (inclusive); the return saturates at
// cap. cap must be positive.
func CountModels(c *CNF, cap int) int {
	if cap <= 0 {
		panic("sat: CountModels cap must be positive")
	}
	s := NewSolver(c)
	n := 0
	for n < cap {
		m, ok := s.Solve()
		if !ok {
			return n
		}
		n++
		s.blockModel(m)
	}
	return n
}

// PotentialTrue reports, per variable, whether some model assigns it true —
// the paper's "potential censor" test for multi-solution CNFs ("every AS is
// a potential censor unless its literal is False in all returned
// solutions"). Computed as one assumption query per variable rather than by
// enumeration, so it stays exact even when the model count explodes.
func PotentialTrue(c *CNF) []bool {
	s := NewSolver(c)
	out := make([]bool, c.NumVars+1)
	for v := 1; v <= c.NumVars; v++ {
		if _, ok := s.SolveAssume([]Lit{Lit(int32(v))}); ok {
			out[v] = true
		}
	}
	return out
}
