package ntier

import (
	"fmt"
	"math"

	"soral/internal/convex"
	"soral/internal/lp"
	"soral/internal/staircase"
)

// Decision is one slot's allocation: Alloc[p][k] is the amount allocated on
// the k-th resource of path p (in PathResources order), and S[p] the path
// throughput.
type Decision struct {
	Alloc [][]float64
	S     []float64
}

// NewZeroDecision returns the all-zero allocation.
func NewZeroDecision(s *System) *Decision {
	d := &Decision{
		Alloc: make([][]float64, s.NumPaths()),
		S:     make([]float64, s.NumPaths()),
	}
	for p := range d.Alloc {
		d.Alloc[p] = make([]float64, len(s.PathResources(p)))
	}
	return d
}

// ResourceTotals returns the per-resource aggregate allocation G_r.
func (d *Decision) ResourceTotals(s *System) []float64 {
	g := make([]float64, s.NumResources())
	for p := range d.Alloc {
		for k, r := range s.PathResources(p) {
			g[r] += d.Alloc[p][k]
		}
	}
	return g
}

// FeasibleAt reports whether the decision covers the workload and respects
// capacities at the given slot (within tol), returning the worst violation.
func (d *Decision) FeasibleAt(s *System, workload []float64, tol float64) (bool, float64) {
	worst := 0.0
	viol := func(v float64) {
		if v > worst {
			worst = v
		}
	}
	for j := range workload {
		var cover float64
		for _, p := range s.PathsOf(j) {
			m := math.Inf(1)
			for k := range d.Alloc[p] {
				if d.Alloc[p][k] < m {
					m = d.Alloc[p][k]
				}
			}
			cover += m
		}
		viol(workload[j] - cover)
	}
	for r, g := range d.ResourceTotals(s) {
		viol(g - s.ResCap[r])
	}
	for p := range d.Alloc {
		viol(-d.S[p])
		for k := range d.Alloc[p] {
			viol(-d.Alloc[p][k])
		}
	}
	return worst <= tol, worst
}

// SlotCost returns the exact cost of decision cur at slot t following prev.
func (s *System) SlotCost(in *Inputs, t int, prev, cur *Decision) float64 {
	var cost float64
	for p := range cur.Alloc {
		for k, r := range s.PathResources(p) {
			cost += s.resourcePrice(in, t, r) * cur.Alloc[p][k]
		}
	}
	gPrev := prev.ResourceTotals(s)
	gCur := cur.ResourceTotals(s)
	for r := range gCur {
		if d := gCur[r] - gPrev[r]; d > 0 {
			cost += s.ResReconf[r] * d
		}
	}
	return cost
}

// SequenceCost sums SlotCost over a horizon starting from zero allocation.
func (s *System) SequenceCost(in *Inputs, seq []*Decision) float64 {
	prev := NewZeroDecision(s)
	var total float64
	for t, d := range seq {
		total += s.SlotCost(in, t, prev, d)
		prev = d
	}
	return total
}

// varLayout indexes the per-slot decision variables: one allocation variable
// per (path, on-path resource) and one s per path.
type varLayout struct {
	s        *System
	allocOff []int // start of path p's allocation block
	sOff     int
	numVars  int
}

func newVarLayout(s *System) *varLayout {
	l := &varLayout{s: s, allocOff: make([]int, s.NumPaths())}
	cursor := 0
	for p := 0; p < s.NumPaths(); p++ {
		l.allocOff[p] = cursor
		cursor += len(s.PathResources(p))
	}
	l.sOff = cursor
	cursor += s.NumPaths()
	l.numVars = cursor
	return l
}

func (l *varLayout) allocVar(p, k int) int { return l.allocOff[p] + k }
func (l *varLayout) sVar(p int) int        { return l.sOff + p }

func (l *varLayout) extract(v []float64) *Decision {
	d := NewZeroDecision(l.s)
	for p := range d.Alloc {
		for k := range d.Alloc[p] {
			d.Alloc[p][k] = math.Max(0, v[l.allocVar(p, k)])
		}
		d.S[p] = math.Max(0, v[l.sVar(p)])
	}
	return d
}

// coldStart is the slot's structured start, built as core's P2.ColdStart
// builds P2's: each demand λ_j split evenly over its paths with safety
// margins, every allocation 1% above its path's throughput. Where a
// capacity cannot hold it, convex.Solve hands it to the primal–dual loop.
func (l *varLayout) coldStart(workload []float64) []float64 {
	v := make([]float64, l.numVars)
	for j, lam := range workload {
		paths := l.s.PathsOf(j)
		if len(paths) == 0 {
			continue
		}
		share := lam / float64(len(paths))
		for _, p := range paths {
			sp := share + 1e-3 + 1e-3*share
			v[l.sVar(p)] = sp
			for k := range l.s.PathResources(p) {
				v[l.allocVar(p, k)] = sp * 1.01
			}
		}
	}
	return v
}

// Params are the N-tier regularization parameters (a single ε for all
// resources, matching the paper's ε = ε′ evaluation setting).
type Params struct {
	Eps float64
}

// SolveSlot solves the regularized subproblem for slot t given prev. A
// solve that stops short of convergence, or whose decision breaks the
// slot's constraints by more than 1e-4, is an error.
func SolveSlot(s *System, in *Inputs, t int, prev *Decision, params Params, opts convex.Options) (*Decision, error) {
	if params.Eps <= 0 {
		return nil, fmt.Errorf("ntier: ε = %g", params.Eps)
	}
	if err := in.Validate(s); err != nil {
		return nil, err
	}
	if t < 0 || t >= in.T {
		return nil, fmt.Errorf("ntier: slot %d outside horizon", t)
	}
	l := newVarLayout(s)

	obj := &convex.Entropic{Linear: make([]float64, l.numVars)}
	// Linear prices.
	for p := 0; p < s.NumPaths(); p++ {
		for k, r := range s.PathResources(p) {
			obj.Linear[l.allocVar(p, k)] = s.resourcePrice(in, t, r)
		}
	}
	// Entropic movement penalty per resource aggregate.
	gPrev := prev.ResourceTotals(s)
	members := make([][]int, s.NumResources())
	for p := 0; p < s.NumPaths(); p++ {
		for k, r := range s.PathResources(p) {
			members[r] = append(members[r], l.allocVar(p, k))
		}
	}
	for r := 0; r < s.NumResources(); r++ {
		//sorallint:ignore floatcmp a zero reconfiguration price disables the penalty group; the skip is exact by contract
		if s.ResReconf[r] == 0 || len(members[r]) == 0 {
			continue
		}
		eta := math.Log(1 + s.ResCap[r]/params.Eps)
		if eta <= 0 {
			continue // zero-capacity resource: there is no allocation to penalize
		}
		obj.Groups = append(obj.Groups, convex.EntGroup{
			Members: members[r],
			Coef:    s.ResReconf[r] / eta,
			Eps:     params.Eps,
			Prev:    gPrev[r],
		})
	}

	// Constraints: s ≤ every on-path allocation; coverage; s ≥ 0; capacity.
	var rows [][]lp.Entry
	var rhs []float64
	add := func(es []lp.Entry, h float64) {
		rows = append(rows, es)
		rhs = append(rhs, h)
	}
	for p := 0; p < s.NumPaths(); p++ {
		for k := range s.PathResources(p) {
			add([]lp.Entry{{Index: l.sVar(p), Val: 1}, {Index: l.allocVar(p, k), Val: -1}}, 0)
		}
		add([]lp.Entry{{Index: l.sVar(p), Val: -1}}, 0)
	}
	for j := range in.Workload[t] {
		es := make([]lp.Entry, 0, len(s.PathsOf(j)))
		for _, p := range s.PathsOf(j) {
			es = append(es, lp.Entry{Index: l.sVar(p), Val: -1})
		}
		add(es, -in.Workload[t][j])
	}
	for r := 0; r < s.NumResources(); r++ {
		if len(members[r]) == 0 {
			continue
		}
		es := make([]lp.Entry, 0, len(members[r]))
		for _, v := range members[r] {
			es = append(es, lp.Entry{Index: v, Val: 1})
		}
		add(es, s.ResCap[r])
	}

	g := lp.NewSparseMatrix(len(rows), l.numVars)
	for r, es := range rows {
		for _, e := range es {
			g.Append(r, e.Index, e.Val)
		}
	}
	res, err := convex.Solve(&convex.Problem{Obj: obj, G: g, H: rhs}, l.coldStart(in.Workload[t]), opts)
	if err != nil {
		return nil, fmt.Errorf("ntier: slot %d: %w", t, err)
	}
	// A primal–dual exit short of convergence may still break G·x ≤ h.
	if !res.Converged {
		return nil, fmt.Errorf("ntier: slot %d: solve stopped after %d steps, short of its tolerance", t, res.NewtonIters)
	}
	d := l.extract(res.X)
	if ok, v := d.FeasibleAt(s, in.Workload[t], 1e-4); !ok {
		return nil, fmt.Errorf("ntier: slot %d: decision breaks the slot's constraints by %g", t, v)
	}
	return d, nil
}

// RunOnline executes the regularized online algorithm over the horizon.
func RunOnline(s *System, in *Inputs, params Params, opts convex.Options) ([]*Decision, error) {
	prev := NewZeroDecision(s)
	out := make([]*Decision, 0, in.T)
	for t := 0; t < in.T; t++ {
		d, err := SolveSlot(s, in, t, prev, params, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
		prev = d
	}
	return out, nil
}

// buildOffline formulates the offline problem over in's horizon as a
// staircase LP. prev supplies the resource totals in force before the first
// slot (nil = zero).
func (s *System) buildOffline(in *Inputs, prev *Decision) (*lp.Problem, *varLayout, []int, []int, error) {
	if err := in.Validate(s); err != nil {
		return nil, nil, nil, nil, err
	}
	if prev == nil {
		prev = NewZeroDecision(s)
	}
	gPrev := prev.ResourceTotals(s)
	l := newVarLayout(s)
	perSlot := l.numVars + s.NumResources() // + reconfiguration epigraph vars
	T := in.T
	prob := lp.NewProblem(perSlot * T)
	slotOfVar := make([]int, perSlot*T)
	var slotOfCons []int

	varAt := func(t, v int) int { return t*perSlot + v }
	reconfVar := func(t, r int) int { return t*perSlot + l.numVars + r }

	members := make([][]int, s.NumResources())
	for p := 0; p < s.NumPaths(); p++ {
		for k, r := range s.PathResources(p) {
			members[r] = append(members[r], l.allocVar(p, k))
		}
	}

	for t := 0; t < T; t++ {
		for v := 0; v < perSlot; v++ {
			slotOfVar[varAt(t, 0)+v] = t
		}
		// Objective.
		for p := 0; p < s.NumPaths(); p++ {
			for k, r := range s.PathResources(p) {
				prob.C[varAt(t, l.allocVar(p, k))] = s.resourcePrice(in, t, r)
			}
		}
		for r := 0; r < s.NumResources(); r++ {
			prob.C[reconfVar(t, r)] = s.ResReconf[r]
		}
		// Coverage chain.
		for p := 0; p < s.NumPaths(); p++ {
			for k := range s.PathResources(p) {
				prob.AddConstraint([]lp.Entry{
					{Index: varAt(t, l.allocVar(p, k)), Val: 1},
					{Index: varAt(t, l.sVar(p)), Val: -1},
				}, lp.GE, 0, "alloc>=s")
				slotOfCons = append(slotOfCons, t)
			}
		}
		for j := range in.Workload[t] {
			es := make([]lp.Entry, 0, len(s.PathsOf(j)))
			for _, p := range s.PathsOf(j) {
				es = append(es, lp.Entry{Index: varAt(t, l.sVar(p)), Val: 1})
			}
			prob.AddConstraint(es, lp.GE, in.Workload[t][j], "cover")
			slotOfCons = append(slotOfCons, t)
		}
		// Capacity and reconfiguration epigraph per resource.
		for r := 0; r < s.NumResources(); r++ {
			if len(members[r]) == 0 {
				continue
			}
			capRow := make([]lp.Entry, 0, len(members[r]))
			for _, v := range members[r] {
				capRow = append(capRow, lp.Entry{Index: varAt(t, v), Val: 1})
			}
			prob.AddConstraint(capRow, lp.LE, s.ResCap[r], "cap")
			slotOfCons = append(slotOfCons, t)

			re := make([]lp.Entry, 0, 2*len(members[r])+1)
			rhs := 0.0
			for _, v := range members[r] {
				re = append(re, lp.Entry{Index: varAt(t, v), Val: 1})
				if t > 0 {
					re = append(re, lp.Entry{Index: varAt(t-1, v), Val: -1})
				}
			}
			if t == 0 {
				rhs = gPrev[r]
			}
			re = append(re, lp.Entry{Index: reconfVar(t, r), Val: -1})
			prob.AddConstraint(re, lp.LE, rhs, "reconf")
			slotOfCons = append(slotOfCons, t)
		}
	}
	return prob, l, slotOfVar, slotOfCons, nil
}

// RunOffline solves the clairvoyant optimum over the whole horizon.
func RunOffline(s *System, in *Inputs, opts lp.Options) ([]*Decision, float64, error) {
	prob, l, slotOfVar, slotOfCons, err := s.buildOffline(in, nil)
	if err != nil {
		return nil, 0, err
	}
	var sol *lp.GeneralSolution
	if in.T <= 3 {
		sol, err = lp.Solve(prob, opts)
	} else {
		sol, err = staircase.Solve(prob, slotOfCons, slotOfVar, in.T, opts)
	}
	if err != nil {
		return nil, 0, err
	}
	if sol.Status != lp.Optimal {
		return nil, 0, fmt.Errorf("ntier: offline status %v", sol.Status)
	}
	perSlot := l.numVars + s.NumResources()
	out := make([]*Decision, in.T)
	for t := 0; t < in.T; t++ {
		out[t] = l.extract(sol.X[t*perSlot : t*perSlot+l.numVars])
	}
	return out, sol.Obj, nil
}

// RunGreedy follows the workload with one-shot slices (no smoothing).
func RunGreedy(s *System, in *Inputs, opts lp.Options) ([]*Decision, error) {
	prev := NewZeroDecision(s)
	out := make([]*Decision, 0, in.T)
	for t := 0; t < in.T; t++ {
		one := &Inputs{
			T:          1,
			PriceCloud: in.PriceCloud[t : t+1],
			Workload:   in.Workload[t : t+1],
		}
		prob, l, _, _, err := s.buildOffline(one, prev)
		if err != nil {
			return nil, err
		}
		sol, _, err := lp.SolveResilient(prob, opts)
		if err != nil {
			return nil, fmt.Errorf("ntier: greedy slot %d: %w", t, err)
		}
		d := l.extract(sol.X[:l.numVars])
		out = append(out, d)
		prev = d
	}
	return out, nil
}
