package core

import (
	"fmt"
	"math"

	"soral/internal/convex"
	"soral/internal/lp"
	"soral/internal/model"
)

// SolverID names the P2 solver the online pipeline's decisions come from:
// the barrier method with the per-cloud block map and a product-form border
// folded into its cells, whose line search carries the slack along the
// search ray and tests the merit's change along it, and which follows the
// central path (loose centering before the final stage, a tangent
// predictor between stages), and the Mehrotra primal–dual loop on the same
// Newton system on the warm rung's carried point, whose multipliers start
// from the previous slot's exit duals where its rows repeat, on the rescue
// rungs and wherever the structured start breaks a row, which it starts
// outside G·x ≤ h with no phase I (DESIGN.md §5, §13, §15). Journals record
// it (journal.Header.Solver), so a change to P2's arithmetic must change it
// too.
const SolverID = "convex-barrier-pathfollow+pd-infeasible-start+carried-duals/p2-cells-raychange"

// P2 is the regularized subproblem for one time slot, ready to be solved by
// the convex engine: the barrier method from the structured start, or the
// primal–dual loop from the warm rung's carried point and on the rescue
// rungs.
type P2 struct {
	Net *model.Network
	// Variable layout: x (per pair), y (per pair), optional z (per pair),
	// then the auxiliary s (per pair).
	NumVars                int
	XOff, YOff, ZOff, SOff int

	Prob *convex.Problem

	// Where the λ_t-, price- and prev-dependent numbers live inside the
	// built problem, so fill can write them for a slot: BuildP2 lays the
	// structure out and fills it once, Patch refills it in place when the
	// next slot's constraint topology matches (DESIGN.md §13). Everything
	// else — sparsity, group membership, coefficients, capacity rows — is
	// slot-invariant.
	groups []groupRef // source of Obj.Groups[k].Prev, aligned with Groups
	idx3c  []int      // row index of (3c) per tier-1 cloud j
	act3d  []bool     // whether cloud i's (3d) covering row was active
	idx3d  []int      // row index per active (3d) row, ascending cloud order
	act3e  []bool     // whether pair p's (3e) covering row was active
	idx3e  []int      // row index per active (3e) row, ascending pair order
}

// groupRef names the model quantity an entropic group's Prev anchor is the
// previous-decision sum of.
type groupRef struct {
	kind int8 // groupT2 | groupNet | groupT1
	idx  int  // tier-2 cloud, pair, or tier-1 cloud index respectively
}

const (
	groupT2 int8 = iota
	groupNet
	groupT1
)

// BuildP2 constructs P2(t) (equations 3a–3f) for the given slot from the
// previous slot's decision: it lays out the structure (variables, rows,
// sparsity, entropic groups, which covering rows are active) and then
// writes the slot's numbers with fill. Besides the paper's covering
// constraints (3d) and (3e), the explicit capacity constraints of P1 are
// included as numerical safeguards; Lemma 1 shows they are inactive at the
// optimum, so the solution is unchanged.
func BuildP2(n *model.Network, in *model.Inputs, t int, prev *model.Decision, params Params) (*P2, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if t < 0 || t >= in.T {
		return nil, fmt.Errorf("core: slot %d outside horizon %d", t, in.T)
	}
	np := n.NumPairs()
	p2 := &P2{Net: n}
	p2.XOff = 0
	p2.YOff = np
	cursor := 2 * np
	if n.Tier1 {
		p2.ZOff = cursor
		cursor += np
	}
	p2.SOff = cursor
	cursor += np
	p2.NumVars = cursor

	lam := in.Workload[t]
	totalLam := sumOf(lam)

	// ---- Objective (fill writes the prices and the entropic anchors) ----
	obj := &convex.Entropic{Linear: make([]float64, p2.NumVars)}
	for i := 0; i < n.NumTier2; i++ {
		pairs := n.PairsOfI(i)
		//sorallint:ignore floatcmp a zero reconfiguration price disables the penalty group; the skip is exact by contract
		if len(pairs) == 0 || n.ReconfT2[i] == 0 {
			continue
		}
		members := make([]int, len(pairs))
		for k, p := range pairs {
			members[k] = p2.XOff + p
		}
		obj.Groups = append(obj.Groups, convex.EntGroup{
			Members: members,
			Coef:    n.ReconfT2[i] / params.EtaT2(n, i),
			Eps:     params.EpsT2,
		})
		p2.groups = append(p2.groups, groupRef{kind: groupT2, idx: i})
	}
	for p := 0; p < np; p++ {
		//sorallint:ignore floatcmp a zero reconfiguration price disables the penalty group; the skip is exact by contract
		if n.ReconfNet[p] == 0 {
			continue
		}
		obj.Groups = append(obj.Groups, convex.EntGroup{
			Members: []int{p2.YOff + p},
			Coef:    n.ReconfNet[p] / params.EtaNet(n, p),
			Eps:     params.EpsNet,
		})
		p2.groups = append(p2.groups, groupRef{kind: groupNet, idx: p})
	}
	if n.Tier1 {
		for j := 0; j < n.NumTier1; j++ {
			//sorallint:ignore floatcmp a zero reconfiguration price disables the penalty group; the skip is exact by contract
			if n.ReconfT1[j] == 0 {
				continue
			}
			pairs := n.PairsOfJ(j)
			members := make([]int, len(pairs))
			for k, p := range pairs {
				members[k] = p2.ZOff + p
			}
			obj.Groups = append(obj.Groups, convex.EntGroup{
				Members: members,
				Coef:    n.ReconfT1[j] / params.EtaT1(n, j),
				Eps:     params.epsT1(),
			})
			p2.groups = append(p2.groups, groupRef{kind: groupT1, idx: j})
		}
	}

	// ---- Constraints (all rows G·v ≤ h; fill writes the (3c)–(3e) right-hand sides) ----
	type row struct {
		es  []lp.Entry
		rhs float64
	}
	var rows []row
	add := func(es []lp.Entry, rhs float64) {
		rows = append(rows, row{es, rhs})
	}
	// (3a)/(3b)(/z): s ≤ x, s ≤ y, s ≤ z.
	for p := 0; p < np; p++ {
		add([]lp.Entry{{Index: p2.SOff + p, Val: 1}, {Index: p2.XOff + p, Val: -1}}, 0)
		add([]lp.Entry{{Index: p2.SOff + p, Val: 1}, {Index: p2.YOff + p, Val: -1}}, 0)
		if n.Tier1 {
			add([]lp.Entry{{Index: p2.SOff + p, Val: 1}, {Index: p2.ZOff + p, Val: -1}}, 0)
		}
		// (3f): s ≥ 0.
		add([]lp.Entry{{Index: p2.SOff + p, Val: -1}}, 0)
	}
	// (3c): Σ_{p∈P(j)} s ≥ λ_j.
	for j := 0; j < n.NumTier1; j++ {
		es := make([]lp.Entry, 0, len(n.PairsOfJ(j)))
		for _, p := range n.PairsOfJ(j) {
			es = append(es, lp.Entry{Index: p2.SOff + p, Val: -1})
		}
		p2.idx3c = append(p2.idx3c, len(rows))
		add(es, 0)
	}
	// (3d): Σ_{k≠i} Σ_{p∈P(k)} x ≥ [Σ_j λ_j − C_i]⁺ for every tier-2 cloud i.
	p2.act3d = make([]bool, n.NumTier2)
	for i := 0; i < n.NumTier2; i++ {
		if !covers(totalLam - n.CapT2[i]) {
			continue // the [·]⁺ is zero and the row is implied by x ≥ 0
		}
		var es []lp.Entry
		for k := 0; k < n.NumTier2; k++ {
			if k == i {
				continue
			}
			for _, p := range n.PairsOfI(k) {
				es = append(es, lp.Entry{Index: p2.XOff + p, Val: -1})
			}
		}
		if len(es) == 0 {
			return nil, fmt.Errorf("core: slot %d infeasible — cloud %d cannot be covered by others", t, i)
		}
		p2.act3d[i] = true
		p2.idx3d = append(p2.idx3d, len(rows))
		add(es, 0)
	}
	// (3e): Σ_{k∈I_j, k≠i} y_kj ≥ [λ_j − B_ij]⁺ for every pair (i,j).
	p2.act3e = make([]bool, np)
	for p, pr := range n.Pairs {
		if !covers(lam[pr.J] - n.CapNet[p]) {
			continue
		}
		var es []lp.Entry
		for _, q := range n.PairsOfJ(pr.J) {
			if q == p {
				continue
			}
			es = append(es, lp.Entry{Index: p2.YOff + q, Val: -1})
		}
		if len(es) == 0 {
			return nil, fmt.Errorf("core: slot %d infeasible — pair %d cannot be covered by alternatives", t, p)
		}
		p2.act3e[p] = true
		p2.idx3e = append(p2.idx3e, len(rows))
		add(es, 0)
	}
	// Capacity safeguards (inactive at the optimum per Lemma 1).
	for i := 0; i < n.NumTier2; i++ {
		pairs := n.PairsOfI(i)
		if len(pairs) == 0 {
			continue
		}
		es := make([]lp.Entry, 0, len(pairs))
		for _, p := range pairs {
			es = append(es, lp.Entry{Index: p2.XOff + p, Val: 1})
		}
		add(es, n.CapT2[i])
	}
	for p := 0; p < np; p++ {
		add([]lp.Entry{{Index: p2.YOff + p, Val: 1}}, n.CapNet[p])
	}
	if n.Tier1 {
		for j := 0; j < n.NumTier1; j++ {
			es := make([]lp.Entry, 0, len(n.PairsOfJ(j)))
			for _, p := range n.PairsOfJ(j) {
				es = append(es, lp.Entry{Index: p2.ZOff + p, Val: 1})
			}
			add(es, n.CapT1[j])
		}
	}

	g := lp.NewSparseMatrix(len(rows), p2.NumVars)
	h := make([]float64, len(rows))
	for r, rw := range rows {
		for _, e := range rw.es {
			g.Append(r, e.Index, e.Val)
		}
		h[r] = rw.rhs
	}
	p2.Prob = &convex.Problem{Obj: obj, G: g, H: h, Blocks: p2.blocks()}
	p2.fill(in, t, prev)
	return p2, nil
}

// blocks maps every variable to its pair's tier-1 cloud, the Newton
// system's block structure (DESIGN.md §15): the per-pair rows, (3c), (3e),
// the network and tier-1 capacity rows and the network and tier-1 entropic
// groups all stay inside one cloud's pairs, so only the x-coupling rows and
// groups — (3d), tier-2 capacity and the tier-2 groups — form the border.
func (p2 *P2) blocks() []int {
	b := make([]int, p2.NumVars)
	for p, pr := range p2.Net.Pairs {
		b[p2.XOff+p], b[p2.YOff+p], b[p2.SOff+p] = pr.J, pr.J, pr.J
		if p2.Net.Tier1 {
			b[p2.ZOff+p] = pr.J
		}
	}
	return b
}

// Extract maps the solver's variable vector to a model decision.
func (p2 *P2) Extract(v []float64) *model.Decision {
	d := model.NewZeroDecision(p2.Net)
	for p := 0; p < p2.Net.NumPairs(); p++ {
		d.X[p] = math.Max(0, v[p2.XOff+p])
		d.Y[p] = math.Max(0, v[p2.YOff+p])
		if p2.Net.Tier1 {
			d.Z[p] = math.Max(0, v[p2.ZOff+p])
		}
	}
	return d
}

// Patch refreshes a built P2 in place for a new slot: when the slot's
// (3d)/(3e) covering-row activity matches the built one, it refills the
// slot's numbers with the same fill BuildP2 uses and reuses every
// structural artifact (row sparsity, group membership, capacity
// safeguards), so the patched problem is bit-identical to a fresh BuildP2
// for the same (n, in, t, prev). It takes no parameters: they only enter
// the entropic groups' coefficients, which BuildP2 fixes. That keeps
// warm-started runs deterministic and resumable (DESIGN.md §13). It
// returns false when the activity pattern differs or t is out of range;
// the caller must then rebuild with BuildP2.
func (p2 *P2) Patch(in *model.Inputs, t int, prev *model.Decision) bool {
	if t < 0 || t >= in.T || p2.act3d == nil {
		return false
	}
	n := p2.Net
	lam := in.Workload[t]
	totalLam := sumOf(lam)
	// The activity pattern must repeat exactly — presence of a covering row
	// changes the constraint set, not just its numbers.
	for i := 0; i < n.NumTier2; i++ {
		if covers(totalLam-n.CapT2[i]) != p2.act3d[i] {
			return false
		}
	}
	for p, pr := range n.Pairs {
		if covers(lam[pr.J]-n.CapNet[p]) != p2.act3e[p] {
			return false
		}
	}
	p2.fill(in, t, prev)
	return true
}

// sameCovering reports whether P2 of slots t and u has the same (3d)/(3e)
// covering-row activity, and so the same rows in the same order: the
// condition under which the exit duals of one are a dual start for the
// other. It reads the inputs alone, as Patch does.
func sameCovering(n *model.Network, in *model.Inputs, t, u int) bool {
	if t == u {
		return true
	}
	lt, lu := in.Workload[t], in.Workload[u]
	tt, tu := sumOf(lt), sumOf(lu)
	for i := 0; i < n.NumTier2; i++ {
		if covers(tt-n.CapT2[i]) != covers(tu-n.CapT2[i]) {
			return false
		}
	}
	for p, pr := range n.Pairs {
		if covers(lt[pr.J]-n.CapNet[p]) != covers(lu[pr.J]-n.CapNet[p]) {
			return false
		}
	}
	return true
}

// covers reports whether a (3d)/(3e) covering row with right-hand side
// [need]⁺ is active. BuildP2 and Patch share it, so both read a NaN need
// as inactive.
func covers(need float64) bool { return need > 0 }

// fill writes every number of P2 that depends on the slot or the previous
// decision: the linear objective's prices, the entropic groups' Prev
// anchors (previous-decision sums), and the right-hand sides of the demand
// rows (3c) and the active covering rows (3d)/(3e).
func (p2 *P2) fill(in *model.Inputs, t int, prev *model.Decision) {
	n := p2.Net
	obj := p2.Prob.Obj.(*convex.Entropic)
	for p, pr := range n.Pairs {
		obj.Linear[p2.XOff+p] = in.PriceT2[t][pr.I]
		obj.Linear[p2.YOff+p] = n.PriceNet[p]
		if n.Tier1 {
			obj.Linear[p2.ZOff+p] = in.PriceT1[t][pr.J]
		}
	}
	for k, ref := range p2.groups {
		switch ref.kind {
		case groupT2:
			prevSum := 0.0
			for _, p := range n.PairsOfI(ref.idx) {
				prevSum += prev.X[p]
			}
			obj.Groups[k].Prev = prevSum
		case groupNet:
			obj.Groups[k].Prev = prev.Y[ref.idx]
		case groupT1:
			prevSum := 0.0
			for _, p := range n.PairsOfJ(ref.idx) {
				prevSum += prev.Z[p]
			}
			obj.Groups[k].Prev = prevSum
		}
	}
	lam := in.Workload[t]
	totalLam := sumOf(lam)
	h := p2.Prob.H
	for j, r := range p2.idx3c {
		h[r] = -lam[j]
	}
	k := 0
	for i := 0; i < n.NumTier2; i++ {
		if p2.act3d[i] {
			h[p2.idx3d[k]] = -(totalLam - n.CapT2[i])
			k++
		}
	}
	k = 0
	for p, pr := range n.Pairs {
		if p2.act3e[p] {
			h[p2.idx3e[k]] = -(lam[pr.J] - n.CapNet[p])
			k++
		}
	}
}

// sumOf returns Σ v in index order.
func sumOf(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// ColdStart is P2's structured start for slot t, which every rung but the
// warm rung's carried point solves from: each tier-1 cloud's demand routed
// evenly over its SLA pairs with safety margins, every allocation 1% above
// its pair's service level. It always returns the point. Where a capacity
// cannot hold it the point breaks that row, and convex.Solve hands it to
// the primal–dual loop, which starts outside G·x ≤ h (DESIGN.md §5).
func (p2 *P2) ColdStart(in *model.Inputs, t int) []float64 {
	n := p2.Net
	v := make([]float64, p2.NumVars)
	lam := in.Workload[t]
	for j := 0; j < n.NumTier1; j++ {
		pairs := n.PairsOfJ(j)
		if len(pairs) == 0 {
			continue // no SLA pairs to route this cloud's demand over
		}
		share := lam[j] / float64(len(pairs))
		for _, p := range pairs {
			s := share + 1e-3 + 1e-3*share
			v[p2.SOff+p] = s
			v[p2.XOff+p] = s * 1.01
			v[p2.YOff+p] = s * 1.01
			if n.Tier1 {
				v[p2.ZOff+p] = s * 1.01
			}
		}
	}
	return v
}
