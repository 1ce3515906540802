package model

import (
	"errors"
	"fmt"

	"soral/internal/lp"
)

// Layout is the variable/constraint layout of a P1 linear program over a
// window of W slots. It exposes enough structure for both dense solves and
// the staircase (block-tridiagonal) interior-point backend: every variable
// and every constraint is assigned to a time slot, and constraints reference
// variables of their own slot or the immediately preceding one only.
type Layout struct {
	Net *Network
	W   int

	// Offsets of each variable family within a slot block.
	perSlot                int
	xOff, yOff, zOff, sOff int
	vOff, wOff, uOff       int
	endV, endW, endU       []int // end-pin auxiliary variables (nil without a pin)
	SlotOfVar              []int // time slot of every variable
	SlotOfCons             []int // time slot of every constraint row
	Prob                   *lp.Problem
}

// XVar returns the index of x_p at slot t.
func (l *Layout) XVar(t, p int) int { return t*l.perSlot + l.xOff + p }

// YVar returns the index of y_p at slot t.
func (l *Layout) YVar(t, p int) int { return t*l.perSlot + l.yOff + p }

// ZVar returns the index of z_p at slot t (tier-1 enabled only).
func (l *Layout) ZVar(t, p int) int { return t*l.perSlot + l.zOff + p }

// SVar returns the index of the auxiliary s_p at slot t.
func (l *Layout) SVar(t, p int) int { return t*l.perSlot + l.sOff + p }

// VVar returns the index of the tier-2 reconfiguration auxiliary v_i at slot t.
func (l *Layout) VVar(t, i int) int { return t*l.perSlot + l.vOff + i }

// WVar returns the index of the network reconfiguration auxiliary w_p at slot t.
func (l *Layout) WVar(t, p int) int { return t*l.perSlot + l.wOff + p }

// UVar returns the index of the tier-1 reconfiguration auxiliary u_j at slot t.
func (l *Layout) UVar(t, j int) int { return t*l.perSlot + l.uOff + j }

// ExtractDecisions maps an LP solution vector back to per-slot decisions,
// clamping solver noise (tiny negatives) to zero.
func (l *Layout) ExtractDecisions(x []float64) []*Decision {
	out := make([]*Decision, l.W)
	np := l.Net.NumPairs()
	for t := 0; t < l.W; t++ {
		d := NewZeroDecision(l.Net)
		for p := 0; p < np; p++ {
			d.X[p] = clampNonneg(x[l.XVar(t, p)])
			d.Y[p] = clampNonneg(x[l.YVar(t, p)])
			if l.Net.Tier1 {
				d.Z[p] = clampNonneg(x[l.ZVar(t, p)])
			}
		}
		out[t] = d
	}
	return out
}

func clampNonneg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// BuildP1 formulates problem P1 over the window described by in (W = in.T
// slots), linearizing the [·]⁺ reconfiguration terms with auxiliary
// variables (the P3 relaxation's v/w rows used as exact epigraph rows):
//
//	minimize  Σ_t Σ_p a·x + c·y (+ e·z)  +  Σ_t Σ_i b_i·v_it + Σ_t Σ_p d_p·w_pt (+ Σ f_j·u_jt)
//	s.t.      x ≥ s, y ≥ s (, z ≥ s),  Σ_{p∈P(j)} s ≥ λ_jt,
//	          Σ_{p∈P(i)} x ≤ C_i,  y ≤ B_p (, Σ_{p∈P(j)} z ≤ C_j),
//	          v_it ≥ Σ_{p∈P(i)} x_pt − Σ_{p∈P(i)} x_p,t−1,  v ≥ 0, and likewise w (, u).
//
// prev is the decision in force before the first slot (zero when nil).
// endPin, when non-nil, is a fixed decision for the slot just after the
// window; the reconfiguration cost from the last window slot into endPin is
// then included (the paper's P1(x_{τ−1}; …; x_κ) pinned-end problem).
func BuildP1(n *Network, in *Inputs, prev, endPin *Decision) (*Layout, error) {
	return buildP1(n, in, prev, endPin, false)
}

// BuildP1Reversed builds the time-reversed-reconfiguration variant of P1
// used by LCP-M's upper envelope: the switching cost is charged on
// *decreases*, v_t ≥ x_{t−1} − x_t, instead of increases.
func BuildP1Reversed(n *Network, in *Inputs, prev *Decision) (*Layout, error) {
	return buildP1(n, in, prev, nil, true)
}

func buildP1(n *Network, in *Inputs, prev, endPin *Decision, reversed bool) (*Layout, error) {
	if reversed && endPin != nil {
		return nil, errors.New("model: end pin is not supported with reversed reconfiguration")
	}
	if err := in.Validate(n); err != nil {
		return nil, err
	}
	if in.T == 0 {
		return nil, errors.New("model: empty window")
	}
	if prev == nil {
		prev = NewZeroDecision(n)
	}
	if err := prev.Validate(n); err != nil {
		return nil, fmt.Errorf("model: prev decision: %w", err)
	}
	if endPin != nil {
		if err := endPin.Validate(n); err != nil {
			return nil, fmt.Errorf("model: end pin: %w", err)
		}
	}

	np := n.NumPairs()
	ni := n.NumTier2
	nj := n.NumTier1
	W := in.T

	l := &Layout{Net: n, W: W}
	l.xOff = 0
	l.yOff = np
	cursor := 2 * np
	if n.Tier1 {
		l.zOff = cursor
		cursor += np
	}
	l.sOff = cursor
	cursor += np
	l.vOff = cursor
	cursor += ni
	l.wOff = cursor
	cursor += np
	if n.Tier1 {
		l.uOff = cursor
		cursor += nj
	}
	l.perSlot = cursor

	numVars := W * l.perSlot
	endPinVars := 0
	if endPin != nil {
		endPinVars = ni + np
		if n.Tier1 {
			endPinVars += nj
		}
	}
	prob := lp.NewProblem(numVars + endPinVars)
	l.Prob = prob
	l.SlotOfVar = make([]int, numVars+endPinVars)
	for t := 0; t < W; t++ {
		for k := 0; k < l.perSlot; k++ {
			l.SlotOfVar[t*l.perSlot+k] = t
		}
	}
	for k := numVars; k < numVars+endPinVars; k++ {
		l.SlotOfVar[k] = W - 1
	}

	// Objective coefficients and bounds.
	for t := 0; t < W; t++ {
		for p, pr := range n.Pairs {
			prob.C[l.XVar(t, p)] = in.PriceT2[t][pr.I]
			prob.C[l.YVar(t, p)] = n.PriceNet[p]
			prob.Hi[l.YVar(t, p)] = n.CapNet[p] // y ≤ B_ij as a variable bound
			if n.Tier1 {
				prob.C[l.ZVar(t, p)] = in.PriceT1[t][pr.J]
			}
			prob.C[l.WVar(t, p)] = n.ReconfNet[p]
		}
		for i := 0; i < ni; i++ {
			prob.C[l.VVar(t, i)] = n.ReconfT2[i]
		}
		if n.Tier1 {
			for j := 0; j < nj; j++ {
				prob.C[l.UVar(t, j)] = n.ReconfT1[j]
			}
		}
	}
	if endPin != nil {
		for i := 0; i < ni; i++ {
			prob.C[numVars+i] = n.ReconfT2[i]
		}
		for p := 0; p < np; p++ {
			prob.C[numVars+ni+p] = n.ReconfNet[p]
		}
		if n.Tier1 {
			for j := 0; j < nj; j++ {
				prob.C[numVars+ni+np+j] = n.ReconfT1[j]
			}
		}
	}

	addCons := func(t int, entries []lp.Entry, sense lp.Sense, rhs float64, name string) {
		prob.AddConstraint(entries, sense, rhs, name)
		l.SlotOfCons = append(l.SlotOfCons, t)
	}

	for t := 0; t < W; t++ {
		// Coverage chain: x ≥ s, y ≥ s (, z ≥ s).
		for p := 0; p < np; p++ {
			addCons(t, []lp.Entry{{Index: l.XVar(t, p), Val: 1}, {Index: l.SVar(t, p), Val: -1}}, lp.GE, 0, "x>=s")
			addCons(t, []lp.Entry{{Index: l.YVar(t, p), Val: 1}, {Index: l.SVar(t, p), Val: -1}}, lp.GE, 0, "y>=s")
			if n.Tier1 {
				addCons(t, []lp.Entry{{Index: l.ZVar(t, p), Val: 1}, {Index: l.SVar(t, p), Val: -1}}, lp.GE, 0, "z>=s")
			}
		}
		// Demand coverage: Σ_{p∈P(j)} s ≥ λ_jt.
		for j := 0; j < nj; j++ {
			es := make([]lp.Entry, 0, len(n.PairsOfJ(j)))
			for _, p := range n.PairsOfJ(j) {
				es = append(es, lp.Entry{Index: l.SVar(t, p), Val: 1})
			}
			addCons(t, es, lp.GE, in.Workload[t][j], "cover")
		}
		// Tier-2 capacity: Σ_{p∈P(i)} x ≤ C_i.
		for i := 0; i < ni; i++ {
			pairs := n.PairsOfI(i)
			if len(pairs) == 0 {
				continue
			}
			es := make([]lp.Entry, 0, len(pairs))
			for _, p := range pairs {
				es = append(es, lp.Entry{Index: l.XVar(t, p), Val: 1})
			}
			addCons(t, es, lp.LE, n.CapT2[i], "capT2")
		}
		// Tier-1 capacity.
		if n.Tier1 {
			for j := 0; j < nj; j++ {
				es := make([]lp.Entry, 0, len(n.PairsOfJ(j)))
				for _, p := range n.PairsOfJ(j) {
					es = append(es, lp.Entry{Index: l.ZVar(t, p), Val: 1})
				}
				addCons(t, es, lp.LE, n.CapT1[j], "capT1")
			}
		}
		// Reconfiguration epigraphs: v ≥ Σx_t − Σx_{t−1} for the forward
		// problem, v ≥ Σx_{t−1} − Σx_t for the reversed variant.
		sign := 1.0
		if reversed {
			sign = -1
		}
		for i := 0; i < ni; i++ {
			es := make([]lp.Entry, 0, 2*len(n.PairsOfI(i))+1)
			rhs := 0.0
			for _, p := range n.PairsOfI(i) {
				es = append(es, lp.Entry{Index: l.XVar(t, p), Val: sign})
				if t > 0 {
					es = append(es, lp.Entry{Index: l.XVar(t-1, p), Val: -sign})
				} else {
					rhs += sign * prev.X[p]
				}
			}
			es = append(es, lp.Entry{Index: l.VVar(t, i), Val: -1})
			addCons(t, es, lp.LE, rhs, "reconfT2")
		}
		for p := 0; p < np; p++ {
			es := []lp.Entry{{Index: l.YVar(t, p), Val: sign}, {Index: l.WVar(t, p), Val: -1}}
			rhs := 0.0
			if t > 0 {
				es = append(es, lp.Entry{Index: l.YVar(t-1, p), Val: -sign})
			} else {
				rhs = sign * prev.Y[p]
			}
			addCons(t, es, lp.LE, rhs, "reconfNet")
		}
		if n.Tier1 {
			for j := 0; j < nj; j++ {
				es := make([]lp.Entry, 0, 2*len(n.PairsOfJ(j))+1)
				rhs := 0.0
				for _, p := range n.PairsOfJ(j) {
					es = append(es, lp.Entry{Index: l.ZVar(t, p), Val: sign})
					if t > 0 {
						es = append(es, lp.Entry{Index: l.ZVar(t-1, p), Val: -sign})
					} else {
						rhs += sign * prev.Z[p]
					}
				}
				es = append(es, lp.Entry{Index: l.UVar(t, j), Val: -1})
				addCons(t, es, lp.LE, rhs, "reconfT1")
			}
		}
	}

	// End pin: reconfiguration from the last window slot into the fixed
	// decision endPin. vEnd_i ≥ ΣendPin.x − Σx_{W−1}, etc.
	if endPin != nil {
		last := W - 1
		for i := 0; i < ni; i++ {
			vi := numVars + i
			es := make([]lp.Entry, 0, len(n.PairsOfI(i))+1)
			pinSum := 0.0
			for _, p := range n.PairsOfI(i) {
				es = append(es, lp.Entry{Index: l.XVar(last, p), Val: -1})
				pinSum += endPin.X[p]
			}
			es = append(es, lp.Entry{Index: vi, Val: -1})
			addCons(last, es, lp.LE, -pinSum, "endReconfT2")
		}
		for p := 0; p < np; p++ {
			wp := numVars + ni + p
			es := []lp.Entry{{Index: l.YVar(last, p), Val: -1}, {Index: wp, Val: -1}}
			addCons(last, es, lp.LE, -endPin.Y[p], "endReconfNet")
		}
		if n.Tier1 {
			for j := 0; j < nj; j++ {
				uj := numVars + ni + np + j
				es := make([]lp.Entry, 0, len(n.PairsOfJ(j))+1)
				pinSum := 0.0
				for _, p := range n.PairsOfJ(j) {
					es = append(es, lp.Entry{Index: l.ZVar(last, p), Val: -1})
					pinSum += endPin.Z[p]
				}
				es = append(es, lp.Entry{Index: uj, Val: -1})
				addCons(last, es, lp.LE, -pinSum, "endReconfT1")
			}
		}
		l.endV = seqInts(numVars, ni)
		l.endW = seqInts(numVars+ni, np)
		if n.Tier1 {
			l.endU = seqInts(numVars+ni+np, nj)
		}
	}
	return l, nil
}

func seqInts(start, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = start + i
	}
	return s
}

// SolveP1Dense builds and solves P1 with the dense interior-point backend,
// returning the per-slot decisions and the LP objective value.
func SolveP1Dense(n *Network, in *Inputs, prev, endPin *Decision, opts lp.Options) ([]*Decision, float64, error) {
	l, err := BuildP1(n, in, prev, endPin)
	if err != nil {
		return nil, 0, err
	}
	sol, err := lp.Solve(l.Prob, opts)
	if err != nil {
		return nil, 0, err
	}
	if sol.Status != lp.Optimal {
		return nil, 0, fmt.Errorf("model: P1 solve status %v", sol.Status)
	}
	return l.ExtractDecisions(sol.X), sol.Obj, nil
}
