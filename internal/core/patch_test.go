package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"soral/internal/convex"
	"soral/internal/model"
)

// coveringSwitchCase is a tier-1 network whose workload switches P2's
// conditional covering rows on and off from slot to slot: λ_0 = 7 exceeds
// the network capacities B = 6 of cloud 0's pairs, activating their (3e)
// rows, and a total demand of 10 exceeds the capacities C = 8 of tier-2
// clouds 0 and 2, activating their (3d) rows. Slots 1 and 4 share one
// activity pattern and slot 3 has another.
func coveringSwitchCase(t *testing.T) (*model.Network, *model.Inputs) {
	t.Helper()
	n, err := model.NewNetwork(3, 2,
		[]model.Pair{{I: 0, J: 0}, {I: 1, J: 0}, {I: 1, J: 1}, {I: 2, J: 1}},
		[]float64{8, 12, 8}, []float64{3, 2, 4},
		[]float64{6, 6, 6, 6}, []float64{0.7, 0.9, 0.6, 1.1}, []float64{2, 3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.EnableTier1([]float64{20, 20}, []float64{2, 1}); err != nil {
		t.Fatal(err)
	}
	in := &model.Inputs{
		T:        5,
		Workload: [][]float64{{3, 3}, {7, 3}, {3, 3.5}, {4, 7}, {7, 2.5}},
		PriceT2:  [][]float64{{1, 2, 1.5}, {1.2, 1.8, 1.5}, {1, 2.2, 1.1}, {0.9, 2, 1.6}, {1.3, 1.7, 1.4}},
		PriceT1:  [][]float64{{1, 2}, {1.5, 2}, {1, 2.5}, {0.8, 1.9}, {1.1, 2.1}},
	}
	return n, in
}

// TestPatchMatchesBuildP2 pins the skeleton-reuse contract of the warm-start
// layer (DESIGN.md §13). Every slot's P2 is built from the previous slot's
// committed decision of a warm run, and every other slot's build is patched
// to the same (slot, prev). Patch must refuse exactly when the (3d)/(3e)
// covering-row activity differs, and an accepted patch must equal the fresh
// build bit for bit: objective, entropic anchors, rows, right-hand sides and
// block map.
func TestPatchMatchesBuildP2(t *testing.T) {
	type namedCase struct {
		name  string
		build func(*testing.T) (*model.Network, *model.Inputs)
	}
	var cases []namedCase
	for _, c := range structuredCases() {
		cases = append(cases, namedCase{c.name, c.build})
	}
	cases = append(cases, namedCase{"covering-switch-tier1", coveringSwitchCase})
	refused := 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, in := c.build(t)
			opts := DefaultOptions()
			opts.WarmStart = true
			seq, err := RunOnline(n, in, opts)
			if err != nil {
				t.Fatal(err)
			}
			prevOf := func(tt int) *model.Decision {
				if tt == 0 {
					return model.NewZeroDecision(n)
				}
				return seq[tt-1]
			}
			for tt := 0; tt < in.T; tt++ {
				fresh, err := BuildP2(n, in, tt, prevOf(tt), opts.Params)
				if err != nil {
					t.Fatal(err)
				}
				for src := 0; src < in.T; src++ {
					p2, err := BuildP2(n, in, src, prevOf(src), opts.Params)
					if err != nil {
						t.Fatal(err)
					}
					same := slices.Equal(p2.act3d, fresh.act3d) && slices.Equal(p2.act3e, fresh.act3e)
					if got := p2.Patch(in, tt, prevOf(tt)); got != same {
						t.Fatalf("patch slot %d to %d: Patch = %v, activity pattern unchanged = %v", src, tt, got, same)
					}
					if !same {
						refused++
						continue
					}
					if msg := p2Diff(p2.Prob, fresh.Prob); msg != "" {
						t.Fatalf("patch slot %d to %d: %s", src, tt, msg)
					}
				}
			}
		})
	}
	if refused == 0 {
		t.Error("no slot pair changed the covering-row activity; the refusal half is untested")
	}

	// BuildP2 does not validate its inputs (Online does), so a NaN demand
	// reaches the covering-row predicate. BuildP2 and Patch must read it the
	// same way, or Patch refuses the very slot its P2 was built for.
	t.Run("nan-workload", func(t *testing.T) {
		n, in := coveringSwitchCase(t)
		in.Workload[1][0] = math.NaN()
		prev := model.NewZeroDecision(n)
		p2, err := BuildP2(n, in, 1, prev, DefaultOptions().Params)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := BuildP2(n, in, 1, prev, DefaultOptions().Params)
		if err != nil {
			t.Fatal(err)
		}
		if !p2.Patch(in, 1, prev) {
			t.Fatalf("Patch refused the slot its P2 was built for (act3d %v, act3e %v)", p2.act3d, p2.act3e)
		}
		if msg := p2Diff(p2.Prob, fresh.Prob); msg != "" {
			t.Fatal(msg)
		}
	})
}

// p2Diff describes the first bitwise difference between two P2 problems, or
// returns "" when they are identical.
func p2Diff(got, want *convex.Problem) string {
	if d := floatsDiff(got.Obj.(*convex.Entropic).Linear, want.Obj.(*convex.Entropic).Linear); d != "" {
		return "objective Linear " + d
	}
	gg, wg := got.Obj.(*convex.Entropic).Groups, want.Obj.(*convex.Entropic).Groups
	if len(gg) != len(wg) {
		return "group counts differ"
	}
	for k := range gg {
		if math.Float64bits(gg[k].Prev) != math.Float64bits(wg[k].Prev) ||
			math.Float64bits(gg[k].Coef) != math.Float64bits(wg[k].Coef) ||
			math.Float64bits(gg[k].Eps) != math.Float64bits(wg[k].Eps) ||
			!slices.Equal(gg[k].Members, wg[k].Members) {
			return "entropic group differs"
		}
	}
	if d := floatsDiff(got.H, want.H); d != "" {
		return "H " + d
	}
	if got.G.M != want.G.M || got.G.N != want.G.N {
		return "G shapes differ"
	}
	for r := range want.G.Rows {
		gr, wr := got.G.Rows[r], want.G.Rows[r]
		if len(gr) != len(wr) {
			return "G row lengths differ"
		}
		for k := range wr {
			if gr[k].Index != wr[k].Index || math.Float64bits(gr[k].Val) != math.Float64bits(wr[k].Val) {
				return "G entries differ"
			}
		}
	}
	if !slices.Equal(got.Blocks, want.Blocks) {
		return "block maps differ"
	}
	return ""
}

func floatsDiff(a, b []float64) string {
	if len(a) != len(b) {
		return "lengths differ"
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Sprintf("differs at index %d", i)
		}
	}
	return ""
}
