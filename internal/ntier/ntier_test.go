package ntier

import (
	"math"
	"math/rand"
	"testing"

	"soral/internal/convex"
	"soral/internal/core"
	"soral/internal/lp"
)

// twoTier builds a 1-edge/1-top two-tier system mirroring the scalar
// instance: top cloud (cap 10, reconfig b), link and edge cloud free.
func twoTier(b float64) *Topology {
	return &Topology{
		Clouds: [][]CloudSpec{
			{{Cap: 10, Reconf: 0}}, // tier 1 (edge)
			{{Cap: 10, Reconf: b}}, // tier 2 (top)
		},
		Links: []Link{{Tier: 1, From: 0, To: 0, Cap: 10, Price: 0, Reconf: 0}},
	}
}

// diamond3 builds a 3-tier topology: one edge cloud, two mid clouds, two top
// clouds, fully connected between adjacent tiers (4 paths).
func diamond3(reconf float64) *Topology {
	return &Topology{
		Clouds: [][]CloudSpec{
			{{Cap: 20, Reconf: reconf / 2}},
			{{Cap: 20, Reconf: reconf}, {Cap: 20, Reconf: reconf}},
			{{Cap: 20, Reconf: reconf}, {Cap: 20, Reconf: reconf}},
		},
		Links: []Link{
			{Tier: 1, From: 0, To: 0, Cap: 20, Price: 0.5, Reconf: reconf / 2},
			{Tier: 1, From: 0, To: 1, Cap: 20, Price: 0.8, Reconf: reconf / 2},
			{Tier: 2, From: 0, To: 0, Cap: 20, Price: 0.5, Reconf: reconf / 2},
			{Tier: 2, From: 0, To: 1, Cap: 20, Price: 0.9, Reconf: reconf / 2},
			{Tier: 2, From: 1, To: 0, Cap: 20, Price: 0.7, Reconf: reconf / 2},
			{Tier: 2, From: 1, To: 1, Cap: 20, Price: 0.4, Reconf: reconf / 2},
		},
	}
}

func inputs3(s *System, lam []float64, topPrice float64) *Inputs {
	in := &Inputs{T: len(lam), PriceCloud: make([][][]float64, len(lam)), Workload: make([][]float64, len(lam))}
	for t := range lam {
		tiers := make([][]float64, s.Topo.NumTiers())
		for l := range tiers {
			tiers[l] = make([]float64, len(s.Topo.Clouds[l]))
			for i := range tiers[l] {
				if l == s.Topo.NumTiers()-1 {
					tiers[l][i] = topPrice + 0.1*float64(i)
				} else if l > 0 {
					tiers[l][i] = 0.2
				}
			}
		}
		in.PriceCloud[t] = tiers
		in.Workload[t] = []float64{lam[t]}
	}
	return in
}

func TestTopologyValidate(t *testing.T) {
	if err := twoTier(1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Topology{
		{Clouds: [][]CloudSpec{{{Cap: 1}}}},                                                        // one tier
		{Clouds: [][]CloudSpec{{}, {{Cap: 1}}}},                                                    // empty tier
		{Clouds: [][]CloudSpec{{{Cap: 0}}, {{Cap: 1}}}},                                            // zero capacity
		{Clouds: [][]CloudSpec{{{Cap: 1, Reconf: -1}}, {{Cap: 1}}}},                                // negative reconfig
		{Clouds: [][]CloudSpec{{{Cap: 1}}, {{Cap: 1}}}, Links: []Link{{Tier: 5}}},                  // bad tier
		{Clouds: [][]CloudSpec{{{Cap: 1}}, {{Cap: 1}}}, Links: []Link{{Tier: 1, From: 3, Cap: 1}}}, // bad from
	}
	for k, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Fatalf("bad topology %d accepted", k)
		}
	}
}

func TestEnumeratePathsDiamond(t *testing.T) {
	s, err := Compile(diamond3(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPaths() != 4 {
		t.Fatalf("paths = %d, want 4", s.NumPaths())
	}
	// Resources: 1+2+2 clouds + 6 links = 11.
	if s.NumResources() != 11 {
		t.Fatalf("resources = %d, want 11", s.NumResources())
	}
	// Each path touches 3 clouds + 2 links.
	for p := 0; p < 4; p++ {
		if len(s.PathResources(p)) != 5 {
			t.Fatalf("path %d touches %d resources", p, len(s.PathResources(p)))
		}
	}
	if len(s.PathsOf(0)) != 4 {
		t.Fatal("edge cloud should own all 4 paths")
	}
}

func TestEnumeratePathsLimit(t *testing.T) {
	if _, err := Compile(diamond3(1), 3); err == nil {
		t.Fatal("path limit not enforced")
	}
}

func TestCompileRejectsUnreachableEdge(t *testing.T) {
	topo := &Topology{
		Clouds: [][]CloudSpec{{{Cap: 1}, {Cap: 1}}, {{Cap: 1}}},
		Links:  []Link{{Tier: 1, From: 0, To: 0, Cap: 1}},
	}
	if _, err := Compile(topo, 0); err == nil {
		t.Fatal("edge without path accepted")
	}
}

func TestTwoTierMatchesScalarClosedForm(t *testing.T) {
	// With the link and edge cloud free, the N-tier online algorithm on a
	// 1×1 two-tier system must reproduce the scalar recursion (equation 6).
	b := 30.0
	s, err := Compile(twoTier(b), 0)
	if err != nil {
		t.Fatal(err)
	}
	lam := []float64{6, 4, 0.5, 0.2, 5, 1}
	a := []float64{1, 1, 1, 2, 1, 1}
	in := &Inputs{T: len(lam), PriceCloud: make([][][]float64, len(lam)), Workload: make([][]float64, len(lam))}
	for t2 := range lam {
		in.PriceCloud[t2] = [][]float64{{0}, {a[t2]}}
		in.Workload[t2] = []float64{lam[t2]}
	}
	eps := 1e-2
	seq, err := RunOnline(s, in, Params{Eps: eps}, convex.Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	sc := &core.ScalarInstance{C: 10, B: b, A: a, Lam: lam}
	topRes := s.CloudResource(2, 0)
	prev := 0.0
	for t2 := range lam {
		want := sc.DecayStep(prev, a[t2], eps)
		if lam[t2] > want {
			want = lam[t2]
		}
		got := seq[t2].ResourceTotals(s)[topRes]
		if math.Abs(got-want) > 2e-3*(1+want) {
			t.Fatalf("slot %d: ntier top alloc %v vs scalar %v", t2, got, want)
		}
		prev = got
	}
}

func TestDiamondOnlineFeasibleAndCompetitive(t *testing.T) {
	s, err := Compile(diamond3(50), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(140))
	lam := make([]float64, 8)
	for i := range lam {
		lam[i] = rng.Float64() * 15
	}
	in := inputs3(s, lam, 1)
	seq, err := RunOnline(s, in, Params{Eps: 1e-2}, convex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for ts, d := range seq {
		if ok, v := d.FeasibleAt(s, in.Workload[ts], 1e-4); !ok {
			t.Fatalf("slot %d infeasible by %v", ts, v)
		}
	}
	onCost := s.SequenceCost(in, seq)
	_, offCost, err := RunOffline(s, in, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if onCost < offCost-1e-4*(1+offCost) {
		t.Fatalf("online %v beats offline %v", onCost, offCost)
	}
	if r := s.CompetitiveRatio(1e-2); onCost > r*offCost {
		t.Fatalf("online %v above the parameterized bound %v", onCost, r*offCost)
	}
}

func TestDiamondSmoothingBeatsGreedyOnSpikes(t *testing.T) {
	s, err := Compile(diamond3(200), 0)
	if err != nil {
		t.Fatal(err)
	}
	lam := []float64{10, 1, 10, 1, 10, 1, 10, 1}
	in := inputs3(s, lam, 1)
	online, err := RunOnline(s, in, Params{Eps: 1e-2}, convex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := RunGreedy(s, in, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	onCost := s.SequenceCost(in, online)
	grCost := s.SequenceCost(in, greedy)
	if onCost >= grCost {
		t.Fatalf("online %v not better than greedy %v on an oscillating workload", onCost, grCost)
	}
}

func TestOfflineObjectiveMatchesSequenceCost(t *testing.T) {
	s, err := Compile(diamond3(20), 0)
	if err != nil {
		t.Fatal(err)
	}
	lam := []float64{5, 8, 2, 6, 9, 1}
	in := inputs3(s, lam, 1)
	seq, obj, err := RunOffline(s, in, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SequenceCost(in, seq); math.Abs(got-obj) > 1e-3*(1+obj) {
		t.Fatalf("sequence cost %v vs LP objective %v", got, obj)
	}
	for ts, d := range seq {
		if ok, v := d.FeasibleAt(s, in.Workload[ts], 1e-5); !ok {
			t.Fatalf("slot %d infeasible by %v", ts, v)
		}
	}
}

func TestOfflineShortHorizonDenseBackend(t *testing.T) {
	s, err := Compile(twoTier(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	lam := []float64{4, 2}
	in := &Inputs{T: 2, PriceCloud: [][][]float64{{{0}, {1}}, {{0}, {1}}}, Workload: [][]float64{{4}, {2}}}
	_, obj, err := RunOffline(s, in, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Same structure as the model-package hand example but with free links:
	// alloc 4+2, reconfig 5·4 = 20 → 26.
	if math.Abs(obj-26) > 1e-3 {
		t.Fatalf("obj = %v, want 26", obj)
	}
	_ = lam
}

func TestGreedyFollowsWorkload(t *testing.T) {
	s, err := Compile(twoTier(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	lam := []float64{5, 2, 7}
	in := &Inputs{
		T: 3,
		PriceCloud: [][][]float64{
			{{0.1}, {1}}, {{0.1}, {1}}, {{0.1}, {1}},
		},
		Workload: [][]float64{{5}, {2}, {7}},
	}
	seq, err := RunGreedy(s, in, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	topRes := s.CloudResource(2, 0)
	for ts := range lam {
		got := seq[ts].ResourceTotals(s)[topRes]
		if math.Abs(got-lam[ts]) > 1e-3 {
			t.Fatalf("slot %d: greedy top alloc %v, want %v", ts, got, lam[ts])
		}
	}
}

func TestInputsValidate(t *testing.T) {
	s, err := Compile(twoTier(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := []*Inputs{
		{T: 0},
		{T: 1, PriceCloud: [][][]float64{{{0}}}, Workload: [][]float64{{1}}},         // missing tier
		{T: 1, PriceCloud: [][][]float64{{{0}, {1}}}, Workload: [][]float64{{1, 2}}}, // extra edge
		{T: 1, PriceCloud: [][][]float64{{{0}, {-1}}}, Workload: [][]float64{{1}}},   // negative price
		{T: 1, PriceCloud: [][][]float64{{{0}, {1}}}, Workload: [][]float64{{-1}}},   // negative workload
	}
	for k, in := range bad {
		if err := in.Validate(s); err == nil {
			t.Fatalf("bad inputs %d accepted", k)
		}
	}
}

func TestCompetitiveRatioReducesToTheorem1Form(t *testing.T) {
	s, err := Compile(twoTier(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	eps := 1.0
	// 1 top cloud (|I| = 1): r = 1 + 1·(edge-term + top-term + link-term).
	term := (10 + eps) * math.Log(1+10/eps)
	want := 1 + 1*(term+term+term)
	if got := s.CompetitiveRatio(eps); math.Abs(got-want) > 1e-9 {
		t.Fatalf("r = %v, want %v", got, want)
	}
}

// TestSolveSlotCapacityBoundaries runs the diamond through a slot its edge
// cloud (capacity 20) can carry only without the structured start's
// margins, and through one it cannot carry at all. The first starts the
// primal–dual loop outside the edge cloud's capacity row and must return
// a feasible decision; the second must fail, in SolveSlot and in
// RunOnline, rather than return a decision that breaks the capacity.
func TestSolveSlotCapacityBoundaries(t *testing.T) {
	s, err := Compile(diamond3(50), 0)
	if err != nil {
		t.Fatal(err)
	}
	in := inputs3(s, []float64{5, 19.99, 30}, 1)
	prev := NewZeroDecision(s)
	for ts := 0; ts < 2; ts++ {
		d, err := SolveSlot(s, in, ts, prev, Params{Eps: 1e-2}, convex.Options{})
		if err != nil {
			t.Fatalf("slot %d: %v", ts, err)
		}
		if ok, v := d.FeasibleAt(s, in.Workload[ts], 1e-6); !ok {
			t.Fatalf("slot %d infeasible by %v", ts, v)
		}
		prev = d
	}
	if d, err := SolveSlot(s, in, 2, prev, Params{Eps: 1e-2}, convex.Options{}); err == nil {
		_, v := d.FeasibleAt(s, in.Workload[2], 0)
		t.Fatalf("slot 2 asks 30 of an edge capacity of 20, yet SolveSlot returned a decision (violation %v)", v)
	}
	if _, err := RunOnline(s, in, Params{Eps: 1e-2}, convex.Options{}); err == nil {
		t.Fatal("RunOnline committed a slot no decision satisfies")
	}
}
