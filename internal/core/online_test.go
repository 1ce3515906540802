package core

import (
	"math"
	"math/rand"
	"testing"

	"soral/internal/lp"
	"soral/internal/model"
)

// oneByOne builds a 1×1 network with chosen prices so the network dimension
// degenerates and P2 must reproduce the scalar closed form.
func oneByOne(t *testing.T, b, d, c float64) *model.Network {
	t.Helper()
	n, err := model.NewNetwork(1, 1,
		[]model.Pair{{I: 0, J: 0}},
		[]float64{10}, []float64{b},
		[]float64{10}, []float64{c}, []float64{d})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func inputsFor(lam, a []float64) *model.Inputs {
	in := &model.Inputs{T: len(lam), PriceT2: make([][]float64, len(lam)), Workload: make([][]float64, len(lam))}
	for t := range lam {
		in.PriceT2[t] = []float64{a[t]}
		in.Workload[t] = []float64{lam[t]}
	}
	return in
}

func TestP2MatchesScalarClosedForm(t *testing.T) {
	// With the network leg made costless (c = d = 0), the P2 optimum in x
	// must follow the scalar recursion x_t = max{λ_t, decay(x_{t−1})}.
	b := 30.0
	n := oneByOne(t, b, 0, 0)
	lam := []float64{6, 4, 0.5, 0.2, 5, 3, 1, 0.5}
	a := []float64{1, 1, 1, 2, 1, 0.5, 1, 1}
	in := inputsFor(lam, a)
	opts := DefaultOptions()
	opts.Solver.Tol = 1e-9

	seq, err := RunOnline(n, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := &ScalarInstance{C: 10, B: b, A: a, Lam: lam}
	prev := 0.0
	for ts := range lam {
		want := s.DecayStep(prev, a[ts], opts.Params.EpsT2)
		if lam[ts] > want {
			want = lam[ts]
		}
		got := seq[ts].X[0]
		if math.Abs(got-want) > 2e-3*(1+want) {
			t.Fatalf("slot %d: network x = %v, scalar closed form = %v", ts, got, want)
		}
		prev = got
	}
}

func TestOnlineFeasibleEverySlot(t *testing.T) {
	// Lemma 1: the P2 optimum is feasible for P1 at every slot, including
	// the capacity constraints that P2 only enforces implicitly.
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 6; trial++ {
		n := model.RandomNetwork(rng, 2+rng.Intn(2), 2+rng.Intn(3), 1+rng.Intn(2), 20)
		in := model.RandomInputs(rng, n, 6)
		seq, err := RunOnline(n, in, DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for ts, d := range seq {
			if ok, v := d.FeasibleAt(n, in.Workload[ts], 1e-4); !ok {
				t.Fatalf("trial %d slot %d infeasible by %v", trial, ts, v)
			}
		}
	}
}

func TestOnlineNeverBeatsOffline(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 5; trial++ {
		n := model.RandomNetwork(rng, 2, 2, 2, 15)
		in := model.RandomInputs(rng, n, 5)
		seq, err := RunOnline(n, in, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		acct := &model.Accountant{Net: n, In: in}
		costOn := acct.SequenceCost(seq, nil).Total()
		_, costOff, err := model.SolveP1Dense(n, in, nil, nil, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if costOn < costOff-1e-4*(1+costOff) {
			t.Fatalf("trial %d: online %v below offline optimum %v", trial, costOn, costOff)
		}
		r := CompetitiveRatio(n, DefaultParams())
		if costOn > r*costOff+1e-6 {
			t.Fatalf("trial %d: online %v above r·OPT = %v", trial, costOn, r*costOff)
		}
	}
}

func TestOnlineDecaysAfterSpike(t *testing.T) {
	// After a spike the tier-2 aggregate decays monotonically instead of
	// dropping instantly (the smoothing behaviour that motivates the paper).
	n := oneByOne(t, 50, 50, 1)
	lam := []float64{8, 0, 0, 0, 0, 0}
	a := []float64{1, 1, 1, 1, 1, 1}
	in := inputsFor(lam, a)
	seq, err := RunOnline(n, in, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if seq[0].X[0] < 8-1e-4 {
		t.Fatalf("spike not covered: %v", seq[0].X[0])
	}
	for ts := 1; ts < len(seq); ts++ {
		if seq[ts].X[0] > seq[ts-1].X[0]+1e-6 {
			t.Fatalf("slot %d: allocation grew during idle period", ts)
		}
	}
	// But it must not drop to zero immediately (that is greedy's behaviour).
	if seq[1].X[0] < 0.5 {
		t.Fatalf("slot 1 allocation %v collapsed — no smoothing", seq[1].X[0])
	}
}

func TestOnlineGreedyWhenReconfigFree(t *testing.T) {
	// With b = d = 0 the regularizer vanishes and the online algorithm
	// becomes the greedy one-shot optimizer: x = y = λ.
	n := oneByOne(t, 0, 0, 1)
	lam := []float64{5, 2, 7}
	a := []float64{1, 1, 1}
	in := inputsFor(lam, a)
	seq, err := RunOnline(n, in, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for ts := range lam {
		if math.Abs(seq[ts].X[0]-lam[ts]) > 1e-3 {
			t.Fatalf("slot %d: x = %v, want λ = %v", ts, seq[ts].X[0], lam[ts])
		}
	}
}

func TestOnlineStepByStepMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	n := model.RandomNetwork(rng, 2, 2, 1, 10)
	in := model.RandomInputs(rng, n, 4)
	o1, err := NewOnline(n, in, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	seq1, err := o1.Run()
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := NewOnline(n, in, DefaultOptions())
	for ts := 0; ts < in.T; ts++ {
		d, err := o2.Step()
		if err != nil {
			t.Fatal(err)
		}
		for p := range d.X {
			if math.Abs(d.X[p]-seq1[ts].X[p]) > 1e-9 {
				t.Fatal("Step and Run disagree")
			}
		}
	}
	if _, err := o2.Step(); err == nil {
		t.Fatal("Step past horizon succeeded")
	}
}

func TestSolveP2SLAIsRespected(t *testing.T) {
	// Two tier-2 clouds, two tier-1 clouds, but each j may only use one i.
	pairs := []model.Pair{{I: 0, J: 0}, {I: 1, J: 1}}
	n, err := model.NewNetwork(2, 2, pairs,
		[]float64{10, 10}, []float64{5, 5},
		[]float64{10, 10}, []float64{1, 1}, []float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	in := &model.Inputs{
		T:        1,
		PriceT2:  [][]float64{{1, 100}}, // cloud 1 is expensive but j=1 must use it
		Workload: [][]float64{{2, 3}},
	}
	dec, _, err := SolveP2Resilient(n, in, 0, model.NewZeroDecision(n), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if dec.X[1] < 3-1e-3 {
		t.Fatalf("SLA-locked demand not covered: x = %v", dec.X)
	}
}

func TestCompetitiveRatioFormula(t *testing.T) {
	n := oneByOne(t, 1, 1, 1)
	p := Params{EpsT2: 1, EpsNet: 1}
	// C(1) = (10+1)·ln(11) = B(1); r = 1 + 1·(2·11·ln 11).
	want := 1 + 2*11*math.Log(11)
	got := CompetitiveRatio(n, p)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("r = %v, want %v", got, want)
	}
	// Ratio decreases as ε grows (the theoretical curve from Fig. 6 remarks).
	if CompetitiveRatio(n, Params{EpsT2: 10, EpsNet: 10}) >= got {
		t.Fatal("theoretical ratio should shrink with larger ε")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{EpsT2: 0, EpsNet: 1}).Validate(); err == nil {
		t.Fatal("ε=0 accepted")
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildP2SlotRange(t *testing.T) {
	n := oneByOne(t, 1, 1, 1)
	in := inputsFor([]float64{1}, []float64{1})
	if _, err := BuildP2(n, in, 5, model.NewZeroDecision(n), DefaultParams()); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
}

func TestOnlineWithTier1Component(t *testing.T) {
	n := oneByOne(t, 5, 5, 1)
	if err := n.EnableTier1([]float64{10}, []float64{5}); err != nil {
		t.Fatal(err)
	}
	lam := []float64{4, 2}
	a := []float64{1, 1}
	in := inputsFor(lam, a)
	in.PriceT1 = [][]float64{{1}, {1}}
	seq, err := RunOnline(n, in, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for ts, d := range seq {
		if ok, v := d.FeasibleAt(n, in.Workload[ts], 1e-4); !ok {
			t.Fatalf("slot %d infeasible by %v (z=%v)", ts, v, d.Z)
		}
	}
}

func TestTheorem1ChainAgainstP3(t *testing.T) {
	// Theorem 1's proof bounds the online cost against the covering
	// relaxation P3, not just P1: online ≤ r·OPT(P4(mapped duals)) ≤
	// r·OPT(P3) ≤ r·OPT(P1). Verify the outer chain numerically.
	rng := rand.New(rand.NewSource(210))
	for trial := 0; trial < 3; trial++ {
		n := model.RandomNetwork(rng, 2, 2, 2, 25)
		in := model.RandomInputs(rng, n, 4)
		seq, err := RunOnline(n, in, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		acct := &model.Accountant{Net: n, In: in}
		costOn := acct.SequenceCost(seq, nil).Total()

		l3, err := model.BuildP3(n, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		sol3, err := lp.Solve(l3.Prob, lp.Options{})
		if err != nil || sol3.Status != lp.Optimal {
			t.Fatalf("P3: %v %v", sol3, err)
		}
		_, p1Obj, err := model.SolveP1Dense(n, in, nil, nil, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol3.Obj > p1Obj+1e-4*(1+p1Obj) {
			t.Fatalf("OPT(P3) %v > OPT(P1) %v", sol3.Obj, p1Obj)
		}
		r := CompetitiveRatio(n, DefaultParams())
		if costOn > r*sol3.Obj+1e-6 {
			t.Fatalf("trial %d: online %v exceeds r·OPT(P3) = %v", trial, costOn, r*sol3.Obj)
		}
	}
}

func TestRunOnlineNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(220))
	n := model.RandomNetwork(rng, 2, 3, 2, 20)
	in := model.RandomInputs(rng, n, 5)
	seq, rNorm, err := RunOnlineNormalized(n, in, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Decisions (mapped back) are feasible for the original instance.
	for ts, d := range seq {
		if ok, v := d.FeasibleAt(n, in.Workload[ts], 1e-4); !ok {
			t.Fatalf("slot %d infeasible by %v", ts, v)
		}
	}
	// The normalized guarantee is far smaller than the raw one (capacities
	// here are ≫ 1), which is the entire point of the remark.
	rRaw := CompetitiveRatio(n, DefaultParams())
	if rNorm >= rRaw {
		t.Fatalf("normalized ratio %v not below raw ratio %v", rNorm, rRaw)
	}
	// And the normalized run is still competitive on this instance.
	acct := &model.Accountant{Net: n, In: in}
	costOn := acct.SequenceCost(seq, nil).Total()
	_, costOff, err := model.SolveP1Dense(n, in, nil, nil, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if costOn < costOff-1e-4*(1+costOff) {
		t.Fatalf("normalized online %v beats offline %v", costOn, costOff)
	}
}
