package core_test

import (
	"math"
	"slices"
	"testing"

	"soral/internal/convex"
	"soral/internal/core"
	"soral/internal/eval"
	"soral/internal/model"
	"soral/internal/resilience"
)

// coldDenseShape builds the cold-dense benchmark's network shape (4×12,
// K 2, Wikipedia demand) over T slots from seed.
func coldDenseShape(t *testing.T, seed int64, slots int) (*model.Network, *model.Inputs) {
	t.Helper()
	scen, err := eval.Build(eval.ScenarioSpec{NumTier2: 4, NumTier1: 12, K: 2, T: slots, Trace: eval.TraceWikipedia, Seed: seed, ReconfWeight: 10})
	if err != nil {
		t.Fatal(err)
	}
	return scen.Net, scen.In
}

// TestRescueRungsConvergeEverySlot runs both rescue rungs of the P2 ladder
// on every slot of the cold-dense shape, seeds 1 and 7: one injected
// factorization failure sends the slot to restart-center, two send it to
// loose-tol. Each rung must commit a decision feasible to 1e-4. The rungs
// start the primal–dual loop from the structured start; a phase-I LP,
// which they ran before, returned "infeasible" or hit its iteration limit
// on slots 47, 65 and 88 of seed 7 and 8 and 86 of seed 1. The first
// rung's decision carries forward as the next slot's prev.
func TestRescueRungsConvergeEverySlot(t *testing.T) {
	if testing.Short() {
		t.Skip("solves 576 slots")
	}
	opts := core.DefaultOptions()
	for _, seed := range []int64{1, 7} {
		n, in := coldDenseShape(t, seed, 96)
		prev := model.NewZeroDecision(n)
		for tt := 0; tt < in.T; tt++ {
			first, _, err := core.SolveP2Resilient(n, in, tt, prev, opts)
			if err != nil {
				t.Fatalf("seed %d slot %d: first rung: %v", seed, tt, err)
			}
			for trips, want := range []string{core.RungRestartCenter, core.RungLooseTol} {
				o := opts
				o.Solver.Fault = &resilience.FaultPlan{FailFactorization: true, FailFactorizationAt: 0, MaxTrips: int32(trips + 1)}
				dec, rep, err := core.SolveP2Resilient(n, in, tt, prev, o)
				if err != nil {
					t.Errorf("seed %d slot %d: %s: %v", seed, tt, want, err)
					continue
				}
				if rep.Rung != want {
					t.Errorf("seed %d slot %d: committed on %q, want %q: %v", seed, tt, rep.Rung, want, rep)
				}
				if ok, v := dec.FeasibleAt(n, in.Workload[tt], 1e-4); !ok {
					t.Errorf("seed %d slot %d: %s decision infeasible by %g", seed, tt, want, v)
				}
			}
			prev = first
		}
	}
}

// TestTightCapacityFirstRungCommits squeezes tier-2 cloud 0 of the
// cold-dense shape to 0.6 of the peak load the structured start puts on
// it, so on many slots that start breaks the cloud's capacity row. The
// barrier then hands the start to the primal–dual loop, which must commit
// every slot on the first rung, with no recovery, each exit carrying the
// primal–dual certificate.
func TestTightCapacityFirstRungCommits(t *testing.T) {
	n, in := tightCapacityShape(t)
	opts := core.DefaultOptions()
	zero := model.NewZeroDecision(n)

	seq, rep, err := core.RunOnlineReport(n, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Slots {
		if s.Status != core.SlotOK || s.Rung != core.RungWarm {
			t.Errorf("slot %d: status %v on rung %q, want ok on %q", s.Slot, s.Status, s.Rung, core.RungWarm)
		}
	}
	prev, broken := zero, 0
	for tt := 0; tt < in.T; tt++ {
		p2, err := core.BuildP2(n, in, tt, prev, opts.Params)
		if err != nil {
			t.Fatal(err)
		}
		x0 := p2.ColdStart(in, tt)
		if comfortable(p2.Prob, x0) {
			prev = seq[tt]
			continue
		}
		broken++
		res, err := convex.Solve(p2.Prob, x0, opts.Solver)
		if err != nil || !res.Converged {
			t.Fatalf("slot %d: converged %v, err %v", tt, res != nil && res.Converged, err)
		}
		checkCertificate(t, p2.Prob, res, opts.Solver.Tol)
		if dec := p2.Extract(res.X); !sameDecision(dec, seq[tt]) {
			t.Errorf("slot %d: the solve is not the decision the run committed", tt)
		}
		prev = seq[tt]
	}
	t.Logf("the structured start breaks a row on %d of %d slots", broken, in.T)
	if broken == 0 {
		t.Fatal("the structured start held on every slot: nothing reached the infeasible start")
	}
}

// tightCapacityShape is the cold-dense shape, seed 7, 48 slots, with
// tier-2 cloud 0's capacity at 0.6 of the peak load the structured start
// puts on it.
func tightCapacityShape(t *testing.T) (*model.Network, *model.Inputs) {
	t.Helper()
	n, in := coldDenseShape(t, 7, 48)
	params := core.DefaultOptions().Params
	zero := model.NewZeroDecision(n)
	peak := 0.0
	for tt := 0; tt < in.T; tt++ {
		p2, err := core.BuildP2(n, in, tt, zero, params)
		if err != nil {
			t.Fatal(err)
		}
		x0 := p2.ColdStart(in, tt)
		load := 0.0
		for _, p := range n.PairsOfI(0) {
			load += x0[p2.XOff+p]
		}
		peak = max(peak, load)
	}
	n.CapT2[0] = 0.6 * peak
	return n, in
}

// TestBrokenStartSkipsRestartCenter fails the first solve of every slot
// of the tight-capacity network once. Where the structured start keeps the
// barrier's margin, restart-center's primal–dual solve recovers the slot.
// Where it breaks a row, the first rung's structured solve already was
// that primal–dual solve, so the ladder goes straight to loose-tol rather
// than repeat it.
func TestBrokenStartSkipsRestartCenter(t *testing.T) {
	n, in := tightCapacityShape(t)
	opts := core.DefaultOptions()
	prev, broken := model.NewZeroDecision(n), 0
	for tt := 0; tt < in.T; tt++ {
		p2, err := core.BuildP2(n, in, tt, prev, opts.Params)
		if err != nil {
			t.Fatal(err)
		}
		want := []string{core.RungWarm, core.RungRestartCenter}
		if !comfortable(p2.Prob, p2.ColdStart(in, tt)) {
			broken++
			want = []string{core.RungWarm, core.RungLooseTol}
		}
		o := opts
		o.Solver.Fault = &resilience.FaultPlan{FailFactorization: true, FailFactorizationAt: 0, MaxTrips: 1}
		dec, rep, err := core.SolveP2Resilient(n, in, tt, prev, o)
		if err != nil {
			t.Fatalf("slot %d: %v", tt, err)
		}
		var got []string
		for _, a := range rep.Attempts {
			got = append(got, a.Rung)
		}
		if !slices.Equal(got, want) {
			t.Errorf("slot %d: rungs %v, want %v: %v", tt, got, want, rep)
		}
		prev = dec
	}
	if broken == 0 {
		t.Fatal("the structured start held on every slot: nothing reached the infeasible start")
	}
}

// comfortable reports whether x keeps the barrier's relative slack margin,
// h_r − (G·x)_r ≥ 1e-9·(1 + |h_r|), on every row of p.
func comfortable(p *convex.Problem, x []float64) bool {
	gx := make([]float64, p.G.M)
	p.G.MulVec(gx, x)
	for r, h := range p.H {
		if h-gx[r] < 1e-9*(1+math.Abs(h)) {
			return false
		}
	}
	return true
}

// sameDecision reports whether a and b agree bit for bit.
func sameDecision(a, b *model.Decision) bool {
	same := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	}
	return same(a.X, b.X) && same(a.Y, b.Y) && same(a.Z, b.Z)
}
