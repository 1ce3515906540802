// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section V), plus solver micro-benchmarks and the ablations
// called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// Figure benchmarks execute the same eval-package experiments that
// cmd/soralbench exposes, at the small scale so a full sweep stays in the
// seconds range; pass -scale through cmd/soralbench for larger runs. The
// regenerated rows are attached to the benchmark output via b.Log at -v.
package soral_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"soral/internal/control"
	"soral/internal/convex"
	"soral/internal/core"
	"soral/internal/eval"
	"soral/internal/linalg"
	"soral/internal/lp"
	"soral/internal/model"
	"soral/internal/staircase"
	"soral/internal/workload"
)

// logTable renders an experiment's rows into the benchmark log.
func logTable(b *testing.B, tbl *eval.Table) {
	b.Helper()
	var sb strings.Builder
	if err := eval.Render(&sb, tbl); err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + sb.String())
}

// ---- One benchmark per table / figure ----

func BenchmarkTable1Electricity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := eval.Table1()
		if len(tbl.Rows) != 18 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTable2Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := eval.Table2()
		if len(tbl.Rows) != 5 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig4Workloads(b *testing.B) {
	var tbl *eval.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = eval.Fig4(eval.ScaleSmall, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkFig5NoPrediction(b *testing.B) {
	var tbl *eval.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = eval.Fig5(eval.ScaleSmall, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkFig6EpsilonSweep(b *testing.B) {
	var tbl *eval.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = eval.Fig6(eval.ScaleSmall, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkFig7SLASweep(b *testing.B) {
	var tbl *eval.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = eval.Fig7(eval.ScaleSmall, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkFig8AccuratePrediction(b *testing.B) {
	var tbl *eval.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = eval.Fig8(eval.ScaleSmall, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkFig9NoisyPrediction(b *testing.B) {
	var tbl *eval.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = eval.Fig9(eval.ScaleSmall, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkFig10ErrorSweep(b *testing.B) {
	var tbl *eval.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = eval.Fig10(eval.ScaleSmall, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkAdversarialVShape(b *testing.B) {
	var tbl *eval.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = eval.AdversarialVShape()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

// ---- Core algorithm micro-benchmarks ----

func benchScenario(b *testing.B, reconf float64, T int) (*model.Network, *model.Inputs) {
	b.Helper()
	scen, err := eval.Build(eval.ScenarioSpec{
		NumTier2: 3, NumTier1: 6, K: 2, T: T,
		Trace: eval.TraceWikipedia, ReconfWeight: reconf, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return scen.Net, scen.In
}

func BenchmarkOnlineSlot(b *testing.B) {
	n, in := benchScenario(b, 1000, 8)
	prev := model.NewZeroDecision(n)
	opts := core.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _, err := core.SolveP2Resilient(n, in, i%in.T, prev, opts)
		if err != nil {
			b.Fatal(err)
		}
		prev = d
	}
}

func BenchmarkGreedySlot(b *testing.B) {
	n, in := benchScenario(b, 1000, 8)
	cfg := &control.Config{Net: n, In: in, CoreOpts: core.DefaultOptions()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := control.Greedy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalarOnlineClosedForm(b *testing.B) {
	lam := workload.Wikipedia(500, 1)
	a := make([]float64, len(lam))
	for i := range a {
		a[i] = 1
	}
	s := &core.ScalarInstance{C: 2, B: 100, A: a, Lam: lam}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunOnline(1e-2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkP2NewtonStep sweeps P2's size (|J| tier-1 clouds over 4 tier-2
// clouds, K=2) and solves slot 0's P2 with its per-cloud block map and with
// the map cleared (one dense block), reporting the time per Newton step.
// The structured step grows linearly in |J|, the dense one cubically
// (DESIGN.md §15); EXPERIMENTS.md records the curve.
func BenchmarkP2NewtonStep(b *testing.B) {
	for _, j := range []int{6, 12, 24, 48} {
		scen, err := eval.Build(eval.ScenarioSpec{
			NumTier2: 4, NumTier1: j, K: 2, T: 1,
			Trace: eval.TraceWikipedia, ReconfWeight: 10, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		opts := core.DefaultOptions()
		p2, err := core.BuildP2(scen.Net, scen.In, 0, model.NewZeroDecision(scen.Net), opts.Params)
		if err != nil {
			b.Fatal(err)
		}
		x0 := p2.ColdStart(scen.In, 0)
		dense := *p2.Prob
		dense.Blocks = nil
		for _, v := range []struct {
			name string
			prob *convex.Problem
		}{{"blocks", p2.Prob}, {"dense", &dense}} {
			b.Run(fmt.Sprintf("J=%d/n=%d/%s", j, p2.NumVars, v.name), func(b *testing.B) {
				so := opts.Solver
				so.Work = convex.NewWorkspace()
				steps := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := convex.Solve(v.prob, x0, so)
					if err != nil {
						b.Fatal(err)
					}
					steps += res.NewtonIters
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps)/1e3, "us/step")
				b.ReportMetric(float64(steps)/float64(b.N), "steps/solve")
			})
		}
	}
}

// ---- Ablation: offline solver backends (dense vs staircase) ----

func BenchmarkOfflineDenseBackend(b *testing.B) {
	n, in := benchScenario(b, 1000, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := model.BuildP1(n, in, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := lp.Solve(l.Prob, lp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOfflineStaircaseBackend(b *testing.B) {
	n, in := benchScenario(b, 1000, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := model.BuildP1(n, in, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := staircase.Solve(l.Prob, l.SlotOfCons, l.SlotOfVar, l.W, lp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOfflineStaircaseLongHorizon(b *testing.B) {
	n, in := benchScenario(b, 1000, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := model.BuildP1(n, in, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := staircase.Solve(l.Prob, l.SlotOfCons, l.SlotOfVar, l.W, lp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Numerical kernel micro-benchmarks ----

func BenchmarkCholesky128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 128
	a := linalg.NewDense(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	spd := linalg.Mul(a.Transpose(), a)
	spd.AddDiag(float64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.NewCholesky(spd, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockTriCholChain(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	sizes := make([]int, 64)
	for i := range sizes {
		sizes[i] = 16
	}
	m := linalg.NewBlockTriDiag(sizes)
	for t, sz := range sizes {
		d := linalg.NewDense(sz, sz)
		for i := range d.Data {
			d.Data[i] = rng.NormFloat64()
		}
		spd := linalg.Mul(d.Transpose(), d)
		spd.AddDiag(float64(sz) * 20)
		m.Diag[t] = spd
		if t > 0 {
			e := linalg.NewDense(sz, sizes[t-1])
			for i := range e.Data {
				e.Data[i] = 0.3 * rng.NormFloat64()
			}
			m.Sub[t-1] = e
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.NewBlockTriChol(m, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMehrotraChainLP(b *testing.B) {
	// The chain covering LP from the solver tests, n = 200.
	const n = 200
	p := lp.NewProblem(n)
	for i := range p.C {
		p.C[i] = 1
	}
	for i := 0; i+1 < n; i++ {
		p.AddConstraint([]lp.Entry{{Index: i, Val: 1}, {Index: i + 1, Val: 1}}, lp.GE, 1, "")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := lp.Solve(p, lp.Options{})
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("%v %v", sol, err)
		}
	}
}

func BenchmarkWorkloadGenerators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = workload.Wikipedia(workload.WikipediaHours, int64(i))
		_ = workload.WorldCup(workload.WorldCupHours, int64(i))
	}
}
