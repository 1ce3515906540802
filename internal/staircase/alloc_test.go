package staircase

import (
	"math/rand"
	"testing"

	"soral/internal/lp"
	"soral/internal/model"
)

// TestSolveStandardStaircaseZeroAlloc is lp.TestSolveStandardWorkspaceZeroAlloc
// with the staircase backend, so Backend.Factorize, Backend.Solve and the
// block-tridiagonal factorization under them run inside the pinned loop:
// after a warm-up solve has sized every buffer, repeated same-shape solves
// allocate only the per-call constant (the Solution header), however many
// interior-point iterations they take.
func TestSolveStandardStaircaseZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(1902))
	n := model.RandomNetwork(rng, 2, 3, 2, 10)
	in := model.RandomInputs(rng, n, 6)
	l, err := model.BuildP1(n, in, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	std, be := buildBackend(t, l)
	be.SetWorkers(1)
	opts := lp.Options{Work: lp.NewWorkspace(), Workers: 1}
	warm, err := lp.SolveStandard(std, be, opts)
	if err != nil || warm.Status != lp.Optimal {
		t.Fatalf("warm-up solve: %v %v", warm, err)
	}
	if warm.Iters < 5 {
		t.Fatalf("want ≥5 iterations for the per-iteration claim to bite, got %d", warm.Iters)
	}
	allocs := testing.AllocsPerRun(10, func() {
		sol, err := lp.SolveStandard(std, be, opts)
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("solve: %v %v", sol, err)
		}
	})
	if allocs > 1 {
		t.Errorf("reused-workspace staircase solve allocated %.0f times per call, want ≤ 1", allocs)
	}
	if int(allocs) >= warm.Iters {
		t.Errorf("allocations (%.0f) scale with iterations (%d): per-iteration allocation leaked in", allocs, warm.Iters)
	}
}
