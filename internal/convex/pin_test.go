package convex

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"soral/internal/linalg"
	"soral/internal/lp"
)

var updatePins = flag.Bool("update", false, "rewrite the testdata pins from the current build")

// quadPinSolve solves the pinned QuadObjective problem: a full-Q quadratic
// over box rows plus one coupling row across all variables (Σx ≥ 0.3), with
// no block map, so the single-block dense Newton path, from an interior
// point inside every box that covers the coupling row.
func quadPinSolve(t *testing.T) (*Problem, *Result) {
	t.Helper()
	q := linalg.NewDenseFrom(4, 4, []float64{
		4, 1, 0.5, 0.25,
		1, 3, 0.75, 0.5,
		0.5, 0.75, 2, 1,
		0.25, 0.5, 1, 5,
	})
	c := []float64{-3, 2, -1, -4}
	lo, hi := []float64{-1, -1, -1, -1}, []float64{1, 0.5, 2, 0.4}
	g := lp.NewSparseMatrix(2*len(lo)+1, len(lo))
	h := make([]float64, g.M)
	for i := range lo {
		g.Append(i, i, 1)
		h[i] = hi[i]
		g.Append(len(lo)+i, i, -1)
		h[len(lo)+i] = -lo[i]
		g.Append(g.M-1, i, -1)
	}
	h[g.M-1] = -0.3
	p := &Problem{Obj: &QuadObjective{Q: q, C: c}, G: g, H: h}
	res, err := Solve(p, []float64{0.5, 0.25, 1, 0.2}, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

// TestQuadObjectiveNilBlockMapPinned pins one full-Q QuadObjective solve to
// the bit patterns of its Result.X (testdata/quad_x.json). The pin was
// recorded before the structured Newton step landed and re-recorded when
// the line search began carrying the slack along the search ray, when
// the barrier began following the central path (DESIGN.md §15) and when
// the phase-I start gave way to an explicit interior point;
// TestQuadObjectiveMatchesRecorded is the accuracy gate for any such
// re-recording.
func TestQuadObjectiveNilBlockMapPinned(t *testing.T) {
	_, res := quadPinSolve(t)
	got := make([]string, len(res.X))
	for i, v := range res.X {
		got[i] = hexBits(v)
	}
	path := filepath.Join("testdata", "quad_x.json")
	if *updatePins {
		raw, _ := json.MarshalIndent(got, "", "  ")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d coordinates, pin has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("x[%d] = %s, pinned %s", i, got[i], want[i])
		}
	}
}

func hexBits(v float64) string {
	b, _ := json.Marshal(math.Float64bits(v))
	return string(b)
}

// TestQuadObjectiveMatchesRecorded is the accuracy gate behind the bit pin
// above: the objective recorded by the solver before the carried-slack line
// search (testdata/quad_obj.json, never re-recorded) must be matched to
// 1e-9 relative, by a point that satisfies every row to 1e-4.
func TestQuadObjectiveMatchesRecorded(t *testing.T) {
	p, res := quadPinSolve(t)
	raw, err := os.ReadFile(filepath.Join("testdata", "quad_obj.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(res.Obj - want); d > 1e-9*math.Max(1, math.Abs(want)) {
		t.Errorf("objective %.17g, recorded %.17g, |Δ| = %g", res.Obj, want, d)
	}
	gx := make([]float64, p.G.M)
	p.G.MulVec(gx, res.X)
	for r := range gx {
		if v := gx[r] - p.H[r]; v > 1e-4 {
			t.Errorf("row %d violated by %g", r, v)
		}
	}
}
