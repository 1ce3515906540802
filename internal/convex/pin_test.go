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

// TestQuadObjectiveNilBlockMapPinned pins one full-Q QuadObjective solve
// (no block map, so the single-block dense Newton path) to the bit patterns
// of its Result.X recorded before the structured Newton step landed
// (testdata/quad_x.json).
func TestQuadObjectiveNilBlockMapPinned(t *testing.T) {
	q := linalg.NewDenseFrom(4, 4, []float64{
		4, 1, 0.5, 0.25,
		1, 3, 0.75, 0.5,
		0.5, 0.75, 2, 1,
		0.25, 0.5, 1, 5,
	})
	c := []float64{-3, 2, -1, -4}
	lo, hi := []float64{-1, -1, -1, -1}, []float64{1, 0.5, 2, 0.4}
	// Box rows plus one coupling row across all variables: Σx ≥ 0.3.
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
	res, err := Solve(&Problem{Obj: &QuadObjective{Q: q, C: c}, G: g, H: h}, nil, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
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
