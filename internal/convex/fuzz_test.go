package convex

import (
	"math"
	"math/rand"
	"testing"

	"soral/internal/lp"
)

// blockProblem draws a random block-structured problem from seed: a block
// map over n variables, box rows on every variable, extra rows inside one
// block and rows spanning blocks, and an Entropic objective whose groups
// sit inside one block or span several. Every row is strictly satisfied at
// the box midpoint, which is returned as the starting point.
func blockProblem(seed int64, nv, nb, nrows, ngroups uint8) (*Problem, []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + int(nv)%10
	blocks := make([]int, n)
	nblk := 1 + int(nb)%n
	for k := range blocks {
		blocks[k] = rng.Intn(nblk)
	}
	mid := make([]float64, n)
	type row struct {
		es  []lp.Entry
		rhs float64
	}
	var rows []row
	for k := range mid {
		hi := 1 + 2*rng.Float64()
		mid[k] = hi / 2
		rows = append(rows, row{[]lp.Entry{{Index: k, Val: 1}}, hi}, row{[]lp.Entry{{Index: k, Val: -1}}, 0})
	}
	// members draws a random support: inside block b when b ≥ 0, anywhere
	// otherwise.
	members := func(b int) []int {
		var out []int
		for k := range blocks {
			if (b < 0 || blocks[k] == b) && rng.Intn(2) == 0 {
				out = append(out, k)
			}
		}
		if len(out) == 0 {
			out = append(out, rng.Intn(n))
		}
		return out
	}
	for i := 0; i < int(nrows)%8; i++ {
		b := -1
		if i%2 == 0 {
			b = blocks[rng.Intn(n)]
		}
		var es []lp.Entry
		var at float64
		for _, k := range members(b) {
			v := 2*rng.Float64() - 1
			es = append(es, lp.Entry{Index: k, Val: v})
			at += v * mid[k]
		}
		rows = append(rows, row{es, at + 0.1 + rng.Float64()})
	}
	obj := &Entropic{Linear: make([]float64, n)}
	for k := range obj.Linear {
		obj.Linear[k] = 2*rng.Float64() - 1
	}
	for i := 0; i < int(ngroups)%6; i++ {
		b := -1
		if i%2 == 1 {
			b = blocks[rng.Intn(n)]
		}
		obj.Groups = append(obj.Groups, EntGroup{
			Members: members(b),
			Coef:    0.1 + 2*rng.Float64(),
			Eps:     0.01 + 0.1*rng.Float64(),
			Prev:    2 * rng.Float64(),
		})
	}
	g := lp.NewSparseMatrix(len(rows), n)
	h := make([]float64, len(rows))
	for r, rw := range rows {
		for _, e := range rw.es {
			g.Append(r, e.Index, e.Val)
		}
		h[r] = rw.rhs
	}
	return &Problem{Obj: obj, G: g, H: h, Blocks: blocks}, mid
}

// FuzzNewtonBlockVsDense checks the structured Newton step against the
// dense one: the same random problem solved with its block map and with the
// map cleared must converge in both forms to objectives within 1e-8
// relative. Run it with `make fuzz`; the seed corpus lives under
// testdata/fuzz/FuzzNewtonBlockVsDense.
func FuzzNewtonBlockVsDense(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, nv, nb, nrows, ngroups uint8) {
		p, x0 := blockProblem(seed, nv, nb, nrows, ngroups)
		opts := Options{Tol: 1e-9}
		blocked, err := Solve(p, x0, opts)
		if err != nil {
			t.Fatalf("block-mapped solve: %v", err)
		}
		dense := *p
		dense.Blocks = nil
		ref, err := Solve(&dense, x0, opts)
		if err != nil {
			t.Fatalf("dense solve: %v", err)
		}
		if !blocked.Converged || !ref.Converged {
			t.Fatalf("converged: blocks %v, dense %v", blocked.Converged, ref.Converged)
		}
		if d := math.Abs(blocked.Obj - ref.Obj); d > 1e-8*math.Max(1, math.Abs(ref.Obj)) {
			t.Fatalf("objective %.17g (blocks) vs %.17g (dense)", blocked.Obj, ref.Obj)
		}
	})
}
