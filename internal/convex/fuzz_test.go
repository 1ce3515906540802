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
//
// The high bits of nrows and ngroups add rows and groups with P2's cell
// structure (DESIGN.md §15): the variables are dealt into a few cells, and
// each such row is a ±1 combination of whole cells, each such group the
// union of some cells, the way P2's (3d) rows and tier-2 groups are
// combinations of tier-2 clouds. These are the borders the Newton step
// folds into its cells; random-coefficient rows almost never fold. With
// nv's high bit set the last cell's coefficient is the sum of the first
// two cells', so the cells' coefficient matrix is rank-deficient and the
// folded W singular.
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
	if cellRows, cellGroups := int(nrows/8)%6, int(ngroups/8)%4; cellRows+cellGroups > 0 {
		q := 2 + int(nb/16)%3
		deficient := nv&0x80 != 0 && q >= 3
		cellOf := make([]int, n)
		for k := range cellOf {
			cellOf[k] = rng.Intn(q+1) - 1 // −1: in no cell
		}
		// cellVars lists the variables with coefficient coef[c] on cell c.
		cellVars := func(coef []int) []lp.Entry {
			var es []lp.Entry
			for k, c := range cellOf {
				if c >= 0 && coef[c] != 0 {
					es = append(es, lp.Entry{Index: k, Val: float64(coef[c])})
				}
			}
			return es
		}
		coef := make([]int, q)
		for i := 0; i < cellRows; i++ {
			for c := range coef {
				coef[c] = rng.Intn(3) - 1
			}
			if deficient {
				coef[q-1] = coef[0] + coef[1]
			}
			es := cellVars(coef)
			if len(es) == 0 {
				continue
			}
			var at float64
			for _, e := range es {
				at += e.Val * mid[e.Index]
			}
			rows = append(rows, row{es, at + 0.1 + rng.Float64()})
		}
		for i := 0; i < cellGroups; i++ {
			for c := range coef {
				coef[c] = rng.Intn(2)
			}
			if deficient {
				if coef[0] == 1 {
					coef[1] = 0
				}
				coef[q-1] = coef[0] + coef[1]
			}
			es := cellVars(coef)
			if len(es) == 0 {
				continue
			}
			members := make([]int, len(es))
			for j, e := range es {
				members[j] = e.Index
			}
			obj.Groups = append(obj.Groups, EntGroup{
				Members: members,
				Coef:    0.1 + 2*rng.Float64(),
				Eps:     0.01 + 0.1*rng.Float64(),
				Prev:    2 * rng.Float64(),
			})
		}
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

// TestCellSeedsFold checks that the cell-structured entries of
// FuzzNewtonBlockVsDense's seed corpus reach the folded border: their first
// Newton step has fewer cells than border columns, and on the rank-deficient
// ones (nv's high bit) the folded rank falls below the number of cells.
func TestCellSeedsFold(t *testing.T) {
	for _, c := range []struct {
		seed                   int64
		nv, nb, nrows, ngroups uint8
	}{
		{101, 6, 36, 25, 24},
		{102, 135, 5, 32, 8},
		{103, 8, 22, 41, 16},
		{107, 7, 38, 41, 24},
		{114, 137, 5, 32, 8},
		{131, 6, 38, 41, 24},
		{134, 137, 37, 32, 24},
	} {
		p, x0 := blockProblem(c.seed, c.nv, c.nb, c.nrows, c.ngroups)
		ws := NewWorkspace()
		cols, rank, err := ws.NewtonStep(p, x0, 1, make([]float64, len(x0)))
		if err != nil {
			t.Fatalf("seed %d: %v", c.seed, err)
		}
		q := ws.ns.cells.q
		t.Logf("seed %d: %d border columns, %d cells, rank %d", c.seed, cols, q, rank)
		if q >= cols {
			t.Errorf("seed %d: %d cells for %d border columns: the border does not fold", c.seed, q, cols)
		}
		if c.nv&0x80 != 0 && rank >= q {
			t.Errorf("seed %d: rank-deficient cells factored at rank %d of %d cells", c.seed, rank, q)
		}
	}
}

// TestFoldSumsRepeatedEntries covers border columns that list a variable
// twice, which lp.SparseMatrix rows and entropic groups allow: cells must be
// found from the summed coefficients. x0's two entries in the second row
// sum to 2 while x2 and x4 have 1 there, so x0 is a cell of its own
// although each of its entries equals theirs; the folded step must match
// the dense one.
func TestFoldSumsRepeatedEntries(t *testing.T) {
	g, h := boxConstraints(make([]float64, 6), []float64{1, 1, 1, 1, 1, 1})
	rows := [][]lp.Entry{
		{{Index: 0, Val: 1}, {Index: 2, Val: 1}, {Index: 4, Val: 1}},
		{{Index: 0, Val: 1}, {Index: 2, Val: 1}, {Index: 0, Val: 1}, {Index: 4, Val: 1}},
		{{Index: 1, Val: 1}, {Index: 3, Val: 1}, {Index: 5, Val: 1}},
		{{Index: 1, Val: 1}, {Index: 0, Val: 1}, {Index: 3, Val: 1}, {Index: 2, Val: 1}, {Index: 4, Val: 1}, {Index: 5, Val: 1}},
	}
	for _, es := range rows {
		r := g.M
		g.M++
		g.Rows = append(g.Rows, nil)
		for _, e := range es {
			g.Append(r, e.Index, e.Val)
		}
		h = append(h, 10)
	}
	obj := &Entropic{
		Linear: []float64{1, -1, 0.5, 0, -0.5, 1},
		Groups: []EntGroup{{Members: []int{0, 2, 4}, Coef: 1, Eps: 0.1, Prev: 1}},
	}
	p := &Problem{Obj: obj, G: g, H: h, Blocks: []int{0, 0, 1, 1, 2, 2}}
	dense := *p
	dense.Blocks = nil
	x := []float64{0.3, 0.6, 0.2, 0.5, 0.4, 0.7}
	dx, ref := make([]float64, 6), make([]float64, 6)
	cols, rank, err := NewWorkspace().NewtonStep(p, x, 3, dx)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewWorkspace().NewtonStep(&dense, x, 3, ref); err != nil {
		t.Fatal(err)
	}
	if cols != 5 || rank != 3 {
		t.Errorf("border of %d columns folded to rank %d, want 5 columns at rank 3", cols, rank)
	}
	for i := range dx {
		if d := math.Abs(dx[i] - ref[i]); d > 1e-12*(1+math.Abs(ref[i])) {
			t.Errorf("dx[%d] = %.17g (folded) vs %.17g (dense)", i, dx[i], ref[i])
		}
	}
}
