package convex

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"soral/internal/linalg"
	"soral/internal/lp"
)

// NewtonSystem is the Newton matrix of the two solve loops,
//
//	t·∇²f(x) + Gᵀ·diag(1/s²)·G   (the barrier, at weight t)
//	∇²f(x) + Gᵀ·diag(z/s)·G      (the primal–dual loop)
//
// held in the structure Problem.Blocks declares (DESIGN.md §15): one small
// dense matrix per variable block, plus a border of rank-one columns for
// every constraint row and entropic group whose support spans blocks. The
// matrix is B + V·Vᵀ with B block-diagonal, so a Newton step costs one
// Cholesky factorization per block plus rank-one updates of the factor, one
// per border column or, when the border has fewer cells than columns, one
// per cell (see factor and fold). With a nil block map there is one block
// holding every variable and no border: the dense Newton step.
//
// Objectives write their Hessian into it through AddDiag, Add and AddGroup.
// The matrix is symmetric and only its lower triangle (in block-local
// order) is stored, so the upper half of what Add receives is ignored.
type NewtonSystem struct {
	n       int
	blockOf []int // variable → block
	pos     []int // variable → position in block-contiguous order
	perm    []int // position → variable
	off     []int // block b holds positions off[b] .. off[b+1]-1

	mats  []*linalg.Dense // per block: its matrix, lower triangle, local order
	chols []*linalg.Cholesky

	// rowBlock is each constraint row's block, or -1 when the row spans
	// blocks and enters the border.
	rowBlock []int

	// Border column k is √bw[k]·a_k, with a_k's entries (variable index,
	// coefficient) at bEnt[bOff[k]:bOff[k+1]].
	bEnt []lp.Entry
	bOff []int
	bw   []float64

	// cells groups the border's variables by their coefficients across the
	// border columns (findCells). When there are fewer cells than columns
	// the border is folded into them (fold): fEnt and fOff then hold the
	// folded columns, already scaled, in bEnt/bOff's layout.
	cells borderCells
	fEnt  []lp.Entry
	fOff  []int

	// rank is the number of rank-one updates in the last factorization. pb
	// holds their product-form factors, interleaved by position: p_k[i] at
	// pb[2(i·rank+k)], β_k[i] right after it. d is the diagonal after all
	// the updates; acc holds one running sum per update.
	rank       int
	pb, d, acc []float64
	y          []float64 // position-order solve scratch
	seen       []int     // per-block stamp deduplicating block solves
	stamp      int

	condEst float64
}

// setup shapes the system for a problem: it validates the block map, lays
// the blocks out contiguously (ascending variable order inside a block, so
// a nil map is the identity layout) and classifies every constraint row as
// in-block or border. Buffers are reused when the shape repeats.
func (ns *NewtonSystem) setup(blocks []int, g *lp.SparseMatrix) error {
	n := g.N
	nb := 1
	if blocks != nil {
		if len(blocks) != n {
			return fmt.Errorf("convex: block map covers %d of %d variables", len(blocks), n)
		}
		for k, b := range blocks {
			if b < 0 || b >= n {
				return fmt.Errorf("convex: variable %d has block %d outside [0, %d)", k, b, n)
			}
			if b+1 > nb {
				nb = b + 1
			}
		}
	}
	ns.n = n
	ns.blockOf = growInts(ns.blockOf, n)
	ns.pos = growInts(ns.pos, n)
	ns.perm = growInts(ns.perm, n)
	ns.off = growInts(ns.off, nb+1)
	ns.seen = growInts(ns.seen, nb)
	ns.rowBlock = growInts(ns.rowBlock, g.M)
	if blocks == nil {
		clear(ns.blockOf)
	} else {
		copy(ns.blockOf, blocks)
	}
	// Counting sort of the variables by block; seen doubles as the cursor.
	clear(ns.off)
	for _, b := range ns.blockOf {
		ns.off[b+1]++
	}
	for b := 0; b < nb; b++ {
		ns.off[b+1] += ns.off[b]
		ns.seen[b] = ns.off[b]
	}
	for k, b := range ns.blockOf {
		p := ns.seen[b]
		ns.seen[b]++
		ns.pos[k], ns.perm[p] = p, k
	}
	clear(ns.seen)
	ns.stamp = 0
	for len(ns.mats) < nb {
		ns.mats = append(ns.mats, nil)
		ns.chols = append(ns.chols, &linalg.Cholesky{})
	}
	ns.mats, ns.chols = ns.mats[:nb], ns.chols[:nb]
	for b := range ns.mats {
		if sz := ns.off[b+1] - ns.off[b]; ns.mats[b] == nil || ns.mats[b].Rows != sz {
			ns.mats[b] = linalg.NewDense(sz, sz)
		}
	}
	for r, row := range g.Rows {
		ns.rowBlock[r] = ns.commonBlock(row)
	}
	ns.y = growFloats(ns.y, n)
	return nil
}

// commonBlock is the block every entry of row lies in, or -1 when the row
// spans blocks. An empty row (no Hessian contribution) counts as block 0.
func (ns *NewtonSystem) commonBlock(row []lp.Entry) int {
	if len(row) == 0 {
		return 0
	}
	b := ns.blockOf[row[0].Index]
	for _, e := range row[1:] {
		if ns.blockOf[e.Index] != b {
			return -1
		}
	}
	return b
}

// reset clears the blocks' lower triangles and empties the border.
func (ns *NewtonSystem) reset() {
	for _, m := range ns.mats {
		for i := 0; i < m.Rows; i++ {
			row := m.Row(i)[:i+1]
			for j := range row {
				row[j] = 0
			}
		}
	}
	ns.bEnt = ns.bEnt[:0]
	ns.bOff = append(ns.bOff[:0], 0)
	ns.bw = ns.bw[:0]
}

// scale multiplies everything accumulated so far by t: the objective part
// of the barrier Hessian, before the constraint terms join it.
func (ns *NewtonSystem) scale(t float64) {
	for _, m := range ns.mats {
		for i := 0; i < m.Rows; i++ {
			row := m.Row(i)[:i+1]
			for j := range row {
				row[j] *= t
			}
		}
	}
	for k := range ns.bw {
		ns.bw[k] *= t
	}
}

// local returns variable k's block and its index inside it.
func (ns *NewtonSystem) local(k int) (int, int) {
	b := ns.blockOf[k]
	return b, ns.pos[k] - ns.off[b]
}

// AddDiag adds v to the diagonal entry of variable k.
func (ns *NewtonSystem) AddDiag(k int, v float64) {
	b, l := ns.local(k)
	ns.mats[b].Add(l, l, v)
}

// Add adds v to entry (i, j). Callers add the whole symmetric matrix; only
// the lower triangle is kept. Both variables must lie in one block: an
// objective whose Hessian couples blocks entry by entry (a full
// QuadObjective.Q, say) needs a nil block map.
func (ns *NewtonSystem) Add(i, j int, v float64) {
	bi, li := ns.local(i)
	bj, lj := ns.local(j)
	if bi != bj {
		panic(fmt.Sprintf("convex: Hessian entry (%d, %d) couples blocks %d and %d", i, j, bi, bj))
	}
	if li >= lj {
		ns.mats[bi].Add(li, lj, v)
	}
}

// AddGroup adds w·𝟙𝟙ᵀ over members: the Hessian of a function of the
// members' sum with second derivative w. A group inside one block adds into
// that block; one spanning blocks becomes the border column √w·𝟙.
func (ns *NewtonSystem) AddGroup(members []int, w float64) {
	if len(members) == 0 {
		return
	}
	b := ns.blockOf[members[0]]
	for _, k := range members[1:] {
		if ns.blockOf[k] != b {
			for _, k := range members {
				ns.bEnt = append(ns.bEnt, lp.Entry{Index: k, Val: 1})
			}
			ns.closeColumn(w)
			return
		}
	}
	m := ns.mats[b]
	for _, k1 := range members {
		l1 := ns.pos[k1] - ns.off[b]
		row := m.Row(l1)
		for _, k2 := range members {
			if l2 := ns.pos[k2] - ns.off[b]; l1 >= l2 {
				row[l2] += w
			}
		}
	}
}

// addRow adds w·aaᵀ for constraint row r with entries a.
func (ns *NewtonSystem) addRow(r int, a []lp.Entry, w float64) {
	b := ns.rowBlock[r]
	if b < 0 {
		ns.bEnt = append(ns.bEnt, a...)
		ns.closeColumn(w)
		return
	}
	m := ns.mats[b]
	for _, ei := range a {
		l1 := ns.pos[ei.Index] - ns.off[b]
		row := m.Row(l1)
		for _, ej := range a {
			if l2 := ns.pos[ej.Index] - ns.off[b]; l1 >= l2 {
				row[l2] += w * ei.Val * ej.Val
			}
		}
	}
}

// closeColumn ends the border column appended at the tail of bEnt with
// weight w.
func (ns *NewtonSystem) closeColumn(w float64) {
	ns.bOff = append(ns.bOff, len(ns.bEnt))
	ns.bw = append(ns.bw, w)
}

// column returns border column k's entries.
func (ns *NewtonSystem) column(k int) []lp.Entry { return ns.bEnt[ns.bOff[k]:ns.bOff[k+1]] }

// factor factorizes every block (each with the diagonal shift rule
// 1e-6·max|diag|+1e-12 of its own) and then folds the border in as rank-one
// updates in product form (Goldfarb and Scheinberg's product-form
// Cholesky): with M_k unit lower triangular,
//
//	B + V·Vᵀ = L·M₀⋯M_{r−1}·D·M_{r−1}ᵀ⋯M₀ᵀ·Lᵀ,
//
// where L is the block Cholesky factor, M_k = I + strictlyLower(p_k·β_kᵀ)
// and p_k = (L·M₀⋯M_{k−1})⁻¹·v_k. Positive rank-one updates need no pivot
// or shift and, unlike the Woodbury capacitance I + Vᵀ·B⁻¹·V, stay
// accurate when a border row's weight 1/s² dwarfs the blocks late in the
// barrier path. When the border has fewer cells than columns, the columns
// v_k are the folded ones (fold) rather than the border's own. condEst is
// (max/min)² over the diagonal of the whole factor, L_ii·√d_i.
func (ns *NewtonSystem) factor(workers int) error {
	for b, m := range ns.mats {
		if m.Rows == 0 {
			continue
		}
		if err := ns.chols[b].RefactorizeWorkers(m, 1e-6*maxAbsDiag(m)+1e-12, workers); err != nil {
			return err
		}
	}
	for k, w := range ns.bw {
		if !(w >= 0) || math.IsInf(w, 1) {
			return fmt.Errorf("border column %d has weight %g", k, w)
		}
	}
	if ns.cells.stale(ns.bEnt, ns.bOff) {
		ns.findCells()
	}
	ent, off, weighted := ns.bEnt, ns.bOff, true
	if ns.cells.q < len(ns.bw) {
		ns.fold()
		ent, off, weighted = ns.fEnt, ns.fOff, false
	}
	n, r := ns.n, len(off)-1
	ns.rank = r
	ns.d = growFloats(ns.d, n)
	linalg.Fill(ns.d, 1)
	ns.pb = growFloats(ns.pb, 2*r*n)
	ns.acc = growFloats(ns.acc, r)
	for k := 0; k < r; k++ {
		scale := 1.0
		if weighted {
			scale = math.Sqrt(ns.bw[k])
		}
		ns.update(k, r, ent[off[k]:off[k+1]], scale)
	}
	minD, maxD := math.Inf(1), 0.0
diag:
	for b, m := range ns.mats {
		for i := 0; i < m.Rows; i++ {
			v := ns.chols[b].L.At(i, i)
			if r > 0 {
				v *= math.Sqrt(ns.d[ns.off[b]+i])
			}
			if !(v > 0) { // NaN, zero or negative: condEst is +Inf
				minD = v
				break diag
			}
			if v < minD {
				minD = v
			}
			if v > maxD {
				maxD = v
			}
		}
	}
	switch {
	case n == 0:
		ns.condEst = 1
	case !(minD > 0):
		ns.condEst = math.Inf(1)
	default:
		ns.condEst = (maxD / minD) * (maxD / minD)
	}
	if !linalg.AllFinite(ns.d) {
		return fmt.Errorf("border update: %w", linalg.ErrNotPositiveDefinite)
	}
	return nil
}

// update applies rank-one update k of r, for the column v = scale·a with
// a's entries in col.
func (ns *NewtonSystem) update(k, r int, col []lp.Entry, scale float64) {
	n := ns.n
	// c = L⁻¹·v, nonzero only inside the blocks the column touches.
	c := ns.y[:n]
	linalg.Fill(c, 0)
	f := n
	for _, e := range col {
		c[ns.pos[e.Index]] += scale * e.Val
		f = min(f, ns.off[ns.blockOf[e.Index]])
	}
	ns.stamp++
	for _, e := range col {
		if b := ns.blockOf[e.Index]; ns.seen[b] != ns.stamp {
			ns.seen[b] = ns.stamp
			blk := c[ns.off[b]:ns.off[b+1]]
			ns.chols[b].SolveLower(blk, blk)
		}
	}
	// One pass from the first touched position (everything before it stays
	// zero) applies M_{k−1}⁻¹⋯M₀⁻¹ element by element and runs the update
	// recurrence on the result p_k.
	for i := 0; i < f; i++ {
		ns.pb[2*(i*r+k)], ns.pb[2*(i*r+k)+1] = 0, 0
	}
	s := ns.acc[:k]
	linalg.Fill(s, 0)
	t := 1.0
	for i := f; i < n; i++ {
		ci := c[i]
		row := ns.pb[2*i*r : 2*(i+1)*r]
		for j := range s {
			ci -= row[2*j] * s[j]
			s[j] += row[2*j+1] * ci
		}
		//sorallint:ignore divguard d_i starts at 1 and every update multiplies it by t_new/t_old ≥ 1
		tn := t + ci*ci/ns.d[i]
		//sorallint:ignore divguard d_i ≥ 1 (above) and tn ≥ 1
		row[2*k], row[2*k+1] = ci, ci/(ns.d[i]*tn)
		ns.d[i] *= tn / t
		t = tn
	}
}

// borderCells is the cell structure of a border (DESIGN.md §15): a cell is
// a set of variables with the same coefficient in every border column, so
// column k is Σ_c A[c,k]·u_c over the cells' indicator vectors u_c.
type borderCells struct {
	// keyEnt and keyOff are the border the cells were found for. The
	// border's supports and coefficients do not change from one Newton step
	// to the next, only its weights, so the cells are found once and then
	// reused while the border still matches.
	keyEnt []lp.Entry
	keyOff []int

	q  int   // number of cells
	of []int // variable → cell, −1 for variables in no column

	// Built only when q < r, for fold: the cells' variables, cell c at
	// vars[off[c]:off[c+1]], and A, q×r, with cell c's coefficient in
	// column k at a[c·r+k].
	vars, off []int
	a         []float64

	// Scratch: findCells' per-column entries and refinement stamps, fold's
	// q×q matrix, drop thresholds, live flags and factor column.
	ent       []cellEntry
	mark, at  []int
	ids       []int
	w, tol, l []float64
	live      []bool
}

// cellEntry is one variable's coefficient in a column, tagged with the
// variable's class before that column refines it.
type cellEntry struct {
	class, v int
	val      float64
}

// compareCellEntries orders entries by class, then by coefficient.
func compareCellEntries(a, b cellEntry) int {
	return cmp.Or(cmp.Compare(a.class, b.class), cmp.Compare(a.val, b.val))
}

// stale reports whether the cells were found for a border other than the
// one in ent/off.
func (c *borderCells) stale(ent []lp.Entry, off []int) bool {
	if len(ent) != len(c.keyEnt) || !slices.Equal(off, c.keyOff) {
		return true
	}
	for i, e := range ent {
		if k := c.keyEnt[i]; e.Index != k.Index || math.Float64bits(e.Val) != math.Float64bits(k.Val) {
			return true
		}
	}
	return false
}

// findCells partitions the border's variables into cells by refinement:
// every variable starts in one class, and each column splits the classes
// it touches by coefficient, while the variables it misses keep theirs. Two
// variables end in one cell exactly when they share every coefficient.
// Cells are numbered by their least variable; A is read off each cell's
// first variable.
func (ns *NewtonSystem) findCells() {
	c := &ns.cells
	n, r := ns.n, len(ns.bw)
	c.keyEnt = append(c.keyEnt[:0], ns.bEnt...)
	c.keyOff = append(c.keyOff[:0], ns.bOff...)
	c.of = growInts(c.of, n)
	c.mark = growInts(c.mark, n)
	c.at = growInts(c.at, n)
	clear(c.of) // class 0: in no column yet
	clear(c.mark)
	next := 1
	for k := 0; k < r; k++ {
		// The column's coefficients, a variable listed twice summed.
		ent := c.ent[:0]
		for _, e := range ns.column(k) {
			if c.mark[e.Index] == k+1 {
				ent[c.at[e.Index]].val += e.Val
				continue
			}
			c.mark[e.Index], c.at[e.Index] = k+1, len(ent)
			ent = append(ent, cellEntry{class: c.of[e.Index], v: e.Index, val: e.Val})
		}
		slices.SortFunc(ent, compareCellEntries)
		for i, e := range ent {
			if i > 0 && compareCellEntries(e, ent[i-1]) != 0 {
				next++
			}
			c.of[e.v] = next
		}
		next++
		c.ent = ent
	}
	// Renumber the classes met in ascending variable order 0..q−1.
	c.ids = growInts(c.ids, next)
	for i := range c.ids {
		c.ids[i] = -1
	}
	c.q = 0
	for v, id := range c.of {
		if id == 0 {
			c.of[v] = -1
			continue
		}
		if c.ids[id] < 0 {
			c.ids[id] = c.q
			c.q++
		}
		c.of[v] = c.ids[id]
	}
	if c.q >= r {
		return // no fold: the columns pass through as they are
	}
	q := c.q
	c.off = growInts(c.off, q+1)
	clear(c.off)
	for _, id := range c.of {
		if id >= 0 {
			c.off[id+1]++
		}
	}
	for i := 0; i < q; i++ {
		c.off[i+1] += c.off[i]
	}
	c.vars = growInts(c.vars, c.off[q])
	copy(c.ids, c.off[:q]) // cursor per cell
	for v, id := range c.of {
		if id >= 0 {
			c.vars[c.ids[id]] = v
			c.ids[id]++
		}
	}
	c.a = growFloats(c.a, q*r)
	clear(c.a)
	for k := 0; k < r; k++ {
		for _, e := range ns.column(k) {
			if id := c.of[e.Index]; c.vars[c.off[id]] == e.Index {
				c.a[id*r+k] += e.Val
			}
		}
	}
}

// fold rewrites the border V·diag(w)·Vᵀ = U·W·Uᵀ, U the q cell indicators
// and W = A·diag(w)·Aᵀ, as the columns U·R[:,j] of a diagonally pivoted
// Cholesky factor W = R·Rᵀ, written to fEnt/fOff. W is positive
// semidefinite; a cell whose remaining pivot has fallen to the rounding
// level of its own diagonal, (q+r)·eps·W_ii, is dropped with the rest of
// its row of the Schur complement. So a rank-deficient A gives fewer than q
// columns, and there are never more than q.
func (ns *NewtonSystem) fold() {
	c := &ns.cells
	q, r := c.q, len(ns.bw)
	c.w = growFloats(c.w, q*q)
	c.tol = growFloats(c.tol, q)
	c.l = growFloats(c.l, q)
	if cap(c.live) < q {
		c.live = make([]bool, q)
	}
	w, tol, l, live := c.w, c.tol, c.l, c.live[:q]
	for i := 0; i < q; i++ {
		ai := c.a[i*r : (i+1)*r]
		for j := 0; j <= i; j++ {
			aj := c.a[j*r : (j+1)*r]
			var s float64
			for k, bw := range ns.bw {
				s += bw * ai[k] * aj[k]
			}
			w[i*q+j] = s
		}
		tol[i] = float64(q+r) * 0x1p-52 * w[i*q+i]
		live[i] = true
	}
	ns.fEnt = ns.fEnt[:0]
	ns.fOff = append(ns.fOff[:0], 0)
	for {
		p := -1
		for i := 0; i < q; i++ {
			if !live[i] {
				continue
			}
			if !(w[i*q+i] > tol[i]) {
				live[i] = false
				continue
			}
			if p < 0 || w[i*q+i] > w[p*q+p] {
				p = i
			}
		}
		if p < 0 {
			break
		}
		live[p] = false
		piv := math.Sqrt(w[p*q+p])
		ns.emitCell(p, piv)
		for i := 0; i < q; i++ {
			if !live[i] {
				continue
			}
			//sorallint:ignore divguard piv = √W_pp with W_pp > tol_p ≥ 0 (pivot choice above)
			l[i] = w[max(i, p)*q+min(i, p)] / piv
			//sorallint:ignore floatcmp exact-zero sparsity skip: a cell W does not couple to the pivot adds nothing to this column
			if l[i] != 0 {
				ns.emitCell(i, l[i])
			}
		}
		for i := 0; i < q; i++ {
			if !live[i] {
				continue
			}
			for j := 0; j <= i; j++ {
				if live[j] {
					w[i*q+j] -= l[i] * l[j]
				}
			}
		}
		ns.fOff = append(ns.fOff, len(ns.fEnt))
	}
}

// emitCell appends val on every variable of cell id to the folded column
// being built.
func (ns *NewtonSystem) emitCell(id int, val float64) {
	c := &ns.cells
	for _, v := range c.vars[c.off[id]:c.off[id+1]] {
		ns.fEnt = append(ns.fEnt, lp.Entry{Index: v, Val: val})
	}
}

// solve writes the Newton direction dx = −(B + V·Vᵀ)⁻¹·g.
func (ns *NewtonSystem) solve(dx, g []float64) {
	n, r := ns.n, ns.rank
	y := ns.y[:n]
	for p, k := range ns.perm[:n] {
		y[p] = g[k]
	}
	if r == 0 {
		for b, m := range ns.mats {
			if m.Rows > 0 {
				ns.chols[b].SolveInPlace(y[ns.off[b]:ns.off[b+1]])
			}
		}
	} else {
		for b, m := range ns.mats {
			if blk := y[ns.off[b]:ns.off[b+1]]; m.Rows > 0 {
				ns.chols[b].SolveLower(blk, blk)
			}
		}
		// y ← D⁻¹·M_{r−1}⁻¹⋯M₀⁻¹·y, then y ← M₀⁻ᵀ⋯M_{r−1}⁻ᵀ·y, each a
		// single pass with the r updates interleaved per element.
		s := ns.acc[:r]
		linalg.Fill(s, 0)
		for i := 0; i < n; i++ {
			yi := y[i]
			row := ns.pb[2*i*r : 2*(i+1)*r]
			for j := range s {
				yi -= row[2*j] * s[j]
				s[j] += row[2*j+1] * yi
			}
			//sorallint:ignore divguard d_i starts at 1 and every border update multiplies it by t_new/t_old ≥ 1
			y[i] = yi / ns.d[i]
		}
		linalg.Fill(s, 0)
		for i := n - 1; i >= 0; i-- {
			yi := y[i]
			row := ns.pb[2*i*r : 2*(i+1)*r]
			for j := r - 1; j >= 0; j-- {
				yi -= row[2*j+1] * s[j]
				s[j] += row[2*j] * yi
			}
			y[i] = yi
		}
		for b, m := range ns.mats {
			if blk := y[ns.off[b]:ns.off[b+1]]; m.Rows > 0 {
				ns.chols[b].SolveUpper(blk, blk)
			}
		}
	}
	for p, k := range ns.perm[:n] {
		dx[k] = -y[p]
	}
}

// mulVec writes the assembled matrix times v into dst: every block's
// symmetric matrix, read off its stored lower triangle, plus the border's
// own weighted columns. It is the matrix before the block shifts and the
// fold, which solve applies only approximately.
func (ns *NewtonSystem) mulVec(dst, v []float64) {
	clear(dst[:ns.n])
	for b, m := range ns.mats {
		vars := ns.perm[ns.off[b]:ns.off[b+1]]
		for i, ki := range vars {
			row := m.Row(i)
			for j, kj := range vars[:i] {
				dst[ki] += row[j] * v[kj]
				dst[kj] += row[j] * v[ki]
			}
			dst[ki] += row[i] * v[ki]
		}
	}
	for k, w := range ns.bw {
		col := ns.column(k)
		var d float64
		for _, e := range col {
			d += e.Val * v[e.Index]
		}
		for _, e := range col {
			dst[e.Index] += w * d * e.Val
		}
	}
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
