package convex

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"soral/internal/linalg"
)

const refPrec = 256

func bf(v float64) *big.Float { return new(big.Float).SetPrec(refPrec).SetFloat64(v) }

// bigLog returns ln v for v > 0 to refPrec bits: with v = m·2ᵉ, m in
// [½, 1), ln v = 2·atanh((m−1)/(m+1)) + e·ln 2, ln 2 = 2·atanh(1/3), each
// atanh summed as z + z³/3 + z⁵/5 + … with |z| ≤ 1/3.
func bigLog(v *big.Float) *big.Float {
	m := new(big.Float).SetPrec(refPrec)
	e := v.MantExp(m)
	one := bf(1)
	z := new(big.Float).SetPrec(refPrec).Quo(new(big.Float).SetPrec(refPrec).Sub(m, one), new(big.Float).SetPrec(refPrec).Add(m, one))
	ln2 := atanh2(new(big.Float).SetPrec(refPrec).Quo(one, bf(3)))
	return new(big.Float).SetPrec(refPrec).Add(atanh2(z), ln2.Mul(ln2, bf(float64(e))))
}

// atanh2 returns 2·atanh(z) for |z| ≤ 1/3.
func atanh2(z *big.Float) *big.Float {
	sum := new(big.Float).SetPrec(refPrec)
	z2 := new(big.Float).SetPrec(refPrec).Mul(z, z)
	pow := new(big.Float).SetPrec(refPrec).Set(z)
	term := new(big.Float).SetPrec(refPrec)
	for k := 1; pow.Sign() != 0; k += 2 {
		term.Quo(pow, bf(float64(k)))
		sum.Add(sum, term)
		if term.MantExp(nil) < sum.MantExp(nil)-refPrec-8 {
			break
		}
		pow.Mul(pow, z2)
	}
	return sum.Mul(sum, bf(2))
}

// entTerm is (u·ln(u/d) − s) in refPrec bits for u = s+eps, d > 0.
func entTerm(s *big.Float, eps, d float64) *big.Float {
	u := new(big.Float).SetPrec(refPrec).Add(s, bf(eps))
	l := bigLog(new(big.Float).SetPrec(refPrec).Quo(u, bf(d)))
	return l.Mul(l, u).Sub(l, s)
}

// changeCase is one objective with its value in refPrec bits, so the
// reference change f(x+α·dx) − f(x) is taken at a point formed exactly.
// xScale scales the shared test point so that |f| ≈ 1e10.
type changeCase struct {
	name   string
	obj    Objective
	value  func(x []*big.Float) *big.Float
	xScale float64
}

func changeCases(rng *rand.Rand, n int) []changeCase {
	dot := func(c []float64, x []*big.Float) *big.Float {
		v := bf(0)
		for k, ck := range c {
			v.Add(v, new(big.Float).SetPrec(refPrec).Mul(bf(ck), x[k]))
		}
		return v
	}
	c := make([]float64, n)
	for k := range c {
		c[k] = 1e4 * (1 + rng.Float64())
	}
	q := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.Float64()
			if i == j {
				v += float64(n)
			}
			q.Set(i, j, v)
			q.Set(j, i, v)
		}
	}
	diag := make([]float64, n)
	for k := range diag {
		diag[k] = rng.Float64()
	}
	quad := &QuadObjective{Q: q, DiagQ: diag, C: c}
	ent := &Entropic{Linear: c, Groups: []EntGroup{
		{Members: []int{0, 1, 2}, Coef: 7, Eps: 0.01, Prev: 2},
		{Members: []int{3}, Coef: 1e-3, Eps: 0.5, Prev: 1e9},
		{Members: []int{1, 4}, Coef: 0, Eps: 1, Prev: 1},
		{Members: []int{2, 4}, Coef: 3, Eps: 0, Prev: 0}, // Prev+Eps below entDenFloor
	}}
	entP := make([]float64, n)
	for k := range entP {
		entP[k] = rng.Float64()
	}
	entVec := &entropyObjective{p: entP, eps: 0.01}
	entOne := &scaledEntropyPlusLinear{a: 1, bOverEta: 5 / math.Log(1e3), eps: 0.01, prev: 3}
	return []changeCase{
		{"LinearObjective", &LinearObjective{C: c}, func(x []*big.Float) *big.Float { return dot(c, x) }, 1},
		{"QuadObjective", quad, func(x []*big.Float) *big.Float {
			v := bf(0)
			for i := 0; i < n; i++ {
				v.Add(v, new(big.Float).SetPrec(refPrec).Mul(x[i], dot(q.Row(i), x)))
				v.Add(v, new(big.Float).SetPrec(refPrec).Mul(bf(diag[i]), new(big.Float).SetPrec(refPrec).Mul(x[i], x[i])))
			}
			return v.Mul(v, bf(0.5)).Add(v, dot(c, x))
		}, 1},
		{"Entropic", ent, func(x []*big.Float) *big.Float {
			v := dot(c, x)
			for _, g := range ent.Groups {
				if g.Coef == 0 {
					continue
				}
				s := bf(0)
				for _, k := range g.Members {
					s.Add(s, x[k])
				}
				t := entTerm(s, g.Eps, math.Max(g.Prev+g.Eps, entDenFloor))
				v.Add(v, t.Mul(t, bf(g.Coef)))
			}
			return v
		}, 1},
		{"entropyObjective", entVec, func(x []*big.Float) *big.Float {
			v := bf(0)
			for i := range x {
				v.Add(v, entTerm(x[i], entVec.eps, entVec.p[i]+entVec.eps))
			}
			return v
		}, 1e4},
		{"scaledEntropyPlusLinear", entOne, func(x []*big.Float) *big.Float {
			t := entTerm(x[0], entOne.eps, entOne.prev+entOne.eps)
			t.Mul(t, bf(entOne.bOverEta))
			return t.Add(t, new(big.Float).SetPrec(refPrec).Mul(bf(entOne.a), x[0]))
		}, 1e4},
	}
}

// TestObjectiveChangeMatchesBigReference checks every Objective's Change
// against f(x+α·dx) − f(x) taken in 256-bit arithmetic, at points where
// |f| ≈ 1e10, the size of t·f late in P2's barrier path. Change must be
// accurate relative to the change itself: within 64·eps of α·Σ|∂_k f·dx_k|
// plus the change's own magnitude. That bound lies at least a thousand
// times below eps·|f|, the rounding of one value of f, so the difference
// of two values cannot meet it.
func TestObjectiveChangeMatchesBigReference(t *testing.T) {
	const n = 5
	rng := rand.New(rand.NewSource(20))
	x := make([]float64, n)
	dx := make([]float64, n)
	for k := range x {
		x[k] = 1e5 * (1 + rng.Float64())
		dx[k] = 2*rng.Float64() - 1
	}
	for _, c := range changeCases(rng, n) {
		xc := make([]float64, n)
		for k := range xc {
			xc[k] = c.xScale * x[k]
		}
		bx := make([]*big.Float, len(xc))
		for k, v := range xc {
			bx[k] = bf(v)
		}
		f0 := c.value(bx)
		f0v, _ := f0.Float64()
		if math.Abs(f0v) < 1e9 {
			t.Fatalf("%s: f(x) = %g, want |f| ≈ 1e10", c.name, f0v)
		}
		grad := make([]float64, len(xc))
		c.obj.Gradient(grad, xc)
		for _, alpha := range []float64{1, 0x1p-10, 0x1p-30} {
			bxa := make([]*big.Float, len(xc))
			for k := range xc {
				bxa[k] = new(big.Float).SetPrec(refPrec).Mul(bf(alpha), bf(dx[k]))
				bxa[k].Add(bxa[k], bx[k])
			}
			wantB := c.value(bxa)
			want, _ := wantB.Sub(wantB, f0).Float64()
			got := c.obj.Change(xc, dx, alpha)
			var scale float64
			for k := range xc {
				scale += math.Abs(alpha * grad[k] * dx[k])
			}
			tol := 64 * 0x1p-52 * (scale + math.Abs(want))
			if tol > 1e-3*0x1p-52*math.Abs(f0v) {
				t.Fatalf("%s α=%g: bound %g is not far below eps·|f| = %g", c.name, alpha, tol, 0x1p-52*math.Abs(f0v))
			}
			if d := math.Abs(got - want); !(d <= tol) {
				t.Errorf("%s α=%g: Change %.17g, reference %.17g, |Δ| = %g > %g", c.name, alpha, got, want, d, tol)
			}
		}
	}
}
