package convex

import (
	"math"

	"soral/internal/linalg"
)

// LinearObjective is f(x) = cᵀx. It turns the barrier solver into an LP
// solver, used for cross-checks against package lp.
type LinearObjective struct {
	C []float64
}

// Value implements Objective.
func (o *LinearObjective) Value(x []float64) float64 { return linalg.Dot(o.C, x) }

// Change implements Objective: α·cᵀdx.
func (o *LinearObjective) Change(x, dx []float64, alpha float64) float64 {
	return alpha * linalg.Dot(o.C, dx)
}

// Gradient implements Objective.
func (o *LinearObjective) Gradient(grad, x []float64) { copy(grad, o.C) }

// AddHessian implements Objective: a linear objective has no curvature.
func (o *LinearObjective) AddHessian(ns *NewtonSystem, x []float64) {}

// QuadObjective is f(x) = ½·xᵀQx + cᵀx with Q symmetric positive
// semidefinite; Q may be nil for a pure linear objective. A diagonal-only
// quadratic can be given through DiagQ instead of Q.
type QuadObjective struct {
	Q     *linalg.Dense
	DiagQ []float64
	C     []float64
}

// Value implements Objective.
func (o *QuadObjective) Value(x []float64) float64 {
	v := linalg.Dot(o.C, x)
	if o.Q != nil {
		qx := make([]float64, len(x))
		o.Q.MulVec(qx, x)
		v += 0.5 * linalg.Dot(x, qx)
	}
	for i, d := range o.DiagQ {
		v += 0.5 * d * x[i] * x[i]
	}
	return v
}

// Change implements Objective: α·(Qx+c)ᵀdx + ½α²·dxᵀQdx, read row by row
// off Q without a Q·x buffer.
func (o *QuadObjective) Change(x, dx []float64, alpha float64) float64 {
	lin := linalg.Dot(o.C, dx)
	var quad float64
	if o.Q != nil {
		for i := 0; i < o.Q.Rows; i++ {
			row := o.Q.Row(i)
			lin += dx[i] * linalg.Dot(row, x)
			quad += dx[i] * linalg.Dot(row, dx)
		}
	}
	for i, d := range o.DiagQ {
		lin += d * x[i] * dx[i]
		quad += d * dx[i] * dx[i]
	}
	return alpha*lin + 0.5*alpha*alpha*quad
}

// Gradient implements Objective.
func (o *QuadObjective) Gradient(grad, x []float64) {
	if o.Q != nil {
		o.Q.MulVec(grad, x)
	} else {
		linalg.Fill(grad, 0)
	}
	for i, d := range o.DiagQ {
		grad[i] += d * x[i]
	}
	linalg.Axpy(1, o.C, grad)
}

// AddHessian implements Objective. A full Q couples variables entry by
// entry, so it needs a nil block map or a Q that stays inside blocks.
func (o *QuadObjective) AddHessian(ns *NewtonSystem, x []float64) {
	if o.Q != nil {
		for i := 0; i < o.Q.Rows; i++ {
			for j, q := range o.Q.Row(i) {
				ns.Add(i, j, q)
			}
		}
	}
	for i, d := range o.DiagQ {
		ns.AddDiag(i, d)
	}
}

// EntGroup is one entropic movement penalty
//
//	Coef · ( (S+Eps)·ln((S+Eps)/(Prev+Eps)) − S ),   S = Σ_{k∈Members} x_k,
//
// over a group of decision variables. It is the regularizer at the heart of
// the paper's online algorithm: Coef is the reconfiguration price divided by
// η = ln(1+cap/ε), and Prev the previous slot's group total.
type EntGroup struct {
	Members []int
	Coef    float64
	Eps     float64
	Prev    float64
}

func (g *EntGroup) sum(x []float64) float64 {
	var s float64
	for _, k := range g.Members {
		s += x[k]
	}
	return s
}

// Entropic is a convex objective combining linear allocation costs with
// entropic movement penalties over variable groups. It implements Objective
// and is shared by the two-tier (package core) and N-tier (package ntier)
// regularized subproblems.
type Entropic struct {
	Linear []float64
	Groups []EntGroup
}

// entDenFloor floors the entropic denominators (Prev+Eps, sum+Eps). A
// correctly populated group keeps them well above it; a mis-populated one
// degrades to a huge-but-finite penalty instead of seeding Inf/NaN.
const entDenFloor = 1e-12

// Value implements Objective.
func (o *Entropic) Value(x []float64) float64 {
	v := linalg.Dot(o.Linear, x)
	for i := range o.Groups {
		g := &o.Groups[i]
		//sorallint:ignore floatcmp Coef = 0 encodes a disabled penalty group; the skip is exact by contract
		if g.Coef == 0 {
			continue
		}
		s := g.sum(x)
		v += g.Coef * ((s+g.Eps)*math.Log((s+g.Eps)/math.Max(g.Prev+g.Eps, entDenFloor)) - s)
	}
	return v
}

// Change implements Objective. With u = S+Eps, δ = α·Σ_{k∈Members} dx_k
// and D = max(Prev+Eps, floor), a group changes by
//
//	Coef · ( δ·ln(u/D) + (u+δ)·log1p(δ/u) − δ ),
//
// which is the difference of its two values with the common u·ln(u/D)
// cancelled exactly, so the result is accurate relative to δ rather than
// to the group's value.
func (o *Entropic) Change(x, dx []float64, alpha float64) float64 {
	v := alpha * linalg.Dot(o.Linear, dx)
	for i := range o.Groups {
		g := &o.Groups[i]
		//sorallint:ignore floatcmp Coef = 0 encodes a disabled penalty group; the skip is exact by contract
		if g.Coef == 0 {
			continue
		}
		u := g.sum(x) + g.Eps
		d := alpha * g.sum(dx)
		//sorallint:ignore divguard u = S+Eps > 0 on the entropic domain the barrier keeps x in
		v += g.Coef * (d*math.Log(u/math.Max(g.Prev+g.Eps, entDenFloor)) + (u+d)*math.Log1p(d/u) - d)
	}
	return v
}

// Gradient implements Objective.
func (o *Entropic) Gradient(grad, x []float64) {
	copy(grad, o.Linear)
	for i := range o.Groups {
		g := &o.Groups[i]
		//sorallint:ignore floatcmp Coef = 0 encodes a disabled penalty group; the skip is exact by contract
		if g.Coef == 0 {
			continue
		}
		s := g.sum(x)
		d := g.Coef * math.Log((s+g.Eps)/math.Max(g.Prev+g.Eps, entDenFloor))
		for _, k := range g.Members {
			grad[k] += d
		}
	}
}

// AddHessian implements Objective: group g contributes
// Coef/(S+Eps)·𝟙𝟙ᵀ over its members.
func (o *Entropic) AddHessian(ns *NewtonSystem, x []float64) {
	for i := range o.Groups {
		g := &o.Groups[i]
		//sorallint:ignore floatcmp Coef = 0 encodes a disabled penalty group; the skip is exact by contract
		if g.Coef == 0 {
			continue
		}
		s := g.sum(x)
		ns.AddGroup(g.Members, g.Coef/math.Max(s+g.Eps, entDenFloor))
	}
}
