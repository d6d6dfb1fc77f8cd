package core

import (
	"fmt"
	"math"
)

// ArcKind identifies the closed-form family of one linear regime's
// trajectory (paper §IV-B).
type ArcKind int

// The three solution families of λ² + mλ + n = 0 with m, n > 0.
const (
	// ArcSpiral: complex eigenvalues (m² < 4n); logarithmic spiral,
	// the H-form of paper Case 1 (eq. 12).
	ArcSpiral ArcKind = iota + 1
	// ArcNode: distinct negative real eigenvalues (m² > 4n); the F-form
	// (eq. 21).
	ArcNode
	// ArcCritical: repeated eigenvalue (m² = 4n); the L-form (eq. 29).
	ArcCritical
)

// String names the arc kind.
func (k ArcKind) String() string {
	switch k {
	case ArcSpiral:
		return "spiral"
	case ArcNode:
		return "node"
	case ArcCritical:
		return "critical"
	default:
		return fmt.Sprintf("ArcKind(%d)", int(k))
	}
}

// Arc is the closed-form solution of one linear regime
//
//	x' = y,  y' = −n·x − m·y
//
// from a fixed initial state. Time t is measured from the arc's start.
// Arc is a small value: NewArc allocates nothing, so the stitching loop
// builds one per regime switch for free.
type Arc struct {
	kind ArcKind
	// x, y, s are the state components and the switch coordinate
	// x + k·y, each read according to kind (see form).
	x, y, s form
	// scale is the regime's characteristic time (see TimeScale).
	scale float64
}

// form is one scalar component of an arc. Its four coefficients read by
// arc kind:
//
//	spiral:   a·e^{b·t}·cos(c·t + d)  (A, α, β, φ: damped sinusoid, eq. 12)
//	node:     a·e^{b·t} + c·e^{d·t}   (c1, λ1, c2, λ2 with λ1 < λ2, eq. 21)
//	critical: (a + b·t)·e^{c·t}       (p, q, λ; d unused, eq. 29)
type form struct {
	a, b, c, d float64
}

// firstZeroAfter returns the first zero of the component strictly after
// t0, and whether one exists.
func (f form) firstZeroAfter(kind ArcKind, t0 float64) (float64, bool) {
	switch kind {
	case ArcSpiral:
		// Zeros sit at βt + φ = π/2 + nπ; one always exists when A ≠ 0
		// and β > 0. Take the smallest integer n with t_n > t0.
		if f.a == 0 || f.c <= 0 {
			return 0, false
		}
		nf := (f.c*t0 + f.d - math.Pi/2) / math.Pi
		n := math.Floor(nf) + 1
		t := (math.Pi/2 + n*math.Pi - f.d) / f.c
		// Guard against roundoff returning t ≈ t0.
		for t <= t0 {
			n++
			t = (math.Pi/2 + n*math.Pi - f.d) / f.c
		}
		return t, true
	case ArcNode:
		// c1·e^{λ1 t} = −c2·e^{λ2 t} has at most one root; identically
		// signed (or zero) coefficients have none.
		if f.a == 0 || f.c == 0 {
			return 0, false
		}
		r := -f.c / f.a
		if r <= 0 {
			return 0, false
		}
		t := math.Log(r) / (f.b - f.d)
		if t <= t0 {
			return 0, false
		}
		return t, true
	default:
		if f.b == 0 {
			return 0, false
		}
		t := -f.a / f.b
		if t <= t0 {
			return 0, false
		}
		return t, true
	}
}

// At evaluates the state at arc time t ≥ 0. x and y share their
// eigenvalues, so each exponential is computed once for both.
func (a *Arc) At(t float64) (x, y float64) {
	e1, e2 := a.exps(t)
	return a.x.at(a.kind, t, e1, e2), a.y.at(a.kind, t, e1, e2)
}

// X evaluates x alone at arc time t ≥ 0: the root finders need no y.
// It runs the same exps and form.at as At, so X(t) and the x of At(t)
// agree bit for bit.
func (a *Arc) X(t float64) float64 {
	e1, e2 := a.exps(t)
	return a.x.at(a.kind, t, e1, e2)
}

// exps returns the arc's exponentials at t, shared by its components:
// e^{αt} for spirals, e^{λ1·t} and e^{λ2·t} for nodes, e^{λt} for the
// critical case (e2 unused outside nodes).
func (a *Arc) exps(t float64) (e1, e2 float64) {
	switch a.kind {
	case ArcSpiral:
		return math.Exp(a.x.b * t), 0
	case ArcNode:
		return math.Exp(a.x.b * t), math.Exp(a.x.d * t)
	default:
		return math.Exp(a.x.c * t), 0
	}
}

// at evaluates the component at t from the exponentials exps returned.
func (f form) at(kind ArcKind, t, e1, e2 float64) float64 {
	switch kind {
	case ArcSpiral:
		return f.a * e1 * math.Cos(f.c*t+f.d)
	case ArcNode:
		return f.a*e1 + f.c*e2
	default:
		return (f.a + f.b*t) * e1
	}
}

// FirstYZero returns the first time strictly greater than after at which
// y(t) = 0 (an extremum of x), and whether one exists.
func (a *Arc) FirstYZero(after float64) (float64, bool) {
	return a.y.firstZeroAfter(a.kind, after)
}

// FirstSwitch returns the first time strictly greater than after at
// which x + k·y = 0 (a switching-line crossing), and whether one exists.
// k is fixed at construction.
func (a *Arc) FirstSwitch(after float64) (float64, bool) {
	return a.s.firstZeroAfter(a.kind, after)
}

// Kind reports the solution family.
func (a Arc) Kind() ArcKind { return a.kind }

// TimeScale returns a characteristic time of the regime (used to scale
// numeric epsilons): the half-turn period for spirals, 1/|λ_slow| for
// nodes and the repeated-eigenvalue case.
func (a Arc) TimeScale() float64 { return a.scale }

// ArcDiscTol is the relative half-width of the near-degenerate band:
// a discriminant with |m²−4n| ≤ ArcDiscTol·m² is treated as a repeated
// eigenvalue and solved in the L-form. The node coefficients
// (λ₂x₀−y₀)/(λ₂−λ₁) grow like 1/√disc, so inside this band the F-form
// suffers catastrophic cancellation worse than the ≤√ArcDiscTol·m
// eigenvalue shift the L-form substitution introduces.
const ArcDiscTol = 1e-13

// NewArc builds the closed-form solution of the linear regime λ²+mλ+n=0
// from the initial state (x0, y0), with switching line x + k·y = 0.
func NewArc(m, n, k, x0, y0 float64) (Arc, error) {
	if !(m > 0) || !(n > 0) {
		return Arc{}, fmt.Errorf("%w: regime coefficients m=%v, n=%v must be positive", ErrInvalidParams, m, n)
	}
	if !(k > 0) {
		return Arc{}, fmt.Errorf("%w: switching slope k=%v must be positive", ErrInvalidParams, k)
	}
	disc := m*m - 4*n
	if d := ArcDiscTol * m * m; disc < d && disc > -d {
		return criticalArc(-m/2, k, x0, y0), nil
	}
	switch {
	case disc < 0:
		alpha := -m / 2
		beta := math.Sqrt(-disc) / 2
		return spiralArc(alpha, beta, k, x0, y0), nil
	case disc > 0:
		s := math.Sqrt(disc)
		l1 := (-m - s) / 2
		l2 := (-m + s) / 2
		return nodeArc(l1, l2, k, x0, y0), nil
	default:
		return criticalArc(-m/2, k, x0, y0), nil
	}
}

// spiralArc is the H-form solution (paper eq. 12): a logarithmic spiral
// with x(t) = A e^{αt} cos(βt+φ).
func spiralArc(alpha, beta, k, x0, y0 float64) Arc {
	// x = A e^{αt} cos(βt+φ) with A cosφ = x0, A sinφ = (αx0 − y0)/β.
	sinTerm := (alpha*x0 - y0) / beta
	amp := math.Hypot(x0, sinTerm)
	phi := math.Atan2(sinTerm, x0)
	// y = x' = A e^{αt} [α cos θ − β sin θ] = A·ρy·e^{αt}·cos(θ + ψy)
	// with ρy = √(α²+β²), ψy = atan2(β, α).
	rhoY := math.Hypot(alpha, beta)
	psiY := math.Atan2(beta, alpha)
	// s = x + k y = A e^{αt}[(1+kα)cos θ − kβ sin θ] = A·ρs·cos(θ+ψs).
	rhoS := math.Hypot(1+k*alpha, k*beta)
	psiS := math.Atan2(k*beta, 1+k*alpha)
	return Arc{
		kind:  ArcSpiral,
		x:     form{a: amp, b: alpha, c: beta, d: phi},
		y:     form{a: amp * rhoY, b: alpha, c: beta, d: phi + psiY},
		s:     form{a: amp * rhoS, b: alpha, c: beta, d: phi + psiS},
		scale: math.Pi / beta,
	}
}

// nodeArc is the F-form solution (paper eq. 21) with λ1 < λ2 < 0.
func nodeArc(l1, l2, k, x0, y0 float64) Arc {
	a1 := (l2*x0 - y0) / (l2 - l1)
	a2 := (l1*x0 - y0) / (l1 - l2)
	return Arc{
		kind:  ArcNode,
		x:     form{a: a1, b: l1, c: a2, d: l2},
		y:     form{a: a1 * l1, b: l1, c: a2 * l2, d: l2},
		s:     form{a: a1 * (1 + k*l1), b: l1, c: a2 * (1 + k*l2), d: l2},
		scale: 1 / math.Abs(l2),
	}
}

// criticalArc is the L-form solution (paper eq. 29) with repeated
// eigenvalue λ = −m/2.
func criticalArc(l, k, x0, y0 float64) Arc {
	a3 := x0
	a4 := y0 - l*x0
	return Arc{
		kind: ArcCritical,
		x:    form{a: a3, b: a4, c: l},
		y:    form{a: a3*l + a4, b: a4 * l, c: l},
		// s = x + ky = e^{λt}[a3(1+kλ) + k·a4 + a4(1+kλ)t].
		s:     form{a: a3*(1+k*l) + k*a4, b: a4 * (1 + k*l), c: l},
		scale: 1 / math.Abs(l),
	}
}
