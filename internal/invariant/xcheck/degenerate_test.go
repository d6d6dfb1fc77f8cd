package xcheck

import (
	"math"
	"testing"

	"bcnphase/internal/core"
)

// TestNearDegenerateAgreesWithRK45 sweeps the increase-region gain
// through a whisker (1e-9 … 1e-15, both signs) of the repeated
// eigenvalue threshold and demands the closed-form kernel and the RK45
// oracle agree within the cross-check tolerance at every offset — the
// near-degenerate band in core.NewArc exists precisely so the F-form's
// 1/√disc coefficient blowup cannot flip a verdict here.
func TestNearDegenerateAgreesWithRK45(t *testing.T) {
	base := core.PaperExample()
	giCrit := base.AThreshold() / (base.Ru * float64(base.N))
	for _, eps := range []float64{0, 1e-9, -1e-9, 1e-11, -1e-11, 1e-13, -1e-13, 1e-15, -1e-15} {
		p := base
		p.Gi = giCrit * (1 + eps)
		if err := p.Validate(); err != nil {
			t.Fatalf("eps=%g: %v", eps, err)
		}
		closed, err := core.Classify(p, core.SolveOptions{})
		if err != nil {
			t.Fatalf("eps=%g closed: %v", eps, err)
		}
		rk, err := StitchRK45(p, false)
		if err != nil {
			t.Fatalf("eps=%g rk45: %v", eps, err)
		}
		if closed.Outcome != rk.Outcome {
			t.Errorf("eps=%g: outcome closed=%v rk=%v", eps, closed.Outcome, rk.Outcome)
		}
		if closed.Crossings != rk.Crossings {
			t.Errorf("eps=%g: crossings closed=%d rk=%d", eps, closed.Crossings, rk.Crossings)
		}
		// 1e-5 relative: the integrator's event bisection resolves a steep
		// boundary crossing a few bits past the wall (time-resolution bound).
		if d := math.Abs(closed.MaxX - rk.MaxX); d > 1e-5*(math.Abs(closed.MaxX)+p.Q0) {
			t.Errorf("eps=%g: MaxX closed=%v rk=%v (Δ=%g)", eps, closed.MaxX, rk.MaxX, d)
		}
	}
}

// TestRK45AgreesWithClosed pins the RK45 oracle to the closed forms on
// representative stable, cyclic and overflowing points.
func TestRK45AgreesWithClosed(t *testing.T) {
	base := core.PaperExample()
	cases := []struct {
		name   string
		gi, gd float64
	}{
		{"paper-default", base.Gi, base.Gd},
		{"deep-stable", 0.1, 0.002},
		{"aggressive", 8, 0.25},
		{"slow-increase", 0.05, 0.02},
	}
	for _, tc := range cases {
		p := base
		p.Gi, p.Gd = tc.gi, tc.gd
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		closed, err := core.Classify(p, core.SolveOptions{})
		if err != nil {
			t.Fatalf("%s closed: %v", tc.name, err)
		}
		rk, err := StitchRK45(p, false)
		if err != nil {
			t.Fatalf("%s rk45: %v", tc.name, err)
		}
		if rk.Outcome != closed.Outcome {
			t.Errorf("%s: outcome rk=%v closed=%v", tc.name, rk.Outcome, closed.Outcome)
		}
		if rk.Crossings != closed.Crossings {
			t.Errorf("%s: crossings rk=%d closed=%d", tc.name, rk.Crossings, closed.Crossings)
		}
		relTol := func(scale float64) float64 { return 1e-6 * scale }
		if d := math.Abs(rk.MaxX - closed.MaxX); d > relTol(math.Abs(closed.MaxX)+p.Q0) {
			t.Errorf("%s: MaxX rk=%v closed=%v (Δ=%g)", tc.name, rk.MaxX, closed.MaxX, d)
		}
		if d := math.Abs(rk.MinX - closed.MinX); d > relTol(math.Abs(closed.MinX)+p.Q0) {
			t.Errorf("%s: MinX rk=%v closed=%v (Δ=%g)", tc.name, rk.MinX, closed.MinX, d)
		}
		if closed.Rho > 0 {
			if d := math.Abs(rk.Rho - closed.Rho); d > 1e-6*closed.Rho {
				t.Errorf("%s: rho rk=%v closed=%v", tc.name, rk.Rho, closed.Rho)
			}
		}
	}
}
