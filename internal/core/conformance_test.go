package core

import (
	"math"
	"testing"
)

// paperScaleGrid reproduces the gain-plane family cmd/bcnsweep sweeps
// (cluster.GainGrid.Base with its default axes): the figure example with
// B = bOverQ0·q0 on a steps×steps geometric (Gi, Gd) grid.
func paperScaleGrid(bOverQ0 float64, steps int) []Params {
	geom := func(lo, hi float64, i int) float64 {
		return lo * math.Pow(hi/lo, float64(i)/float64(steps-1))
	}
	base := FigureExample()
	base.B = bOverQ0 * base.Q0
	ps := make([]Params, 0, steps*steps)
	for i := 0; i < steps; i++ {
		for j := 0; j < steps; j++ {
			p := base
			p.Gi, p.Gd = geom(0.05, 12.8, i), geom(1.0/1024, 0.5, j)
			ps = append(ps, p)
		}
	}
	return ps
}

// TestKernelConformsToCriteria checks the kernel's exact knots against
// the paper's closed-form predicates (core/criteria.go), independently
// of any integrator, over the paper-scale family B/q0 ∈ {2, 3, 5, 8} on
// a 32×32 gain grid:
//
//   - Proposition 1: both linear subsystems are Hurwitz for valid
//     parameters.
//   - Wherever the first round completes inside the strip (Proposition 2:
//     max¹ < B − q0 and min¹ > −q0), the kernel's first peak and trough
//     equal FirstRoundExtrema to 1e-12 relative.
//   - Theorem 1: a satisfied bound implies no overflow or underflow.
func TestKernelConformsToCriteria(t *testing.T) {
	var compared, theorem1 int
	var worst float64
	for _, bOverQ0 := range []float64{2, 3, 5, 8} {
		for _, p := range paperScaleGrid(bOverQ0, 32) {
			if err := p.Validate(); err != nil {
				t.Fatalf("B/q0=%v gi=%g gd=%g: %v", bOverQ0, p.Gi, p.Gd, err)
			}
			s, err := Classify(p, SolveOptions{})
			if err != nil {
				t.Fatalf("B/q0=%v gi=%g gd=%g: %v", bOverQ0, p.Gi, p.Gd, err)
			}
			if inc, dec := Proposition1(p); !inc || !dec {
				t.Errorf("B/q0=%v gi=%g gd=%g: Proposition 1 fails (%v, %v)", bOverQ0, p.Gi, p.Gd, inc, dec)
			}
			if Theorem1Satisfied(p) {
				theorem1++
				if s.Outcome == OutcomeOverflow || s.Outcome == OutcomeUnderflow {
					t.Errorf("B/q0=%v gi=%g gd=%g: Theorem 1 holds but outcome is %v", bOverQ0, p.Gi, p.Gd, s.Outcome)
				}
			}
			max1, min1, err := FirstRoundExtrema(p)
			if err != nil || !(max1 < p.B-p.Q0 && min1 > -p.Q0) {
				continue // no complete first round inside the strip
			}
			compared++
			for _, c := range []struct {
				name      string
				got, want float64
			}{{"peak", s.FirstMaxX, max1}, {"trough", s.FirstMinX, min1}} {
				drift := math.Abs(c.got-c.want) / math.Abs(c.want)
				if !(drift <= 1e-12) {
					t.Errorf("B/q0=%v gi=%g gd=%g: first %s %v, FirstRoundExtrema %v (drift %g)",
						bOverQ0, p.Gi, p.Gd, c.name, c.got, c.want, drift)
				}
				worst = math.Max(worst, drift)
			}
		}
	}
	if compared == 0 || theorem1 == 0 {
		t.Fatalf("vacuous run: %d first rounds compared, %d Theorem 1 points", compared, theorem1)
	}
	t.Logf("%d first rounds compared (largest relative drift %g); %d Theorem 1 points stayed in the strip",
		compared, worst, theorem1)
}
