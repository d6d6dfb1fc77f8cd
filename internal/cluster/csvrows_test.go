package cluster

import (
	"context"
	"fmt"
	"math"
	"testing"

	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
	"bcnphase/internal/linear"
)

// paperGrid is bcnsweep's default 32×32 gain plane at buffer multiple
// b (the paper-scale map).
func paperGrid(b float64, policy string) GainGrid {
	return GainGrid{BOverQ0: b, GiLo: 0.05, GiHi: 12.8, GdLo: 1.0 / 1024, GdHi: 0.5, Steps: 32, Invariants: policy}
}

// TestRowEncodingMatchesSprintf: the append encoder writes the bytes the
// fmt format strings it replaced wrote. The oracle keeps those format
// strings — the map row and serve's sweep-job row — and the check runs
// over the paper-scale grids under the off and record policies, and over
// edge floats pushed through every field encoder.
func TestRowEncodingMatchesSprintf(t *testing.T) {
	ctx := context.Background()
	rows := 0
	for _, b := range []float64{2, 3, 5, 8} {
		for _, policy := range []string{"off", "record"} {
			g := paperGrid(b, policy)
			pts := g.Points()
			got := make([]Row, len(pts))
			if err := g.EvalBatch(ctx, pts, got, EvalMetrics{}); err != nil {
				t.Fatalf("b=%v %s: %v", b, policy, err)
			}
			// serve's sweep-job row shape through the same encoder.
			var (
				enc       CSVRows
				sweepRows []string
			)
			for i, pt := range pts {
				p := g.Base()
				p.Gi, p.Gd = pt.Gi, pt.Gd
				s, err := core.Classify(p, core.SolveOptions{Invariants: invariant.NewPolicy(g.Policy())})
				if err != nil {
					t.Fatalf("b=%v %s point %d: %v", b, policy, i, err)
				}
				linStable := linear.SubsystemStable(p, core.Increase) && linear.SubsystemStable(p, core.Decrease)
				first := s.Violations.FirstPredicate()
				want := fmt.Sprintf("%g,%g,%d,%v,%v,%g,%s,%v,%g,%g,%d,%s",
					pt.Gi, pt.Gd, int(p.Case()), linStable, core.Theorem1Satisfied(p),
					core.Theorem1Bound(p), s.Outcome, s.Outcome.StronglyStable(),
					s.MaxQueue(p), s.Rho, s.Violations.Total, first)
				if got[i].CSV != want || got[i].Violations != s.Violations.Total || got[i].FirstPred != first {
					t.Fatalf("b=%v %s point %d: row %+v, want CSV %q", b, policy, i, got[i], want)
				}
				enc.Lead(pt.Gi)
				enc.Float(pt.Gd)
				enc.Str(s.Outcome.String())
				enc.Bool(s.Outcome.StronglyStable())
				enc.Float(s.MaxQueue(p))
				enc.Float(s.Rho)
				enc.Uint(s.Violations.Total)
				enc.EndRow()
				sweepRows = append(sweepRows, fmt.Sprintf("%g,%g,%s,%v,%g,%g,%d",
					pt.Gi, pt.Gd, s.Outcome, s.Outcome.StronglyStable(), s.MaxQueue(p), s.Rho, s.Violations.Total))
				rows++
			}
			enc.Seal()
			for i, want := range sweepRows {
				if row := enc.Next(); row != want {
					t.Fatalf("b=%v %s point %d: sweep row %q, want %q", b, policy, i, row, want)
				}
			}
		}
	}

	edges := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		5e-324, -5e-324, 1e21, 1e-5, 1e20, 1e-4, 123456789, 0.1, -2.5e6, math.MaxFloat64}
	var enc CSVRows
	var want []string
	// Each edge value as a Lead after each other one (so a cached Lead
	// text is reused only for equal bits: -0 after 0 is formatted
	// again), then as every other float field.
	for _, prev := range edges {
		for _, v := range edges {
			enc.Lead(prev)
			enc.EndRow()
			enc.Lead(v)
			enc.Float(v)
			enc.Int(int(math.Float64bits(v) >> 40))
			enc.Uint(math.Float64bits(v))
			enc.Bool(v > 0)
			enc.Str("queue-bounds")
			enc.EndRow()
			want = append(want, fmt.Sprintf("%g", prev),
				fmt.Sprintf("%g,%g,%d,%d,%v,%s", v, v, int(math.Float64bits(v)>>40), math.Float64bits(v), v > 0, "queue-bounds"))
		}
	}
	enc.EndRow() // an empty row stays empty
	want = append(want, "")
	enc.Seal()
	for i, w := range want {
		if got := enc.Next(); got != w {
			t.Errorf("edge row %d: %q, want %q", i, got, w)
		}
	}
	t.Logf("%d grid rows and %d edge rows match", rows, len(want))
}

// TestEvalBatchAllocs: under the off policy a span's allocations are a
// constant — its buffer and its one string — not one fmt.Sprintf per
// point.
func TestEvalBatchAllocs(t *testing.T) {
	g := paperGrid(5, "off")
	pts := g.Points()[:64]
	out := make([]Row, len(pts))
	ctx := context.Background()
	avg := testing.AllocsPerRun(20, func() {
		if err := g.EvalBatch(ctx, pts, out, EvalMetrics{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 4 {
		t.Fatalf("EvalBatch over %d points allocates %.1f times, want <= 4", len(pts), avg)
	}
}
