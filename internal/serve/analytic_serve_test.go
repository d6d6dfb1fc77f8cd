package serve

import (
	"context"
	"strings"
	"testing"

	"bcnphase/internal/cluster"
	"bcnphase/internal/invariant"
)

// TestSpecKeyIgnoresAnalytic: every job runs the one closed-form
// kernel, so the legacy engine field names the same artifact whatever
// its value.
func TestSpecKeyIgnoresAnalytic(t *testing.T) {
	want, err := solveSpec().Key()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"on", "auto", "off"} {
		sp := solveSpec()
		sp.Analytic = mode
		if got, err := sp.Key(); err != nil || got != want {
			t.Errorf("analytic %q: key %s, %v; want %s", mode, got, err, want)
		}
	}
}

// TestSpecRejectsBadAnalytic: the legacy engine field is still
// validated (a bad value is a 400), and shard jobs accept it like every
// other kind.
func TestSpecRejectsBadAnalytic(t *testing.T) {
	sp := solveSpec()
	sp.Analytic = "fast"
	if err := sp.Validate(); err == nil {
		t.Error(`analytic "fast" accepted`)
	}
	body := `{"kind":"solve","analytic":"fast","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6}}}`
	if _, err := DecodeSpec(strings.NewReader(body), 0); err == nil {
		t.Error("decode accepted a bogus analytic mode")
	}
	shard := `{"kind":"shard","analytic":"on","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3},"runs":[[0,1]]}}`
	if _, err := DecodeSpec(strings.NewReader(shard), 0); err != nil {
		t.Errorf("decode rejected a legacy analytic mode on a shard job: %v", err)
	}
}

// TestRunSolveRecordMatchesOff: the record policy only adds the sampled
// invariant guard to the same kernel, so a clean record-policy solve
// reports exactly the off-policy result.
func TestRunSolveRecordMatchesOff(t *testing.T) {
	s := solveSpec().Solve
	jm := newJobMetrics(nil)
	off, err := runSolve(s, invariant.Off, jm)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := runSolve(s, invariant.Record, jm)
	if err != nil {
		t.Fatal(err)
	}
	if checked.Violations != 0 {
		t.Fatalf("paper example recorded %d violations (%s)", checked.Violations, checked.FirstViolation)
	}
	if *off != *checked {
		t.Errorf("record policy %+v, off policy %+v", checked, off)
	}
}

// TestRunSweepRecordMatchesOff: sweep rows follow the same rule, row by
// row, under the batched span scheduler both policies share.
func TestRunSweepRecordMatchesOff(t *testing.T) {
	s := sweepSpec().Sweep
	jm := newJobMetrics(nil)
	ctx := context.Background()
	off, err := runSweep(ctx, s, invariant.Off, jm)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := runSweep(ctx, s, invariant.Record, jm)
	if err != nil {
		t.Fatal(err)
	}
	if off.Points != checked.Points || off.Failed != 0 || checked.Failed != 0 || len(off.Rows) != len(checked.Rows) {
		t.Fatalf("sweep shapes differ: off %d/%d failed, record %d/%d failed",
			off.Points, off.Failed, checked.Points, checked.Failed)
	}
	for i := range off.Rows {
		if strings.HasSuffix(checked.Rows[i], ",0") && off.Rows[i] != checked.Rows[i] {
			t.Errorf("clean row %d: record %q, off %q", i, checked.Rows[i], off.Rows[i])
		}
	}
}

// TestRunShardUsesGridEngine: shard execution runs the grid's canonical
// row evaluator and produces rows identical to direct grid evaluation.
func TestRunShardUsesGridEngine(t *testing.T) {
	grid := cluster.GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 1, GdLo: 0.001, GdHi: 0.1, Steps: 3}
	pts := grid.Points()[:4]
	res, err := runShard(context.Background(), &cluster.ShardSpec{Grid: grid, Runs: [][2]int{{0, 4}}}, newJobMetrics(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(pts) {
		t.Fatalf("shard returned %d rows for %d points", len(res.Rows), len(pts))
	}
	for i, pt := range pts {
		want, err := grid.Eval(context.Background(), pt, cluster.EvalMetrics{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[i] != want {
			t.Errorf("point %+v: shard row %+v, direct row %+v", pt, res.Rows[i], want)
		}
	}
}
