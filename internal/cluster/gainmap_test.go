package cluster

import (
	"context"
	"strings"
	"testing"

	"bcnphase/internal/core"
)

// TestEvalBatchMatchesEval requires span evaluation to be byte-identical
// to per-point evaluation under every invariant policy — EvalBatch is
// the shard executors' and bcnsweep's hot path, and the merged map must
// not depend on which path computed a row.
func TestEvalBatchMatchesEval(t *testing.T) {
	for _, policy := range []string{"", "record"} {
		g := testGrid(3)
		g.Invariants = policy
		pts := g.Points()
		ctx := context.Background()
		rows := make([]Row, len(pts))
		if err := g.EvalBatch(ctx, pts, rows, EvalMetrics{}); err != nil {
			t.Fatalf("policy %q: batch: %v", policy, err)
		}
		for i, pt := range pts {
			want, err := g.Eval(ctx, pt, EvalMetrics{})
			if err != nil {
				t.Fatalf("policy %q: eval: %v", policy, err)
			}
			if rows[i] != want {
				t.Errorf("policy %q point %d: batch row %+v, eval row %+v", policy, i, rows[i], want)
			}
		}
	}
}

// TestEvalBatchRejectsLengthMismatch guards the BatchFunc contract.
func TestEvalBatchRejectsLengthMismatch(t *testing.T) {
	g := testGrid(2)
	if err := g.EvalBatch(context.Background(), g.Points(), make([]Row, 1), EvalMetrics{}); err == nil {
		t.Fatal("mismatched out length accepted")
	}
}

// TestEvalRecordMatchesOffWhenClean: every row comes from the one
// kernel, and the record policy only adds the sampled invariant guard,
// so a record-policy row with no violations is byte-identical to the
// off-policy row of the same point; a dirty row differs only in its
// violation columns.
func TestEvalRecordMatchesOffWhenClean(t *testing.T) {
	off := testGrid(6)
	checked := off
	checked.Invariants = "record"
	sm := core.NewSolveMetrics(nil)
	ctx := context.Background()
	clean := 0
	for _, pt := range off.Points() {
		a, err := off.Eval(ctx, pt, EvalMetrics{Solve: sm})
		if err != nil {
			t.Fatal(err)
		}
		b, err := checked.Eval(ctx, pt, EvalMetrics{Solve: sm})
		if err != nil {
			t.Fatal(err)
		}
		if b.Violations == 0 {
			clean++
			if a != b {
				t.Errorf("point %+v: clean record row %+v, off row %+v", pt, b, a)
			}
			continue
		}
		av, bv := strings.Split(a.CSV, ","), strings.Split(b.CSV, ",")
		if strings.Join(av[:10], ",") != strings.Join(bv[:10], ",") || b.FirstPred == "" {
			t.Errorf("point %+v: dirty record row %+v, off row %+v", pt, b, a)
		}
	}
	if clean == 0 {
		t.Fatal("no clean record-policy row to compare")
	}
}
