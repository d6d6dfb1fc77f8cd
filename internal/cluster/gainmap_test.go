package cluster

import (
	"context"
	"math"
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

// TestShardPointsMatchGridBitForBit: a worker expanding a shard's index
// runs derives exactly the bits the coordinator's GainGrid.Points
// enumerates, for every index alone and for multi-run specs whose runs
// start mid-row, span rows and leave holes.
func TestShardPointsMatchGridBitForBit(t *testing.T) {
	for _, steps := range []int{2, 3, 17, 32, 64} {
		g := testGrid(steps)
		want := g.Points()
		n := len(want)
		check := func(runs [][2]int) {
			t.Helper()
			spec := ShardSpec{Grid: g, Runs: runs}
			if err := spec.Validate(); err != nil {
				t.Fatalf("steps %d runs %v: %v", steps, runs, err)
			}
			got := spec.Points()
			if len(got) != spec.Size() {
				t.Fatalf("steps %d runs %v: %d points for size %d", steps, runs, len(got), spec.Size())
			}
			k := 0
			for _, r := range runs {
				for idx := r[0]; idx < r[1]; idx++ {
					if math.Float64bits(got[k].Gi) != math.Float64bits(want[idx].Gi) ||
						math.Float64bits(got[k].Gd) != math.Float64bits(want[idx].Gd) {
						t.Fatalf("steps %d runs %v: index %d derived %+v, grid has %+v", steps, runs, idx, got[k], want[idx])
					}
					k++
				}
			}
		}
		for k := 0; k < n; k++ {
			check([][2]int{{k, k + 1}})
		}
		// Multi-run specs: runs shorter than, as long as and longer than a
		// row, one index apart, tiling the grid from offsets 0 and 1 (so
		// every index is in some run) and from a run's length.
		for _, length := range []int{1, 2, 3, steps - 1, steps, steps + 1, 2*steps + 1} {
			for _, off := range []int{0, 1, length} {
				var runs [][2]int
				size := 0
				for lo := off; lo < n; lo += length + 1 {
					runs = append(runs, [2]int{lo, min(lo+length, n)})
					if size += length; size > MaxShardPoints-length {
						check(runs)
						runs, size = nil, 0
					}
				}
				if runs != nil {
					check(runs)
				}
			}
		}
	}
}
