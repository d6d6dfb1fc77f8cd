package main

import (
	"context"
	"fmt"
	"time"

	"bcnphase/internal/analytic"
	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/sweep"
	"bcnphase/internal/telemetry"
)

const (
	// gridSteps is the per-axis resolution of sweep-local and
	// sweep-cluster grids (1024 points).
	gridSteps = 32
	// localBatchSize is the span length cmd/bcnsweep's journal-free
	// sweep hands one worker slot.
	localBatchSize = 64
	// localPoolGrids is how many distinct verified grids sweep-local
	// cycles through. The journal-free path has no cache, so repeating a
	// grid costs the same as a new one, and the pool bounds the
	// reference work (classicSolve on every point) done before timing.
	localPoolGrids = 16
	// localSessionGrids is how many grids one set-up serves.
	localSessionGrids = 64
)

// localSweeper is the state of one cmd/bcnsweep run without a journal:
// its metrics registry and sweep options.
type localSweeper struct {
	opts sweep.Options
	em   cluster.EvalMetrics
}

func newLocalSweeper(workers int) localSweeper {
	reg := telemetry.NewRegistry()
	return localSweeper{
		opts: sweep.Options{Workers: workers, PointTimeout: time.Minute, ContinueOnError: true, Metrics: sweep.NewMetrics(reg)},
		em:   cluster.EvalMetrics{Solve: core.NewSolveMetrics(reg), Analytic: analytic.NewMetrics(reg)},
	}
}

// render evaluates g through bcnsweep's journal-free path
// (sweep.RunBatched → GainGrid.EvalBatch → RenderCSV) and returns its
// map.csv. Spans go under parent when tr is non-nil.
func (ls localSweeper) render(ctx context.Context, g cluster.GainGrid, tr *tracer, op, parent uint64) ([]byte, error) {
	runID, start := tr.id(), tr.now()
	results, err := sweep.RunBatched(ctx, g.Points(), localBatchSize,
		func(ctx context.Context, pts []cluster.GainPoint, rows []cluster.Row) error {
			id, s := tr.id(), tr.now()
			err := g.EvalBatch(ctx, pts, rows, ls.em)
			tr.record(id, runID, op, "cluster.EvalBatch", s)
			return err
		}, ls.opts)
	tr.record(runID, parent, op, "sweep.RunBatched", start)
	if err != nil {
		return nil, err
	}
	rows := make([]cluster.Row, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("point %d: %w", i, r.Err)
		}
		rows[i] = r.Value
	}
	id, s := tr.id(), tr.now()
	csv := cluster.RenderCSV(rows)
	tr.record(id, parent, op, "cluster.RenderCSV", s)
	return csv, nil
}

// sweepLocal is the sweep-local workload: verified 32×32 grids, one
// after another, through the journal-free bcnsweep path with workers =
// GOMAXPROCS. The kernel does almost all the work; serve and cluster do
// none.
type sweepLocal struct {
	pool []gridRef
}

func newSweepLocal(seed int64) (*sweepLocal, error) {
	pool, err := expectGrids(newGrids(seed, "sweep-local/grids", localPoolGrids, gridSteps))
	if err != nil {
		return nil, err
	}
	return &sweepLocal{pool: pool}, nil
}

func (w *sweepLocal) run(ctx context.Context, budget time.Duration, tr *tracer) *outcome {
	o := newOutcome()
	var props gridProps
	next := 0
	for o.window < budget {
		// Set-up: a fresh registry and instruments, as one bcnsweep
		// process builds them, and a warm-up grid.
		t0 := time.Now()
		ls := newLocalSweeper(0)
		warm := w.pool[next%len(w.pool)]
		next++
		csv, err := ls.render(ctx, warm.grid, nil, 0, 0)
		setup := time.Since(t0)
		if err == nil {
			err = checkMap(csv, warm.csv)
		}
		if err != nil {
			o.attempted++
			o.fail("warm-up grid: %v", err)
		}
		m := o.begin(setup)
		for g := 0; g < localSessionGrids && o.window < budget; g++ {
			ref := w.pool[next%len(w.pool)]
			next++
			op, root, s := tr.id(), tr.id(), tr.now()
			steal := stealTicks()
			t := time.Now()
			csv, err := ls.render(ctx, ref.grid, tr, op, root)
			lat := time.Since(t)
			o.observe(lat, stealTicks() > steal)
			tr.record(root, 0, op, "bcnsweep.grid", s)
			o.window += lat
			o.attempted++
			if err == nil {
				err = checkMap(csv, ref.csv)
			}
			if err != nil {
				o.fail("grid %d: %v", o.attempted, err)
				continue
			}
			o.points += ref.props.Points
			o.jobs++
			props.add(ref.props)
		}
		o.end(m, stealTicks())
	}
	o.props["points"] = props.shares()
	return o
}

// shares reports the property counts as shares of the points.
func (g gridProps) shares() map[string]any {
	n := float64(max(g.Points, 1))
	cases, outcomes := map[string]float64{}, map[string]float64{}
	for k, v := range g.Cases {
		cases[k] = float64(v) / n
	}
	for k, v := range g.Outcomes {
		outcomes[k] = float64(v) / n
	}
	return map[string]any{
		"count":               g.Points,
		"case_share":          cases,
		"outcome_share":       outcomes,
		"arcs_per_point":      float64(g.Arcs) / n,
		"crossings_per_point": float64(g.Crossings) / n,
		"rk45_share":          float64(g.RK45) / n,
	}
}
