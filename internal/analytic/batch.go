package analytic

import "bcnphase/internal/core"

// Batch is the structure-of-arrays result of a batched solve: column i
// of every slice is the verdict for params[i]. A Batch owns its backing
// slices and reuses them across Solve calls, so a warm Batch driven by
// one goroutine solves at zero steady-state allocations (asserted by
// TestBatchSolveAllocs).
type Batch struct {
	// Outcome, Path, Arcs, Crossings are the per-point classification.
	Outcome   []core.Outcome
	Path      []Path
	Arcs      []int
	Crossings []int
	// MaxX, MinX, Rho, EndT, EndX, EndY are the per-point measurements.
	MaxX, MinX []float64
	Rho        []float64
	EndT       []float64
	EndX, EndY []float64
	// Err holds per-point failures (invalid params); nil entries solved.
	Err []error

	// Metrics optionally receives one aggregate flush per Solve call.
	Metrics *Metrics
}

// NewBatch returns a Batch with capacity for n points.
func NewBatch(n int) *Batch {
	b := &Batch{}
	b.Resize(n)
	return b
}

// Resize sets the batch length to n, growing the backing arrays only
// when n exceeds their capacity.
func (b *Batch) Resize(n int) {
	b.Outcome = grow(b.Outcome, n)
	b.Path = grow(b.Path, n)
	b.Arcs = grow(b.Arcs, n)
	b.Crossings = grow(b.Crossings, n)
	b.MaxX = grow(b.MaxX, n)
	b.MinX = grow(b.MinX, n)
	b.Rho = grow(b.Rho, n)
	b.EndT = grow(b.EndT, n)
	b.EndX = grow(b.EndX, n)
	b.EndY = grow(b.EndY, n)
	b.Err = grow(b.Err, n)
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// Len returns the batch length.
func (b *Batch) Len() int { return len(b.Outcome) }

// Solve classifies every point of params into the batch columns,
// resizing to len(params). The options apply uniformly; metrics are
// aggregated locally and flushed to b.Metrics once per call. Point
// failures land in Err[i] — Solve itself never fails.
func (b *Batch) Solve(params []core.Params, opts Options) {
	b.Resize(len(params))
	var agg tally
	for i := range params {
		s, err := core.Classify(params[i], opts)
		if err != nil {
			b.Err[i] = err
			continue
		}
		b.Outcome[i] = s.Outcome
		b.Path[i] = PathAnalytic
		b.Arcs[i] = s.Arcs
		b.Crossings[i] = s.Crossings
		b.MaxX[i] = s.MaxX
		b.MinX[i] = s.MinX
		b.Rho[i] = s.Rho
		b.EndT[i] = s.EndT
		b.EndX[i] = s.EndX
		b.EndY[i] = s.EndY
		agg.fold(&s)
	}
	b.Metrics.flush(&agg)
}
