// Package sweep runs parameter studies concurrently with bounded
// parallelism: a grid of points is mapped through an evaluation function
// on a worker pool, preserving input order in the results. The stability
// maps and transient sweeps in internal/experiments and cmd/bcnsweep are
// the primary clients — each grid point solves an independent trajectory,
// so the sweeps parallelize embarrassingly.
package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Func evaluates one point of a sweep.
type Func[P, R any] func(ctx context.Context, point P) (R, error)

// Options configures Run.
type Options struct {
	// Workers bounds the concurrency; 0 defaults to GOMAXPROCS.
	Workers int
	// PointTimeout is a hard per-point deadline; 0 means none. The
	// evaluation's context carries the deadline, and an evaluation that
	// ignores it is abandoned (it finishes on a background goroutine and
	// its late result is discarded) so one stuck point cannot hang the
	// sweep.
	PointTimeout time.Duration
	// ContinueOnError keeps evaluating the remaining points after a
	// failure instead of cancelling them; failed points carry their
	// error in Result.Err. Run still returns the first error so callers
	// can tell a degraded sweep from a clean one.
	ContinueOnError bool
	// Metrics optionally records point throughput, failures and
	// checkpoint latency. Nil costs one comparison per point.
	Metrics *Metrics
}

// Result pairs one input point with its output (or error).
type Result[P, R any] struct {
	Point P
	Value R
	Err   error
	// Attempts counts evaluations of this point: 1, or 0 for a point
	// never evaluated (sweep cancelled first, or replayed from a
	// checkpoint).
	Attempts int
	// Cached marks a point replayed from a Checkpoint by RunCheckpointed
	// instead of being evaluated.
	Cached bool
}

// PanicError is the Result.Err of a point whose evaluation panicked: the
// panic is recovered so the sweep survives, and the value plus stack are
// preserved for diagnosis.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error describes the recovered panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: evaluation panicked: %v", e.Value)
}

// Run evaluates fn on every point with at most opts.Workers goroutines,
// returning results in input order. Evaluations are panic-recovered
// (PanicError) and deadline-bounded (Options.PointTimeout), so a single
// bad point cannot crash or hang the sweep. By default the first error cancels the context handed to the
// remaining evaluations; with Options.ContinueOnError every point is
// still evaluated and failures stay local to their Result. Every point
// produces a Result (possibly with Err set, including ctx.Err for
// cancelled ones), and Run itself returns the first error observed, if
// any.
func Run[P, R any](ctx context.Context, points []P, fn Func[P, R], opts Options) ([]Result[P, R], error) {
	if fn == nil {
		return nil, fmt.Errorf("sweep: nil evaluation function")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	results := make([]Result[P, R], len(points))
	if len(points) == 0 {
		return results, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
			if !opts.ContinueOnError {
				cancel()
			}
		}
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				p := points[i]
				if err := ctx.Err(); err != nil {
					results[i] = Result[P, R]{Point: p, Err: err}
					continue
				}
				if opts.Metrics != nil {
					began := time.Now()
					results[i] = evalPoint(ctx, p, fn, opts.PointTimeout)
					opts.Metrics.observePoint(results[i].Err != nil, time.Since(began))
				} else {
					results[i] = evalPoint(ctx, p, fn, opts.PointTimeout)
				}
				if results[i].Err != nil {
					setErr(results[i].Err)
				}
			}
		}()
	}
	for i := range points {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, firstErr
}

// evalPoint evaluates one point once under the sweep's supervision.
func evalPoint[P, R any](ctx context.Context, p P, fn Func[P, R], timeout time.Duration) Result[P, R] {
	v, err := evalOnce(ctx, p, fn, timeout)
	return Result[P, R]{Point: p, Value: v, Err: err, Attempts: 1}
}

// evalOnce runs fn once with panic recovery and the optional hard
// deadline. The evaluation runs on its own goroutine sending into a
// buffered channel, so when the deadline fires first the point fails
// with the deadline error while a non-cooperative fn drains harmlessly
// in the background.
func evalOnce[P, R any](ctx context.Context, p P, fn Func[P, R], timeout time.Duration) (R, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	type outcome struct {
		v   R
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				var zero R
				ch <- outcome{zero, &PanicError{Value: r, Stack: debug.Stack()}}
			}
		}()
		v, err := fn(ctx, p)
		ch <- outcome{v, err}
	}()
	select {
	case out := <-ch:
		return out.v, out.err
	case <-ctx.Done():
		var zero R
		return zero, ctx.Err()
	}
}

// InvariantReporter is implemented by evaluation values that carry
// runtime invariant tallies (e.g. a trajectory solved under the Record
// policy). The sweep package itself knows nothing about the model
// invariants; it only aggregates what the values report.
type InvariantReporter interface {
	// InvariantViolations returns the number of violations this point
	// observed and the first failed predicate ("" when clean).
	InvariantViolations() (total uint64, firstPredicate string)
}

// ViolationTally aggregates per-point invariant violations across a
// completed sweep.
type ViolationTally struct {
	// Points is the number of results whose value reports tallies.
	Points int
	// Dirty is the number of points with at least one violation.
	Dirty int
	// Total sums violations over all points.
	Total uint64
	// ByPredicate counts dirty points per first-failed predicate.
	ByPredicate map[string]int
}

// TallyViolations sums the invariant tallies of every successful result
// whose value implements InvariantReporter. Results with errors (or
// values that do not report) are skipped.
func TallyViolations[P, R any](results []Result[P, R]) ViolationTally {
	t := ViolationTally{ByPredicate: make(map[string]int)}
	for i := range results {
		if results[i].Err != nil {
			continue
		}
		rep, ok := any(results[i].Value).(InvariantReporter)
		if !ok {
			continue
		}
		total, first := rep.InvariantViolations()
		t.Points++
		t.Total += total
		if total > 0 {
			t.Dirty++
			if first != "" {
				t.ByPredicate[first]++
			}
		}
	}
	return t
}

// Grid2 builds the cartesian product of two axes as point pairs, row
// major (all ys for the first x, then the next x). An empty axis yields
// an empty (non-nil) grid — the product of nothing is nothing, not an
// error.
func Grid2[A, B any](xs []A, ys []B) []Pair[A, B] {
	out := make([]Pair[A, B], 0, len(xs)*len(ys))
	for _, x := range xs {
		for _, y := range ys {
			out = append(out, Pair[A, B]{X: x, Y: y})
		}
	}
	return out
}

// Pair is one 2-D grid point.
type Pair[A, B any] struct {
	X A
	Y B
}

// Logspace returns n geometrically spaced values from lo to hi
// inclusive. n < 2 (a "spacing" of fewer than two points is ambiguous)
// and non-positive bounds (no geometric path through zero) are errors;
// lo > hi is allowed and yields a descending sequence.
func Logspace(lo, hi float64, n int) ([]float64, error) {
	if n < 2 {
		return nil, fmt.Errorf("sweep: Logspace needs n >= 2, got %d", n)
	}
	if !(lo > 0) || !(hi > 0) {
		return nil, fmt.Errorf("sweep: Logspace needs positive bounds, got [%v, %v]", lo, hi)
	}
	out := make([]float64, n)
	ratio := hi / lo
	for i := range out {
		f := float64(i) / float64(n-1)
		out[i] = lo * math.Pow(ratio, f)
	}
	return out, nil
}

// Linspace returns n uniformly spaced values from lo to hi inclusive.
// n < 2 is an error; lo > hi is allowed and yields a descending
// sequence.
func Linspace(lo, hi float64, n int) ([]float64, error) {
	if n < 2 {
		return nil, fmt.Errorf("sweep: Linspace needs n >= 2, got %d", n)
	}
	out := make([]float64, n)
	for i := range out {
		f := float64(i) / float64(n-1)
		out[i] = lo + (hi-lo)*f
	}
	return out, nil
}
