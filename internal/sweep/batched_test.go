package sweep

import (
	"context"
	"errors"
	"testing"
	"time"

	"bcnphase/internal/telemetry"
)

func TestRunBatchedMatchesRun(t *testing.T) {
	points := make([]int, 103) // deliberately not a multiple of the batch size
	for i := range points {
		points[i] = i
	}
	fn := func(_ context.Context, pts []int, out []int) error {
		for i, p := range pts {
			out[i] = p * p
		}
		return nil
	}
	for _, batchSize := range []int{1, 7, 32, 103, 1000} {
		results, err := RunBatched(context.Background(), points, batchSize, fn, Options{Workers: 4})
		if err != nil {
			t.Fatalf("batchSize=%d: %v", batchSize, err)
		}
		if len(results) != len(points) {
			t.Fatalf("batchSize=%d: %d results, want %d", batchSize, len(results), len(points))
		}
		for i, r := range results {
			if r.Err != nil || r.Point != i || r.Value != i*i || r.Attempts != 1 {
				t.Fatalf("batchSize=%d point %d: %+v", batchSize, i, r)
			}
		}
	}
}

func TestRunBatchedSpanFailureIsLocal(t *testing.T) {
	points := []int{0, 1, 2, 3, 4, 5}
	boom := errors.New("span exploded")
	fn := func(_ context.Context, pts []int, out []int) error {
		if pts[0] == 2 { // the second span of size 2
			return boom
		}
		for i, p := range pts {
			out[i] = p + 100
		}
		return nil
	}
	results, err := RunBatched(context.Background(), points, 2, fn, Options{Workers: 1, ContinueOnError: true})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	for i, r := range results {
		inFailedSpan := i == 2 || i == 3
		if inFailedSpan != (r.Err != nil) {
			t.Fatalf("point %d: err=%v, inFailedSpan=%v", i, r.Err, inFailedSpan)
		}
		if !inFailedSpan && r.Value != i+100 {
			t.Fatalf("point %d: value %d", i, r.Value)
		}
	}
}

func TestRunBatchedPanicRecovered(t *testing.T) {
	fn := func(_ context.Context, pts []int, _ []int) error {
		if pts[0] == 3 {
			panic("bad span")
		}
		return nil
	}
	results, err := RunBatched(context.Background(), []int{0, 1, 2, 3, 4, 5}, 3, fn,
		Options{Workers: 2, ContinueOnError: true})
	if err == nil {
		t.Fatal("want panic error")
	}
	var pe *PanicError
	if !errors.As(results[3].Err, &pe) {
		t.Fatalf("point 3 err = %v, want PanicError", results[3].Err)
	}
	if results[0].Err != nil {
		t.Fatalf("clean span polluted: %v", results[0].Err)
	}
}

func TestRunBatchedAbandonedAttemptCannotCorrupt(t *testing.T) {
	// The evaluation ignores its deadline and keeps writing into its own
	// out slice long after abandonment. The visible results must carry
	// the deadline error and none of the late writes.
	release, wrote := make(chan struct{}), make(chan struct{})
	fn := func(ctx context.Context, pts []int, out []int) error {
		defer close(wrote)
		<-release // ignore ctx: simulate a stuck evaluator
		for i := range out {
			out[i] = -999 // late garbage into a private slice
		}
		return nil
	}
	results, err := RunBatched(context.Background(), []int{1, 2, 3}, 3, fn,
		Options{Workers: 1, PointTimeout: 20 * time.Millisecond})
	close(release)
	<-wrote
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	for i, r := range results {
		if r.Value != 0 || !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("point %d corrupted by abandoned evaluation: %+v", i, r)
		}
	}
}

func TestRunBatchedMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	fn := func(_ context.Context, pts []int, out []int) error {
		for i := range pts {
			out[i] = 1
		}
		return nil
	}
	if _, err := RunBatched(context.Background(), make([]int, 25), 10, fn,
		Options{Workers: 2, Metrics: m}); err != nil {
		t.Fatal(err)
	}
	if got := m.Points.Value(); got != 25 {
		t.Fatalf("points metric %d, want 25", got)
	}
	if got := m.Failures.Value(); got != 0 {
		t.Fatalf("failures metric %d, want 0", got)
	}
}

func TestRunBatchedRejectsBadInput(t *testing.T) {
	fn := func(_ context.Context, _ []int, _ []int) error { return nil }
	if _, err := RunBatched(context.Background(), []int{1}, 0, fn, Options{}); err == nil {
		t.Fatal("batchSize 0 accepted")
	}
	if _, err := RunBatched[int, int](context.Background(), []int{1}, 1, nil, Options{}); err == nil {
		t.Fatal("nil fn accepted")
	}
	results, err := RunBatched(context.Background(), nil, 4, fn, Options{})
	if err != nil || len(results) != 0 {
		t.Fatalf("empty points: %v, %d results", err, len(results))
	}
}
