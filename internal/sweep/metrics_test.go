package sweep

import (
	"context"
	"errors"
	"sync"
	"testing"

	"bcnphase/internal/telemetry"
)

func TestRunMetricsCounts(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	points := make([]int, 10)
	for i := range points {
		points[i] = i
	}
	results, err := Run(context.Background(), points, func(_ context.Context, p int) (int, error) {
		return p * p, nil
	}, Options{Workers: 2, ContinueOnError: true, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("point %v failed: %v", r.Point, r.Err)
		}
	}
	if got := m.Points.Value(); got != 10 {
		t.Fatalf("points = %d, want 10", got)
	}
	if got := m.Failures.Value(); got != 0 {
		t.Fatalf("failures = %d, want 0", got)
	}
	if got := m.PointSeconds.Count(); got != 10 {
		t.Fatalf("point histogram count = %d, want 10", got)
	}
}

func TestRunMetricsFailures(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	boom := errors.New("always")
	_, err := Run(context.Background(), []int{1, 2}, func(_ context.Context, _ int) (int, error) {
		return 0, boom
	}, Options{Workers: 1, ContinueOnError: true, Metrics: m})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if m.Failures.Value() != 2 {
		t.Fatalf("failures = %d, want 2", m.Failures.Value())
	}
}

func TestRunCheckpointedMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	ck := &mapCheckpoint{m: map[string][]byte{}}
	key := func(p int) string { return string(rune('a' + p)) }
	fn := func(_ context.Context, p int) (int, error) { return p * 2, nil }
	opts := Options{Workers: 1, Metrics: m}

	if _, err := RunCheckpointed(context.Background(), []int{0, 1, 2}, fn, opts, ck, key); err != nil {
		t.Fatal(err)
	}
	if m.Points.Value() != 3 || m.Replayed.Value() != 0 {
		t.Fatalf("first pass: points=%d replayed=%d", m.Points.Value(), m.Replayed.Value())
	}
	if m.CheckpointSeconds.Count() != 3 {
		t.Fatalf("checkpoint latency samples = %d, want 3", m.CheckpointSeconds.Count())
	}
	// Second pass replays everything from the journal.
	if _, err := RunCheckpointed(context.Background(), []int{0, 1, 2}, fn, opts, ck, key); err != nil {
		t.Fatal(err)
	}
	if m.Points.Value() != 3 || m.Replayed.Value() != 3 {
		t.Fatalf("second pass: points=%d replayed=%d", m.Points.Value(), m.Replayed.Value())
	}
}

func TestSweepNewMetricsNil(t *testing.T) {
	if m := NewMetrics(nil); m != nil {
		t.Fatalf("NewMetrics(nil) = %v, want nil", m)
	}
}

// mapCheckpoint is an in-memory Checkpoint for tests.
type mapCheckpoint struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (c *mapCheckpoint) Lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *mapCheckpoint) Record(key string, val []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = append([]byte(nil), val...)
	return nil
}
