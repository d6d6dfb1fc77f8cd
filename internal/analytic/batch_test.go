package analytic

import (
	"errors"
	"math"
	"testing"

	"bcnphase/internal/core"
	"bcnphase/internal/telemetry"
)

// gridParams spans the gain plane used by the sweeps: a log-spaced
// Gi × Gd grid over the paper's example fabric, hitting all three arc
// kinds and every outcome class.
func gridParams(nGi, nGd int) []core.Params {
	base := core.PaperExample()
	var out []core.Params
	for i := 0; i < nGi; i++ {
		gi := 0.05 * math.Pow(400, float64(i)/float64(nGi-1)) // 0.05 … 20
		for j := 0; j < nGd; j++ {
			gd := 0.2 / 256 * math.Pow(512, float64(j)/float64(nGd-1)) // ~0.00078 … 0.4
			p := base
			p.Gi, p.Gd = gi, gd
			if p.Validate() != nil {
				continue
			}
			out = append(out, p)
		}
	}
	return out
}

func TestBatchMatchesSolve(t *testing.T) {
	params := gridParams(7, 7)
	b := NewBatch(len(params))
	b.Solve(params, Options{})
	if b.Len() != len(params) {
		t.Fatalf("batch len %d, want %d", b.Len(), len(params))
	}
	for i, p := range params {
		s, err := core.Classify(p, core.SolveOptions{})
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if b.Err[i] != nil {
			t.Fatalf("point %d: batch error %v", i, b.Err[i])
		}
		if b.Outcome[i] != s.Outcome || b.Path[i] != PathAnalytic ||
			b.Arcs[i] != s.Arcs || b.Crossings[i] != s.Crossings ||
			b.MaxX[i] != s.MaxX || b.MinX[i] != s.MinX ||
			b.Rho[i] != s.Rho || b.EndT[i] != s.EndT ||
			b.EndX[i] != s.EndX || b.EndY[i] != s.EndY {
			t.Errorf("point %d (gi=%g gd=%g): batch column diverges from core.Classify", i, p.Gi, p.Gd)
		}
	}
}

// TestSolveMatchesCoreAcrossGrid: the knots-only path (core.Classify,
// which Batch drives) and the sampled core.Solve share one kernel, so on
// every grid point they report the same Summary bit for bit, the lists
// Solve records have the lengths Classify counts, and the exact extremes
// dominate the 64-sample polyline.
func TestSolveMatchesCoreAcrossGrid(t *testing.T) {
	feq := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	for _, ignoreBuffer := range []bool{false, true} {
		id := map[bool]string{false: "buffered", true: "unbuffered"}[ignoreBuffer]
		params := gridParams(13, 13)
		if len(params) < 100 {
			t.Fatalf("grid produced only %d valid points", len(params))
		}
		b := NewBatch(len(params))
		b.Solve(params, Options{IgnoreBuffer: ignoreBuffer})
		for i, p := range params {
			tr, err := core.Solve(p, core.SolveOptions{IgnoreBuffer: ignoreBuffer})
			if err != nil {
				t.Fatalf("core.Solve(%+v): %v", p, err)
			}
			s, err := core.Classify(p, core.SolveOptions{IgnoreBuffer: ignoreBuffer})
			if err != nil {
				t.Fatalf("core.Classify(%+v): %v", p, err)
			}
			ts := tr.Summary
			if s.Outcome != ts.Outcome || s.Arcs != ts.Arcs || s.Crossings != ts.Crossings ||
				s.Extrema != ts.Extrema || !feq(s.MaxX, ts.MaxX) || !feq(s.MinX, ts.MinX) ||
				!feq(s.Rho, ts.Rho) || !feq(s.EndT, ts.EndT) || !feq(s.EndX, ts.EndX) || !feq(s.EndY, ts.EndY) ||
				!feq(s.FirstMaxT, ts.FirstMaxT) || !feq(s.FirstMaxX, ts.FirstMaxX) ||
				!feq(s.FirstMinT, ts.FirstMinT) || !feq(s.FirstMinX, ts.FirstMinX) {
				t.Errorf("%s gi=%g gd=%g: Classify %+v, Solve %+v", id, p.Gi, p.Gd, s, ts)
				continue
			}
			if b.Outcome[i] != s.Outcome || b.MaxX[i] != s.MaxX {
				t.Errorf("%s gi=%g gd=%g: batch column diverges", id, p.Gi, p.Gd)
			}
			if len(tr.Crossings) != s.Crossings || len(tr.Segments) != s.Arcs || len(tr.Extrema) != s.Extrema {
				t.Errorf("%s gi=%g gd=%g: lists (%d, %d, %d), counts (%d, %d, %d)", id, p.Gi, p.Gd,
					len(tr.Crossings), len(tr.Segments), len(tr.Extrema), s.Crossings, s.Arcs, s.Extrema)
			}
			// Every polyline sample lies inside the exact excursion.
			for _, x := range tr.X {
				if x > s.MaxX+1e-9*p.Q0 || x < s.MinX-1e-9*p.Q0 {
					t.Errorf("%s gi=%g gd=%g: sample x=%v outside exact [%v, %v]", id, p.Gi, p.Gd, x, s.MinX, s.MaxX)
					break
				}
			}
			// The first recorded extremum, when traversed, is the
			// first-max or first-min knot.
			if len(tr.Extrema) > 0 {
				first := tr.Extrema[0]
				gotT, gotX := s.FirstMinT, s.FirstMinX
				if first.Max {
					gotT, gotX = s.FirstMaxT, s.FirstMaxX
				}
				if !math.IsNaN(gotT) && (gotT != first.T || gotX != first.X) {
					t.Errorf("%s gi=%g gd=%g: first extremum (%v,%v), list (%v,%v)",
						id, p.Gi, p.Gd, gotT, gotX, first.T, first.X)
				}
			}
		}
	}
}

func TestBatchReportsPointErrors(t *testing.T) {
	good := core.PaperExample()
	var bad core.Params // zero: fails validation
	b := NewBatch(3)
	b.Solve([]core.Params{good, bad, good}, Options{})
	if b.Err[0] != nil || b.Err[2] != nil {
		t.Fatalf("valid points errored: %v, %v", b.Err[0], b.Err[2])
	}
	if b.Err[1] == nil {
		t.Fatal("invalid point did not error")
	}
	if b.Outcome[1] != 0 || b.Path[1] != 0 {
		t.Fatalf("failed point left stale columns: outcome=%v path=%v", b.Outcome[1], b.Path[1])
	}
	if b.Outcome[0] == 0 || b.Outcome[2] == 0 {
		t.Fatal("valid points missing outcomes")
	}
}

// TestSolveRejectsInvalidParams: a batch point that fails validation
// carries core's validation error.
func TestSolveRejectsInvalidParams(t *testing.T) {
	b := NewBatch(1)
	b.Solve([]core.Params{{}}, Options{})
	if !errors.Is(b.Err[0], core.ErrInvalidParams) {
		t.Fatalf("zero params: error %v, want core.ErrInvalidParams", b.Err[0])
	}
}

func TestBatchResizeReuses(t *testing.T) {
	params := gridParams(5, 5)
	b := NewBatch(len(params))
	b.Solve(params, Options{})
	first := &b.MaxX[0]
	b.Solve(params[:10], Options{})
	if b.Len() != 10 {
		t.Fatalf("len %d, want 10", b.Len())
	}
	if &b.MaxX[0] != first {
		t.Fatal("shrinking batch reallocated its arrays")
	}
	b.Solve(params, Options{})
	if b.Len() != len(params) {
		t.Fatalf("len %d, want %d", b.Len(), len(params))
	}
}

func TestBatchMetricsAggregate(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	params := gridParams(5, 5)
	b := NewBatch(len(params))
	b.Metrics = m
	b.Solve(params, Options{})

	var wantArcs, wantCross uint64
	for i := range params {
		wantArcs += uint64(b.Arcs[i])
		wantCross += uint64(b.Crossings[i])
	}
	if got := m.Solves.Value(); got != uint64(len(params)) {
		t.Errorf("solves metric %d, want %d", got, len(params))
	}
	if got := m.Arcs.Value(); got != wantArcs {
		t.Errorf("arcs metric %d, want %d", got, wantArcs)
	}
	if got := m.Crossings.Value(); got != wantCross {
		t.Errorf("crossings metric %d, want %d", got, wantCross)
	}
	// Observe, the per-point entry, adds up to the same totals.
	m2 := NewMetrics(telemetry.NewRegistry())
	for _, p := range params {
		s, err := core.Classify(p, core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m2.Observe(&s)
	}
	if m2.Solves.Value() != m.Solves.Value() || m2.Arcs.Value() != m.Arcs.Value() ||
		m2.Crossings.Value() != m.Crossings.Value() || m2.Extrema.Value() != m.Extrema.Value() {
		t.Errorf("per-point Observe totals differ from the batch flush")
	}
}

// TestBatchSolveAllocs is the zero-alloc gate: a warm Batch re-solving
// the same points must not touch the heap.
func TestBatchSolveAllocs(t *testing.T) {
	params := gridParams(5, 5)
	b := NewBatch(len(params))
	b.Solve(params, Options{}) // warm the buffers
	avg := testing.AllocsPerRun(10, func() {
		b.Solve(params, Options{})
	})
	if avg != 0 {
		t.Fatalf("warm batch solve allocates %.1f times per call, want 0", avg)
	}
}

// TestStartOverride: the Start option reaches the kernel unchanged.
func TestStartOverride(t *testing.T) {
	p := core.PaperExample()
	start := [2]float64{-p.Q0 / 2, 1e8}
	tr, err := core.Solve(p, core.SolveOptions{Start: &start})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(1)
	b.Solve([]core.Params{p}, Options{Start: &start})
	if b.Err[0] != nil {
		t.Fatal(b.Err[0])
	}
	if b.Outcome[0] != tr.Outcome || b.EndT[0] != tr.EndT || b.EndX[0] != tr.EndX {
		t.Fatalf("start override: got (%v, %v, %v), core (%v, %v, %v)",
			b.Outcome[0], b.EndT[0], b.EndX[0], tr.Outcome, tr.EndT, tr.EndX)
	}
	canonical := NewBatch(1)
	canonical.Solve([]core.Params{p}, Options{})
	if canonical.EndT[0] == b.EndT[0] {
		t.Error("start override had no effect")
	}
}

func BenchmarkSolveBatch(b *testing.B) {
	params := gridParams(16, 16)
	batch := NewBatch(len(params))
	batch.Solve(params, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Solve(params, Options{})
	}
	b.StopTimer()
	pointsPerOp := float64(len(params))
	b.ReportMetric(pointsPerOp*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}
