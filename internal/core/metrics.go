package core

import (
	"time"

	"bcnphase/internal/telemetry"
)

// SolveMetrics instruments the sampled arc-stitching solver (Solve, and
// Classify under an invariant checker). A nil *SolveMetrics (the
// default) is inert and costs Solve one nil comparison per call; all accounting happens once per solve, after the
// verdict is built, so the per-arc hot loop is untouched.
type SolveMetrics struct {
	// Solves counts Solve invocations (including failed ones).
	Solves *telemetry.Counter
	// Arcs counts stitched closed-form arcs.
	Arcs *telemetry.Counter
	// Crossings counts switching-line crossings — each one is a regime
	// switch between the σ>0 and σ<0 rate laws.
	Crossings *telemetry.Counter
	// Extrema counts recorded x-extrema.
	Extrema *telemetry.Counter
	// Outcomes tallies trajectory outcomes by name.
	Outcomes *telemetry.CounterVec
	// PhaseSeconds accumulates simulated time spent in each region, so
	// an operator can see where a trajectory's dwell time goes.
	PhaseSeconds *telemetry.GaugeVec
	// Duration is the wall-clock cost of one Solve.
	Duration *telemetry.Histogram
}

// NewSolveMetrics registers the solver family on r. A nil registry
// yields a nil (inert) SolveMetrics.
func NewSolveMetrics(r *telemetry.Registry) *SolveMetrics {
	if r == nil {
		return nil
	}
	return &SolveMetrics{
		Solves:    r.Counter("core_solves_total", "stitched-trajectory solves"),
		Arcs:      r.Counter("core_arcs_total", "closed-form arcs stitched"),
		Crossings: r.Counter("core_crossings_total", "switching-line crossings (regime switches)"),
		Extrema:   r.Counter("core_extrema_total", "x-extrema recorded"),
		Outcomes:  r.CounterVec("core_outcomes_total", "trajectory outcomes", "outcome"),
		PhaseSeconds: r.GaugeVec("core_phase_sim_seconds_total",
			"simulated seconds spent per rate-law region", "region"),
		Duration: r.Histogram("core_solve_seconds", "wall-clock duration of one Solve", nil),
	}
}

// observe folds one finished solve into the registry.
func (m *SolveMetrics) observe(s *Summary, err error, wall time.Duration) {
	m.Solves.Inc()
	m.Duration.Observe(wall.Seconds())
	if err != nil {
		return
	}
	m.Arcs.Add(uint64(s.Arcs))
	m.Crossings.Add(uint64(s.Crossings))
	m.Extrema.Add(uint64(s.Extrema))
	if s.Outcome != 0 {
		m.Outcomes.With(s.Outcome.String()).Inc()
	}
	// Per-region dwell time was summed by the kernel, so the registry
	// is touched a constant number of times per solve, not per arc.
	for _, r := range [...]Region{Increase, Decrease} {
		if d := s.dwell[r]; d > 0 {
			m.PhaseSeconds.With(r.String()).Add(d)
		}
	}
}
