package analytic

import (
	"bcnphase/internal/core"
	"bcnphase/internal/telemetry"
)

// Metrics counts classified verdicts: the analytic_* family the sweep
// tools and bcnd expose. A nil *Metrics is inert; batch solves
// aggregate locally and flush the registry once per batch, not once per
// point.
type Metrics struct {
	// Solves counts classified points.
	Solves *telemetry.Counter
	// Arcs counts stitched arcs.
	Arcs *telemetry.Counter
	// Crossings counts switching-line crossings.
	Crossings *telemetry.Counter
	// Extrema counts recorded x-extrema.
	Extrema *telemetry.Counter
	// Outcomes tallies verdicts by name.
	Outcomes *telemetry.CounterVec
}

// NewMetrics registers the analytic family on r. A nil registry yields
// a nil (inert) Metrics.
func NewMetrics(r *telemetry.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Solves:    r.Counter("analytic_solves_total", "points classified by the closed-form kernel"),
		Arcs:      r.Counter("analytic_arcs_total", "arcs stitched by the closed-form kernel"),
		Crossings: r.Counter("analytic_crossings_total", "switching-line crossings stitched"),
		Extrema:   r.Counter("analytic_extrema_total", "x-extrema recorded"),
		Outcomes:  r.CounterVec("analytic_outcomes_total", "closed-form kernel verdicts", "outcome"),
	}
}

// Observe folds one verdict into the registry; nil-safe.
func (m *Metrics) Observe(s *core.Summary) {
	if m == nil {
		return
	}
	var t tally
	t.fold(s)
	m.flush(&t)
}

// tally accumulates verdicts locally. Outcome counts index core.Outcome
// values directly (a small dense enum).
type tally struct {
	solves, arcs, crossings, extrema uint64
	outcomes                         [8]uint64
}

func (t *tally) fold(s *core.Summary) {
	t.solves++
	t.arcs += uint64(s.Arcs)
	t.crossings += uint64(s.Crossings)
	t.extrema += uint64(s.Extrema)
	if o := int(s.Outcome); o > 0 && o < len(t.outcomes) {
		t.outcomes[o]++
	}
}

func (m *Metrics) flush(t *tally) {
	if m == nil || t.solves == 0 {
		return
	}
	m.Solves.Add(t.solves)
	m.Arcs.Add(t.arcs)
	m.Crossings.Add(t.crossings)
	m.Extrema.Add(t.extrema)
	for o, n := range t.outcomes {
		if n > 0 {
			m.Outcomes.With(core.Outcome(o).String()).Add(n)
		}
	}
}
