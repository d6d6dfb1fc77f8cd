// Package xcheck cross-validates the closed-form phase-plane engine
// against independent numerical integration and the paper's analytic
// bounds (Ren & Jiang, ICDCS 2010).
//
// The stitched trajectories produced by core.Solve are built from exact
// solutions of the linearized switched system; the Dormand-Prince driver
// in internal/ode integrates the same vector field knowing nothing about
// the closed forms. Agreement between the two — switching-line crossing
// points, transient queue extrema — is therefore a strong end-to-end
// check of both implementations. On top of the trajectory comparison the
// harness verifies the Theorem 1 chain: the measured first-round peak
// must respect the loose analytic envelope sqrt(a/(bC))·q0, and a
// parameter set satisfying the theorem's sufficient condition must
// produce a strongly stable trajectory.
//
// CrossValidate reports every comparison with its relative drift and
// fails loudly (Report.Err) past the tolerance. StitchRK45 is the same
// independence carried through a whole verdict: it stitches numerically
// integrated regimes with the kernel's termination rules, and the tests
// here fuzz and sweep core.Classify against it.
package xcheck

import (
	"fmt"
	"math"
	"strings"

	"bcnphase/internal/core"
	"bcnphase/internal/ode"
)

// Options tunes the harness. The zero value uses the defaults below.
type Options struct {
	// Tol is the relative drift tolerance past which a comparison fails
	// (default 1e-4 — far above the integrator error, far below any
	// real closed-form bug).
	Tol float64
	// RelTol and AbsTol override the integrator tolerances
	// (defaults 1e-10 and 1e-12).
	RelTol, AbsTol float64
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-4
	}
	if o.RelTol <= 0 {
		o.RelTol = 1e-10
	}
	if o.AbsTol <= 0 {
		o.AbsTol = 1e-12
	}
	return o
}

// Comparison is one analytic-vs-numeric (or bound-vs-measured) check.
type Comparison struct {
	// Name identifies the quantity, e.g. "first-crossing-time".
	Name string
	// Analytic is the closed-form value; Numeric the independently
	// integrated (or measured) one.
	Analytic, Numeric float64
	// Drift is |Numeric − Analytic| / scale with a quantity-appropriate
	// scale (q0 for queue offsets, C for rates, the crossing time for
	// times). For one-sided bound checks it is the relative overshoot
	// above the bound (zero when the bound holds).
	Drift float64
	// OK reports Drift ≤ tolerance.
	OK bool
}

// StabilityCheck relates the Theorem 1 verdict to the trajectory verdict.
type StabilityCheck struct {
	// Bound is the guaranteed peak queue (1+sqrt(a/(bC)))·q0 in bits.
	Bound float64
	// Satisfied is Bound < B (the theorem's sufficient condition).
	Satisfied bool
	// Outcome is the stitched-trajectory outcome with the buffer
	// enforced; StronglyStable is its Definition 1 verdict.
	Outcome        core.Outcome
	StronglyStable bool
	// Consistent is false when the theorem guarantees stability but the
	// trajectory violates it — an implementation contradiction.
	Consistent bool
	// Flag is a human-readable verdict; non-empty when the buffer is
	// below the Theorem 1 bound (stability not guaranteed) or on a
	// contradiction.
	Flag string
}

// Report is the outcome of one cross-validation run.
type Report struct {
	Params      core.Params
	Tol         float64
	Comparisons []Comparison
	Stability   StabilityCheck
}

// Failures returns the comparisons whose drift exceeded tolerance.
func (r *Report) Failures() []Comparison {
	var out []Comparison
	for _, c := range r.Comparisons {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

// Err returns nil when every comparison is within tolerance and the
// stability verdicts are consistent, and a *DriftError otherwise.
func (r *Report) Err() error {
	fails := r.Failures()
	if len(fails) == 0 && r.Stability.Consistent {
		return nil
	}
	e := &DriftError{Failures: fails, Tol: r.Tol}
	if !r.Stability.Consistent {
		e.Inconsistency = r.Stability.Flag
	}
	return e
}

// String renders a fixed-width summary table of the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "xcheck: tol=%g, %d comparisons\n", r.Tol, len(r.Comparisons))
	for _, c := range r.Comparisons {
		status := "ok"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "  %-24s analytic=%- 14.6g numeric=%- 14.6g drift=%.3g %s\n",
			c.Name, c.Analytic, c.Numeric, c.Drift, status)
	}
	s := r.Stability
	fmt.Fprintf(&b, "  theorem1: bound=%.4g B=%.4g satisfied=%v outcome=%v",
		s.Bound, r.Params.B, s.Satisfied, s.Outcome)
	if s.Flag != "" {
		fmt.Fprintf(&b, "\n  flag: %s", s.Flag)
	}
	return b.String()
}

// DriftError is the loud failure: it lists every comparison past
// tolerance and any theorem/trajectory contradiction.
type DriftError struct {
	Failures      []Comparison
	Tol           float64
	Inconsistency string
}

// Error names the failed comparisons and their drifts.
func (e *DriftError) Error() string {
	var parts []string
	for _, c := range e.Failures {
		parts = append(parts, fmt.Sprintf("%s drift %.3g (analytic %.6g, numeric %.6g)",
			c.Name, c.Drift, c.Analytic, c.Numeric))
	}
	if e.Inconsistency != "" {
		parts = append(parts, e.Inconsistency)
	}
	return fmt.Sprintf("xcheck: %d check(s) past tol %g: %s",
		len(parts), e.Tol, strings.Join(parts, "; "))
}

// CrossValidate runs the full harness on one parameter set: it stitches
// the closed-form trajectory from the canonical start (−q0, 0), numerically
// integrates the same piecewise-linear field with event location, compares
// switching-line crossings and first-round queue extrema, and checks the
// Theorem 1 chain. A non-nil error from this function means the harness
// itself could not run; disagreements are reported via Report.Err.
func CrossValidate(p core.Params, opt Options) (*Report, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	rep := &Report{Params: p, Tol: opt.Tol}

	// Closed-form trajectory of the unconstrained linearized system: the
	// crossings and extrema are the quantities under test, so the buffer
	// must not truncate them.
	tr, err := core.Solve(p, core.SolveOptions{IgnoreBuffer: true, MaxArcs: 64})
	if err != nil {
		return nil, fmt.Errorf("xcheck: closed-form solve: %w", err)
	}

	// Independent numerical integration of the same field.
	k := p.K()
	field := p.LinearizedField()
	f := func(_ float64, s, ds []float64) {
		ds[0], ds[1] = field(s[0], s[1])
	}
	horizon := numericHorizon(tr)
	odeOpts := ode.Options{
		AbsTol: opt.AbsTol, RelTol: opt.RelTol,
		Events: []ode.Event{
			// 0: first entry into the decrease region (s rises through 0).
			{G: func(_ float64, s []float64) float64 { return s[0] + k*s[1] }, Direction: +1, Name: "crossing"},
			// 1: queue maximum (y falls through 0).
			{G: func(_ float64, s []float64) float64 { return s[1] }, Direction: -1, Name: "ymax"},
			// 2: queue minimum (y rises through 0). Fires spuriously near
			// t=0 because the start state has y=0 exactly; filtered below
			// by requiring T past the located maximum.
			{G: func(_ float64, s []float64) float64 { return s[1] }, Direction: +1, Name: "ymin"},
		},
	}
	sol, err := ode.DormandPrince(f, 0, []float64{-p.Q0, 0}, horizon, odeOpts)
	if err != nil {
		return nil, fmt.Errorf("xcheck: numerical integration: %w", err)
	}

	add := func(name string, analytic, numeric, scale float64) {
		drift := math.Abs(numeric-analytic) / scale
		rep.Comparisons = append(rep.Comparisons, Comparison{
			Name: name, Analytic: analytic, Numeric: numeric,
			Drift: drift, OK: drift <= opt.Tol,
		})
	}

	// Switching-line crossing: closed-form junction vs located event.
	if len(tr.Crossings) > 0 {
		cr := tr.Crossings[0]
		if hit := firstEvent(sol, "crossing", 0); hit != nil {
			add("first-crossing-time", cr.T, hit.T, math.Max(cr.T, 1e-300))
			add("first-crossing-x", cr.X, hit.Y[0], p.Q0)
			add("first-crossing-y", cr.Y, hit.Y[1], p.C)
		} else {
			add("first-crossing-time", cr.T, math.NaN(), math.Max(cr.T, 1e-300))
		}
	}

	// First-round extrema: FirstRoundExtrema is a third, independent
	// analytic path (it re-stitches the arcs itself), so agreement here
	// covers Solve, the criteria code and the integrator at once.
	max1, min1, exErr := core.FirstRoundExtrema(p)
	if exErr == nil || len(tr.Extrema) > 0 {
		if hitMax := firstEvent(sol, "ymax", 0); hitMax != nil {
			if exErr == nil || max1 != 0 {
				add("first-max-x", max1, hitMax.Y[0], p.Q0)
			}
			if len(tr.Extrema) > 0 {
				add("solve-max-x", tr.Extrema[0].X, hitMax.Y[0], p.Q0)
			}
			if exErr == nil {
				if hitMin := firstEvent(sol, "ymin", hitMax.T); hitMin != nil {
					add("first-min-x", min1, hitMin.Y[0], p.Q0)
				}
			}
		}
	}

	// Theorem 1 loose envelope (eq. 36): the exact first-round peak must
	// stay below sqrt(a/(bC))·q0. One-sided: drift is the overshoot.
	if exErr == nil || max1 != 0 {
		envelope, _ := core.Theorem1LooseBounds(p)
		over := math.Max(0, (max1-envelope)/envelope)
		rep.Comparisons = append(rep.Comparisons, Comparison{
			Name: "theorem1-envelope", Analytic: envelope, Numeric: max1,
			Drift: over, OK: over <= opt.Tol,
		})
	}

	rep.Stability = stabilityCheck(p)
	return rep, nil
}

// stabilityCheck evaluates the Theorem 1 verdict against the
// buffer-enforced trajectory.
func stabilityCheck(p core.Params) StabilityCheck {
	s := StabilityCheck{
		Bound:     core.Theorem1Bound(p),
		Satisfied: core.Theorem1Satisfied(p),
	}
	tr, err := core.Solve(p, core.SolveOptions{})
	if err != nil {
		s.Consistent = false
		s.Flag = fmt.Sprintf("trajectory solve failed: %v", err)
		return s
	}
	s.Outcome = tr.Outcome
	s.StronglyStable = tr.Outcome.StronglyStable()
	// Theorem 1 is sufficient, not necessary: Satisfied ⇒ StronglyStable
	// must hold; an unsatisfied bound carries no guarantee either way.
	s.Consistent = !s.Satisfied || s.StronglyStable
	switch {
	case !s.Consistent:
		s.Flag = fmt.Sprintf(
			"contradiction: Theorem 1 bound %.4g < B=%.4g guarantees strong stability but trajectory outcome is %v",
			s.Bound, p.B, s.Outcome)
	case !s.Satisfied && !s.StronglyStable:
		s.Flag = fmt.Sprintf(
			"strong-stability violation: buffer B=%.4g is below the Theorem 1 bound %.4g and the trajectory %vs",
			p.B, s.Bound, s.Outcome)
	case !s.Satisfied:
		s.Flag = fmt.Sprintf(
			"not guaranteed: buffer B=%.4g is below the Theorem 1 bound %.4g (trajectory still %v)",
			p.B, s.Bound, s.Outcome)
	}
	return s
}

// numericHorizon picks an integration horizon covering the first-round
// extrema with margin.
func numericHorizon(tr *core.Trajectory) float64 {
	switch {
	case len(tr.Extrema) >= 2:
		return 1.5 * tr.Extrema[1].T
	case len(tr.Extrema) == 1:
		return 2 * tr.Extrema[0].T
	case tr.EndT > 0:
		return tr.EndT
	default:
		return 1
	}
}

// firstEvent returns the earliest hit of the named event with T > after.
func firstEvent(sol *ode.Solution, name string, after float64) *ode.EventHit {
	for i := range sol.Events {
		if sol.Events[i].Name == name && sol.Events[i].T > after {
			return &sol.Events[i]
		}
	}
	return nil
}
