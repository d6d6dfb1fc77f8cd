package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"bcnphase/internal/invariant"
)

// Outcome classifies how a stitched trajectory ended.
type Outcome int

// Trajectory outcomes.
const (
	// OutcomeConverged: the state entered the convergence ball around
	// the equilibrium (directly or via the asymptotic contraction
	// short-circuit).
	OutcomeConverged Outcome = iota + 1
	// OutcomeOverflow: the queue hit the buffer ceiling (x ≥ B − q0);
	// packets would be dropped. Not strongly stable.
	OutcomeOverflow
	// OutcomeUnderflow: the queue emptied after start (x ≤ −q0 with
	// t > 0); the link would idle. Not strongly stable.
	OutcomeUnderflow
	// OutcomeLimitCycle: successive returns to the switching line
	// repeat (contraction ratio ≈ 1); the queue oscillates forever
	// with constant amplitude.
	OutcomeLimitCycle
	// OutcomeDiverging: successive returns grow (ratio > 1).
	OutcomeDiverging
	// OutcomeHorizon: the arc or time budget ran out first.
	OutcomeHorizon
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeConverged:
		return "converged"
	case OutcomeOverflow:
		return "overflow"
	case OutcomeUnderflow:
		return "underflow"
	case OutcomeLimitCycle:
		return "limit cycle"
	case OutcomeDiverging:
		return "diverging"
	case OutcomeHorizon:
		return "horizon reached"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// StronglyStable reports whether the outcome satisfies Definition 1
// (strong stability): the queue eventually stays strictly inside (0, B).
// A limit cycle strictly inside the strip is strongly stable in the
// paper's sense (trajectories ℓ5/ℓ7 of Fig. 3) even though it harms
// fairness and convergence.
func (o Outcome) StronglyStable() bool {
	return o == OutcomeConverged || o == OutcomeLimitCycle
}

// Segment is one closed-form arc of a stitched trajectory.
type Segment struct {
	// Region is the active rate law.
	Region Region
	// Kind is the closed-form family of this arc.
	Kind ArcKind
	// T0 is the global start time; Duration the arc length in time.
	T0, Duration float64
	// X0, Y0 is the entry state.
	X0, Y0 float64
}

// SwitchCrossing is one crossing of the switching line x + k·y = 0.
type SwitchCrossing struct {
	T, X, Y float64
	// To is the region being entered.
	To Region
}

// Extremum is a local extremum of x(t) (a y-zero along an arc).
type Extremum struct {
	T, X float64
	// Max is true for local maxima.
	Max bool
}

// Summary is the verdict of one stitched solve, built from exact knots
// only: arc junctions, x-extrema (the y-zeros), boundary hits and the
// final state. Computing it needs no polyline, so Classify produces it
// without allocating; Solve produces the same Summary alongside its
// sampled trajectory.
type Summary struct {
	// Outcome tells how the trajectory ended.
	Outcome Outcome
	// Arcs counts stitched closed-form arcs that ran to a switch or a
	// glide (a boundary-truncated final arc and the warm-up slide are
	// not counted).
	Arcs int
	// Crossings counts switching-line crossings.
	Crossings int
	// Extrema counts x-extrema (y-zeros) met before each arc's switch or
	// glide end, including one a boundary hit cut off.
	Extrema int
	// MaxX, MinX are the exact extreme x excursions (shifted
	// coordinates): x(t) is monotone between knots, so the extremes over
	// the traversed knots are the extremes of the whole trajectory. The
	// t = 0 launch counts, so a canonical start reports MinX = −q0
	// exactly (the queue is empty at launch); FirstMinX is the first
	// trough after it.
	MaxX, MinX float64
	// Rho is the measured per-round contraction ratio of switching-line
	// returns (0 when fewer than two same-side returns were seen).
	Rho float64
	// EndT, EndX, EndY is the final state.
	EndT, EndX, EndY float64
	// FirstMaxT/X and FirstMinT/X are the first traversed maximum and
	// minimum of x (NaN when none occurred): the paper's first-round
	// transient peak and trough, eqs. (18)–(20).
	FirstMaxT, FirstMaxX float64
	FirstMinT, FirstMinX float64
	// Violations tallies the runtime invariant violations observed by
	// the checker attached via SolveOptions.Invariants (zero when no
	// checker was attached or the run was clean).
	Violations invariant.Stats

	// dwell is the simulated time spent per region, indexed by Region
	// (telemetry only).
	dwell [3]float64
}

// MaxQueue returns the peak queue length q0 + MaxX in bits.
func (s *Summary) MaxQueue(p Params) float64 { return p.Q0 + s.MaxX }

// MinQueue returns the minimum queue length q0 + MinX in bits.
func (s *Summary) MinQueue(p Params) float64 { return p.Q0 + s.MinX }

// Trajectory is a stitched piecewise-closed-form solution of the
// linearized switched system (paper eq. 9) with buffer enforcement: the
// Summary of the solve plus the sampled polyline and the arc, crossing
// and extremum lists figures need. The lists shadow Summary's counts of
// the same name and have those lengths (Segments additionally holds the
// warm-up slide, when there is one).
type Trajectory struct {
	// Params echoes the generating parameters.
	Params Params
	// T, X, Y is the sampled polyline in global time.
	T, X, Y []float64
	// Segments lists the arcs in order.
	Segments []Segment
	// Crossings lists the switching-line crossings in order.
	Crossings []SwitchCrossing
	// Extrema lists the x-extrema encountered.
	Extrema []Extremum
	Summary
}

// QueueSeries returns the queue-length polyline q(t) = q0 + x(t) in
// original coordinates (bits).
func (tr *Trajectory) QueueSeries() (t, q []float64) {
	t = make([]float64, len(tr.T))
	q = make([]float64, len(tr.T))
	copy(t, tr.T)
	for i, x := range tr.X {
		q[i] = tr.Params.Q0 + x
	}
	return t, q
}

// RateSeries returns the aggregate-rate polyline N·r(t) = C + y(t) in
// original coordinates (bits/s).
func (tr *Trajectory) RateSeries() (t, r []float64) {
	t = make([]float64, len(tr.T))
	r = make([]float64, len(tr.T))
	copy(t, tr.T)
	for i, y := range tr.Y {
		r[i] = tr.Params.C + y
	}
	return t, r
}

// MaxQueue returns the peak queue length reached (original coordinates).
func (tr *Trajectory) MaxQueue() float64 { return tr.Summary.MaxQueue(tr.Params) }

// MinQueue returns the minimum queue length reached (original coordinates).
func (tr *Trajectory) MinQueue() float64 { return tr.Summary.MinQueue(tr.Params) }

// SolveOptions configures Solve and Classify. The zero value requests
// the paper's canonical start (−q0, 0) with defaults suitable for
// stability verdicts.
type SolveOptions struct {
	// Start overrides the initial state (x0, y0); nil means (−q0, 0).
	Start *[2]float64
	// WarmupFromRate, when non-nil, prepends the paper's warm-up phase:
	// the state starts at (−q0, N·μ−C) and slides along the empty-queue
	// boundary x = −q0 with dy/dt = a·q0 until y reaches 0 (§IV-C).
	// μ is the per-source initial rate; N·μ must not exceed C.
	WarmupFromRate *float64
	// MaxArcs bounds the number of stitched arcs (default 1e6).
	MaxArcs int
	// SamplesPerArc controls polyline resolution (default 64).
	SamplesPerArc int
	// ConvergeTol is the relative convergence tolerance: converged when
	// |x| < tol·q0 and |y| < tol·C (default 1e-3).
	ConvergeTol float64
	// ShortCircuit permits declaring convergence analytically once the
	// per-round contraction ratio is measured < 1 and the first-round
	// extrema passed the buffer check (default true; set
	// DisableShortCircuit to turn off).
	DisableShortCircuit bool
	// IgnoreBuffer disables overflow/underflow termination (pure phase
	// portrait of the unconstrained system).
	IgnoreBuffer bool
	// CycleTol is the relative tolerance for declaring a limit cycle
	// from the contraction ratio (default 1e-6).
	CycleTol float64
	// Invariants optionally attaches a runtime invariant checker: every
	// sampled point is checked for state finiteness, queue and rate
	// bounds, σ-branch consistency and a monotone sample clock. Under
	// the Strict policy the first violation aborts the solve with a
	// *invariant.InvariantError; under Record/Clamp the run continues
	// (Clamp projects polyline samples back into the feasible strip) and
	// the tallies land in Summary.Violations. A Record/Clamp checker
	// also lets the solve integrate through parameter sets
	// Params.Validate rejects, recording the breakage instead of
	// refusing the run. The checks run on the sampled polyline, so
	// Classify samples whenever a checker is enabled.
	Invariants *invariant.Checker
	// Telemetry optionally attaches solver metrics (arc/crossing/outcome
	// counts, per-region dwell time, wall-clock histograms) to sampled
	// solves: Solve, and Classify when a checker makes it sample. A
	// knots-only Classify skips them; batch callers count those verdicts
	// once per batch instead (analytic.Metrics). Nil costs one
	// comparison per solve.
	Telemetry *SolveMetrics
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.MaxArcs <= 0 {
		o.MaxArcs = 1_000_000
	}
	if o.SamplesPerArc <= 0 {
		o.SamplesPerArc = 64
	}
	if o.ConvergeTol <= 0 {
		o.ConvergeTol = 1e-3
	}
	if o.CycleTol <= 0 {
		o.CycleTol = 1e-6
	}
	return o
}

// ErrNonFinite reports a closed form that evaluated to a non-finite time
// or state in an unchecked solve.
var ErrNonFinite = errors.New("core: closed form went non-finite")

// Solve stitches closed-form arcs of the linearized switched system from
// the initial state, enforcing the buffer strip and classifying the
// outcome, and samples the result into a polyline for figures. It is
// the engine behind every phase portrait in this repository. When
// SolveOptions.Invariants attaches a checker, every sampled point is
// self-checked at runtime and the violation tallies are returned in
// Trajectory.Violations.
func Solve(p Params, opts SolveOptions) (*Trajectory, error) {
	var began time.Time
	if opts.Telemetry != nil {
		began = time.Now()
	}
	tr := &Trajectory{Params: p}
	s, err := stitch(p, opts, &sampler{
		tr:    tr,
		guard: newSolveGuard(opts.Invariants, p, !opts.IgnoreBuffer),
	})
	if err == nil {
		s.Violations = opts.Invariants.Stats()
	}
	if opts.Telemetry != nil {
		opts.Telemetry.observe(&s, err, time.Since(began))
	}
	if err != nil {
		return nil, err
	}
	tr.Summary = s
	return tr, nil
}

// Classify runs the same stitching as Solve but keeps only the exact
// knots: the Summary of Solve for the same inputs, bit for bit, without
// the polyline or the arc lists. With no invariant checker attached it
// makes no allocations; an enabled checker needs the sampled polyline,
// so Classify then samples like Solve.
func Classify(p Params, opts SolveOptions) (Summary, error) {
	if opts.Invariants.Enabled() {
		tr, err := Solve(p, opts)
		if err != nil {
			return Summary{}, err
		}
		return tr.Summary, nil
	}
	return stitch(p, opts, nil)
}

// sampler records what only figures and checked runs need: the 64-point
// polyline per arc, the segment, crossing and extremum lists, and the
// invariant guard run over every sample. The stitching kernel calls it
// only when one is attached.
type sampler struct {
	tr    *Trajectory
	guard *solveGuard
}

// stitch is the one closed-form stitching loop (paper §IV-B): solve each
// rate regime in closed form from its entry state, end the arc at its
// first switching-line crossing (or glide it into the convergence box),
// and classify the outcome from exact knots. A non-nil sampler also
// records the polyline and lists.
func stitch(p Params, opts SolveOptions, smp *sampler) (Summary, error) {
	chk := opts.Invariants
	if err := p.Validate(); err != nil {
		// A Strict checker turns the rejection into a structured
		// violation; Record/Clamp checkers log it and integrate through
		// the broken parameters so downstream guards can show the
		// consequences. Without a checker the historical contract holds.
		if !chk.Enabled() {
			return Summary{}, err
		}
		if ferr := chk.Fail(PredParamsValid, 0, err.Error()); ferr != nil {
			return Summary{}, ferr
		}
	}
	opts = opts.withDefaults()
	k := p.K()

	x, y := -p.Q0, 0.0
	if opts.Start != nil {
		x, y = opts.Start[0], opts.Start[1]
	}
	var s Summary
	tGlobal := 0.0
	if opts.WarmupFromRate != nil {
		t0, err := p.WarmupTime(*opts.WarmupFromRate)
		if err != nil {
			return Summary{}, err
		}
		if smp != nil {
			if err := smp.warmup(p, *opts.WarmupFromRate, t0, opts.SamplesPerArc); err != nil {
				return Summary{}, err
			}
		}
		s.dwell[Increase] += t0
		tGlobal, x, y = t0, -p.Q0, 0
	}

	tolX := opts.ConvergeTol * p.Q0
	tolY := opts.ConvergeTol * p.C
	xHi := p.B - p.Q0 // overflow boundary
	xLo := -p.Q0      // underflow boundary

	ext := extremes{
		maxX: math.Inf(-1), minX: math.Inf(1),
		firstMaxT: math.NaN(), firstMaxX: math.NaN(),
		firstMinT: math.NaN(), firstMinX: math.NaN(),
	}
	finish := func(o Outcome, t, xf, yf float64) (Summary, error) {
		ext.add(xf)
		if smp != nil {
			smp.tr.appendPoint(t, xf, yf)
		}
		s.Outcome = o
		s.EndT, s.EndX, s.EndY = t, xf, yf
		ext.finishInto(&s)
		return s, nil
	}

	// Same-side return amplitudes for the contraction measurement: the
	// |distance from origin| at the last two crossings entering the
	// Decrease region.
	var prevAmp, lastAmp float64
	enterDecrease := 0

	// The active region is carried across crossings explicitly: crossing
	// points land on the switching line only up to roundoff, so
	// re-deriving the region from the state there would be fragile.
	region := p.RegionAt(x, y)
	for arcIdx := 0; arcIdx < opts.MaxArcs; arcIdx++ {
		lin := p.RegionLinear(region)
		arc, err := NewArc(lin.M, lin.N, k, x, y)
		if err != nil {
			// An unconstructible regime (e.g. a negative gain slipped
			// past validation under Record/Clamp) aborts a Strict run
			// with a structured violation and ends a Record/Clamp run
			// gracefully at the horizon with the breakage tallied.
			if !chk.Enabled() {
				return Summary{}, err
			}
			if ferr := chk.Fail(PredRegimeValid, tGlobal, err.Error()); ferr != nil {
				return Summary{}, ferr
			}
			return finish(OutcomeHorizon, tGlobal, x, y)
		}
		eps := 1e-9 * arc.TimeScale()

		tSwitch, hasSwitch := arc.FirstSwitch(eps)
		tEnd := tSwitch
		if !hasSwitch {
			// Terminal arc gliding to the origin: integrate until
			// inside the convergence ball.
			tEnd = glideTime(arc, tolX, tolY)
		}
		if !chk.Enabled() && !finite(tEnd) {
			return Summary{}, fmt.Errorf("%w: arc end time %v at t=%v", ErrNonFinite, tEnd, tGlobal)
		}

		// Entry knot: the junction state carried across the crossing.
		ext.add(x)

		// The extremum (if any) inside this arc. x is at a maximum when
		// y falls through zero, i.e. the arc entered with y > 0 (or with
		// y = 0 and dy/dt = −n·x > 0). The tally counts any y-zero
		// before the switch or glide end; the excursion only counts the
		// part of the arc actually traversed (up to a boundary hit).
		tz, hasZ := arc.FirstYZero(eps)
		hasZ = hasZ && tz < tEnd
		isMax := y > 0 || (y == 0 && x < 0)
		var xz float64
		if hasZ {
			xz = arc.X(tz)
			s.Extrema++
			if smp != nil {
				smp.tr.Extrema = append(smp.tr.Extrema, Extremum{T: tGlobal + tz, X: xz, Max: isMax})
			}
		}

		xNext, yNext := arc.At(tEnd)

		// Buffer enforcement: earliest boundary hit inside (eps, tEnd].
		if !opts.IgnoreBuffer {
			if tb, hi, ok := firstBoundaryHit(&arc, tz, xz, hasZ, tEnd, xNext, xLo, xHi); ok {
				if hasZ && tz < tb {
					ext.extremum(tGlobal+tz, xz, isMax)
				}
				if smp != nil {
					if err := smp.arc(region, arc, tGlobal, tb, opts.SamplesPerArc, x, y); err != nil {
						return Summary{}, err
					}
				}
				xb, yb := arc.At(tb)
				if hi {
					return finish(OutcomeOverflow, tGlobal+tb, xb, yb)
				}
				return finish(OutcomeUnderflow, tGlobal+tb, xb, yb)
			}
		}

		if hasZ {
			ext.extremum(tGlobal+tz, xz, isMax)
			// A terminal glide arc can oscillate through further
			// extrema on its way into the convergence box; amplitudes
			// decay, so a short scan suffices.
			for i := 0; i < 4 && !hasSwitch; i++ {
				var more bool
				if tz, more = arc.FirstYZero(tz); !more || tz >= tEnd {
					break
				}
				ext.add(arc.X(tz))
			}
		}
		if smp != nil {
			if err := smp.arc(region, arc, tGlobal, tEnd, opts.SamplesPerArc, x, y); err != nil {
				return Summary{}, err
			}
			smp.tr.Segments = append(smp.tr.Segments, Segment{
				Region: region, Kind: arc.Kind(), T0: tGlobal, Duration: tEnd, X0: x, Y0: y,
			})
		}
		s.Arcs++
		s.dwell[region] += tEnd

		if !chk.Enabled() && (!finite(xNext) || !finite(yNext)) {
			return Summary{}, fmt.Errorf("%w: state (%v, %v) at t=%v", ErrNonFinite, xNext, yNext, tGlobal+tEnd)
		}
		tGlobal += tEnd

		if !hasSwitch {
			// Glided to the origin inside this region.
			return finish(OutcomeConverged, tGlobal, xNext, yNext)
		}

		// Crossing bookkeeping: on the line σ̇ = −y, so y > 0 enters
		// the decrease region.
		next := Increase
		if yNext > 0 {
			next = Decrease
		}
		s.Crossings++
		if smp != nil {
			smp.tr.Crossings = append(smp.tr.Crossings, SwitchCrossing{T: tGlobal, X: xNext, Y: yNext, To: next})
		}
		region = next
		if next == Decrease {
			prevAmp, lastAmp = lastAmp, math.Abs(xNext)
			enterDecrease++
		}

		// Convergence at the crossing point.
		if math.Abs(xNext) < tolX && math.Abs(yNext) < tolY {
			return finish(OutcomeConverged, tGlobal, xNext, yNext)
		}

		// Contraction ratio after two same-side returns.
		if enterDecrease >= 2 && prevAmp > 0 {
			rho := lastAmp / prevAmp
			s.Rho = rho
			switch {
			case math.Abs(rho-1) <= opts.CycleTol:
				return finish(OutcomeLimitCycle, tGlobal, xNext, yNext)
			case rho > 1+opts.CycleTol:
				// Diverging returns: the trajectory will
				// eventually hit the buffer unless stopped.
				if opts.IgnoreBuffer {
					return finish(OutcomeDiverging, tGlobal, xNext, yNext)
				}
			case !opts.DisableShortCircuit:
				// Strict contraction measured and the widest
				// (first) round cleared the buffer strip:
				// later rounds scale down by ρ < 1, so the
				// system converges without further excursions.
				return finish(OutcomeConverged, tGlobal, xNext, yNext)
			}
		}
		x, y = xNext, yNext
	}
	return finish(OutcomeHorizon, tGlobal, x, y)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// extremes folds exact knots (arc entries, extrema, boundary hits, the
// final state) into the excursion extremes and remembers the first
// maximum and minimum.
type extremes struct {
	maxX, minX           float64
	firstMaxT, firstMaxX float64
	firstMinT, firstMinX float64
}

func (e *extremes) add(x float64) {
	if x > e.maxX {
		e.maxX = x
	}
	if x < e.minX {
		e.minX = x
	}
}

// extremum folds one x-extremum (a y-zero) knot.
func (e *extremes) extremum(t, x float64, isMax bool) {
	e.add(x)
	if isMax {
		if math.IsNaN(e.firstMaxT) {
			e.firstMaxT, e.firstMaxX = t, x
		}
	} else if math.IsNaN(e.firstMinT) {
		e.firstMinT, e.firstMinX = t, x
	}
}

// finishInto seals the extremes into s.
func (e *extremes) finishInto(s *Summary) {
	s.MaxX, s.MinX = e.maxX, e.minX
	s.FirstMaxT, s.FirstMaxX = e.firstMaxT, e.firstMaxX
	s.FirstMinT, s.FirstMinX = e.firstMinT, e.firstMinX
}

// warmup samples the empty-queue acceleration phase (§IV-C): the state
// slides along x = −q0 with dy/dt = a·q0 from N·μ−C up to y = 0 at t0.
func (smp *sampler) warmup(p Params, mu, t0 float64, samples int) error {
	y0 := float64(p.N)*mu - p.C
	accel := p.A() * p.Q0
	for i := 0; i <= samples; i++ {
		t := t0 * float64(i) / float64(samples)
		x, y, err := smp.guard.point(Increase, t, -p.Q0, y0+accel*t)
		if err != nil {
			return err
		}
		smp.tr.appendPoint(t, x, y)
	}
	smp.tr.Segments = append(smp.tr.Segments, Segment{
		Region: Increase, Kind: ArcCritical /* degenerate boundary slide */, T0: 0, Duration: t0, X0: -p.Q0, Y0: y0,
	})
	return nil
}

// glideTime finds a time by which the non-switching arc is inside the
// convergence box, by doubling from the arc's characteristic time.
func glideTime(arc Arc, tolX, tolY float64) float64 {
	t := arc.TimeScale()
	for i := 0; i < 200; i++ {
		x, y := arc.At(t)
		if math.Abs(x) < tolX && math.Abs(y) < tolY {
			return t
		}
		t *= 2
	}
	return t
}

// arc appends the arc polyline on [0, tEnd] at the given resolution,
// running every sample through the invariant guard (which may clamp it).
// The entry state (x0, y0) is used verbatim for the first sample so that
// closed-form roundoff does not perturb recorded junction points.
func (smp *sampler) arc(region Region, arc Arc, tGlobal, tEnd float64, samples int, x0, y0 float64) error {
	x0, y0, err := smp.guard.point(region, tGlobal, x0, y0)
	if err != nil {
		return err
	}
	smp.tr.appendPoint(tGlobal, x0, y0)
	for i := 1; i <= samples; i++ {
		t := tEnd * float64(i) / float64(samples)
		x, y := arc.At(t)
		x, y, err := smp.guard.point(region, tGlobal+t, x, y)
		if err != nil {
			return err
		}
		smp.tr.appendPoint(tGlobal+t, x, y)
	}
	return nil
}

// appendPoint appends one polyline sample, skipping duplicate junction
// points.
func (tr *Trajectory) appendPoint(t, x, y float64) {
	if n := len(tr.T); n > 0 && tr.T[n-1] == t {
		return
	}
	tr.T = append(tr.T, t)
	tr.X = append(tr.X, x)
	tr.Y = append(tr.Y, y)
}

// firstBoundaryHit finds the earliest time in (0, tEnd] at which x(t)
// reaches xLo or xHi; hi is true for an xHi (overflow) hit. Within one
// arc, x(t) is monotone between y-zeros and the arc contains at most one
// y-zero before its end, so checking the entry point, the extremum and the
// endpoint is exact; the crossing time is then refined by bisection on the
// monotone piece. The caller passes the knots it already holds: the
// extremum (tz, xz) when hasZ, and xe = x(tEnd).
//
// An entry state resting exactly on a boundary (the canonical start at an
// empty queue, x = −q0) is not a hit: the trajectory is entering the
// interior.
func firstBoundaryHit(arc *Arc, tz, xz float64, hasZ bool, tEnd, xe, xLo, xHi float64) (t float64, hi, ok bool) {
	type knot struct{ t, x float64 }
	var knots [3]knot
	knots[0] = knot{0, arc.X(0)}
	n := 1
	if hasZ {
		knots[n] = knot{tz, xz}
		n++
	}
	knots[n] = knot{tEnd, xe}
	n++

	for i := 1; i < n; i++ {
		a, b := knots[i-1], knots[i]
		switch {
		case b.x >= xHi && a.x < xHi:
			return refineBoundary(arc, a.t, b.t, xHi, true), true, true
		case b.x <= xLo && a.x > xLo:
			return refineBoundary(arc, a.t, b.t, xLo, false), false, true
		case i == 1 && (a.x >= xHi && b.x > a.x):
			// Entered at/beyond the ceiling and moving out.
			return a.t, true, true
		case i == 1 && (a.x <= xLo && b.x < a.x):
			// Entered at/below the floor and moving further out.
			return a.t, false, true
		}
	}
	return 0, false, false
}

// refineBoundary bisects for x(t) = c on [lo, hi] where x(lo) is inside
// and x(hi) outside. Only x is evaluated (Arc.X), so each step costs one
// exponential and, on spirals, one cosine.
func refineBoundary(arc *Arc, lo, hi, c float64, upper bool) float64 {
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		if mid == lo || mid == hi {
			break
		}
		if x := arc.X(mid); (upper && x < c) || (!upper && x > c) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Analyze solves the trajectory from the canonical start and summarizes
// strong stability: the verdict, extremes, contraction ratio and the
// Theorem 1 comparison.
type Analysis struct {
	Report     CriterionReport
	Trajectory *Trajectory
	// StronglyStable is the trajectory-level verdict (Definition 1).
	StronglyStable bool
}

// Analyze runs both the criteria evaluation and the stitched trajectory.
func Analyze(p Params, opts SolveOptions) (*Analysis, error) {
	rep, err := Criteria(p)
	if err != nil {
		return nil, err
	}
	tr, err := Solve(p, opts)
	if err != nil {
		return nil, err
	}
	return &Analysis{
		Report:         rep,
		Trajectory:     tr,
		StronglyStable: tr.Outcome.StronglyStable(),
	}, nil
}
