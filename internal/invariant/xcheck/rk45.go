package xcheck

import (
	"fmt"
	"math"

	"bcnphase/internal/core"
	"bcnphase/internal/ode"
)

// StitchRK45 classifies one parameter point from the canonical start
// (−q0, 0) by stitched Dormand-Prince integration of the piecewise-linear
// regimes, with core's termination rules (buffer walls unless
// ignoreBuffer, glide into the 1e-3 convergence box, ρ-based limit-cycle,
// divergence and short-circuit verdicts) but knowing nothing about the
// closed-form solutions: the eigenstructure is consulted only for time
// scales (step caps and integration horizons), never for states. It is
// the independent oracle the closed-form kernel (core.Classify) is
// fuzzed and swept against; it fills the verdict fields of the Summary
// (outcome, counts, exact-knot extremes, ρ, end state).
func StitchRK45(p core.Params, ignoreBuffer bool) (core.Summary, error) {
	if err := p.Validate(); err != nil {
		return core.Summary{}, err
	}
	const (
		maxArcs     = 1_000_000
		convergeTol = 1e-3
		cycleTol    = 1e-6
	)
	k := p.K()
	x, y := -p.Q0, 0.0
	tGlobal := 0.0

	tolX := convergeTol * p.Q0
	tolY := convergeTol * p.C
	xHi := p.B - p.Q0
	xLo := -p.Q0

	var res core.Summary
	maxX, minX := math.Inf(-1), math.Inf(1)
	knot := func(xk float64) {
		maxX, minX = math.Max(maxX, xk), math.Min(minX, xk)
	}
	finish := func(o core.Outcome, t, xf, yf float64) (core.Summary, error) {
		knot(xf)
		res.Outcome = o
		res.EndT, res.EndX, res.EndY = t, xf, yf
		res.MaxX, res.MinX = maxX, minX
		return res, nil
	}
	var prevAmp, lastAmp float64
	enterDecrease := 0

	region := p.RegionAt(x, y)
	for arcIdx := 0; arcIdx < maxArcs; arcIdx++ {
		lin := p.RegionLinear(region)
		if !(lin.M > 0) || !(lin.N > 0) || !(k > 0) {
			return core.Summary{}, fmt.Errorf("%w: regime coefficients m=%v, n=%v, k=%v must be positive",
				core.ErrInvalidParams, lin.M, lin.N, k)
		}
		knot(x)

		// Entered at or beyond a boundary and moving further out: an
		// immediate hit.
		if !ignoreBuffer {
			switch {
			case x >= xHi && y > 0:
				return finish(core.OutcomeOverflow, tGlobal, x, y)
			case x <= xLo && y < 0:
				return finish(core.OutcomeUnderflow, tGlobal, x, y)
			}
		}

		seg, err := integrateArc(lin, k, region, x, y, tolX, tolY, xLo, xHi, ignoreBuffer)
		if err != nil {
			return core.Summary{}, err
		}
		if seg.hasExtremum {
			res.Extrema++
			knot(seg.xExtremum)
		}
		if seg.boundary {
			if seg.hiBoundary {
				return finish(core.OutcomeOverflow, tGlobal+seg.tEnd, seg.xEnd, seg.yEnd)
			}
			return finish(core.OutcomeUnderflow, tGlobal+seg.tEnd, seg.xEnd, seg.yEnd)
		}
		res.Arcs++

		xNext, yNext := seg.xEnd, seg.yEnd
		tGlobal += seg.tEnd
		if !seg.switched {
			return finish(core.OutcomeConverged, tGlobal, xNext, yNext)
		}

		next := core.Increase
		if yNext > 0 {
			next = core.Decrease
		}
		res.Crossings++
		region = next
		if next == core.Decrease {
			prevAmp, lastAmp = lastAmp, math.Abs(xNext)
			enterDecrease++
		}

		if math.Abs(xNext) < tolX && math.Abs(yNext) < tolY {
			return finish(core.OutcomeConverged, tGlobal, xNext, yNext)
		}

		if enterDecrease >= 2 && prevAmp > 0 {
			rho := lastAmp / prevAmp
			res.Rho = rho
			switch {
			case math.Abs(rho-1) <= cycleTol:
				return finish(core.OutcomeLimitCycle, tGlobal, xNext, yNext)
			case rho > 1+cycleTol:
				if ignoreBuffer {
					return finish(core.OutcomeDiverging, tGlobal, xNext, yNext)
				}
			default:
				return finish(core.OutcomeConverged, tGlobal, xNext, yNext)
			}
		}
		x, y = xNext, yNext
	}
	return finish(core.OutcomeHorizon, tGlobal, x, y)
}

// rkSegment is one numerically integrated regime segment: the piece of
// trajectory from a junction to the next switching-line crossing,
// boundary hit, or settled glide.
type rkSegment struct {
	tEnd       float64
	xEnd, yEnd float64
	// switched is true when the segment ended at a switching-line
	// crossing (false for a settled glide).
	switched bool
	// boundary/hiBoundary mark an overflow (hi) or underflow (lo) hit.
	boundary, hiBoundary bool
	// hasExtremum records the first y-zero traversed inside the segment.
	hasExtremum bool
	xExtremum   float64
}

// integrateArc integrates one regime from (x0, y0) until the state exits
// through the switching line, hits a buffer boundary, or settles into
// the convergence box. The horizon doubles until one of those happens.
func integrateArc(lin core.Linear, k float64, region core.Region, x0, y0, tolX, tolY, xLo, xHi float64, ignoreBuffer bool) (rkSegment, error) {
	f := func(_ float64, st, d []float64) {
		d[0] = st[1]
		d[1] = -lin.N*st[0] - lin.M*st[1]
	}
	scale := regimeScale(lin)
	epsArm := 1e-9 * scale

	// Exit direction: s = x + k·y rises out of the increase region and
	// falls out of the decrease region (ṡ = y at the line).
	dir := +1
	if region == core.Decrease {
		dir = -1
	}
	// The y-zero event is armed past epsArm with the sign y takes just
	// after the junction, so a start with y = 0 exactly (the canonical
	// launch) cannot fake an extremum at t ≈ 0.
	ySign := y0
	if ySign == 0 {
		ySign = -lin.N*x0 - lin.M*y0
	}
	if ySign == 0 {
		ySign = 1
	} else {
		ySign = math.Copysign(1, ySign)
	}
	events := []ode.Event{
		{Name: "switch", Direction: dir, Terminal: true,
			G: func(_ float64, st []float64) float64 { return st[0] + k*st[1] }},
		{Name: "yzero", Direction: 0,
			G: func(t float64, st []float64) float64 {
				if t <= epsArm {
					return ySign
				}
				return st[1]
			}},
	}
	if !ignoreBuffer {
		events = append(events,
			ode.Event{Name: "hi", Direction: +1, Terminal: true,
				G: func(_ float64, st []float64) float64 { return st[0] - xHi }},
			ode.Event{Name: "lo", Direction: -1, Terminal: true,
				G: func(_ float64, st []float64) float64 { return st[0] - xLo }},
		)
	}

	horizon := 8 * scale
	for attempt := 0; attempt < 40; attempt++ {
		sol, err := ode.DormandPrince(f, 0, []float64{x0, y0}, horizon, ode.Options{
			AbsTol: 1e-12, RelTol: 1e-10,
			MaxStep: scale / 8,
			Events:  events,
		})
		if err != nil {
			return rkSegment{}, fmt.Errorf("xcheck: rk45 segment: %w", err)
		}
		var seg rkSegment
		for i := range sol.Events {
			hit := &sol.Events[i]
			switch hit.Name {
			case "yzero":
				if !seg.hasExtremum && hit.T > epsArm {
					seg.hasExtremum = true
					seg.xExtremum = hit.Y[0]
				}
			case "switch":
				seg.tEnd, seg.xEnd, seg.yEnd = hit.T, hit.Y[0], hit.Y[1]
				seg.switched = true
			case "hi", "lo":
				seg.tEnd, seg.xEnd, seg.yEnd = hit.T, hit.Y[0], hit.Y[1]
				seg.boundary = true
				seg.hiBoundary = hit.Name == "hi"
			}
		}
		if seg.switched || seg.boundary {
			return seg, nil
		}
		// No exit inside the horizon: a glide that has settled into the
		// convergence box ends the trajectory; otherwise widen and retry.
		_, yEnd := sol.Last()
		xe, ye := yEnd[0], yEnd[1]
		if math.Abs(xe) < tolX && math.Abs(ye) < tolY {
			seg.tEnd, seg.xEnd, seg.yEnd = horizon, xe, ye
			return seg, nil
		}
		horizon *= 2
	}
	return rkSegment{}, fmt.Errorf("xcheck: rk45 segment found no exit within %g characteristic times", 8*math.Pow(2, 40))
}

// regimeScale is the regime's characteristic time: the spiral half-turn
// period, or 1/|λ_slow| for (near-)real eigenvalues — the same quantity
// core.Arc.TimeScale reports, used here only to size steps and horizons.
func regimeScale(lin core.Linear) float64 {
	disc := lin.M*lin.M - 4*lin.N
	if disc < 0 {
		return math.Pi / (math.Sqrt(-disc) / 2)
	}
	l2 := (-lin.M + math.Sqrt(disc)) / 2
	if l2 == 0 {
		return 2 / lin.M
	}
	return 1 / math.Abs(l2)
}
