package cluster

import (
	"context"
	"fmt"
	"math"

	"bcnphase/internal/analytic"
	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
	"bcnphase/internal/linear"
	"bcnphase/internal/runstate"
)

// GainGrid describes one gain-plane sweep: the geometric (Gi, Gd) grid
// cmd/bcnsweep evaluates, plus the invariant policy that shapes every
// row. It is also the coordinator's submit wire message (POST
// /v1/sweeps). The JSON field names match serve.SweepSpec so operators
// write one request shape everywhere.
type GainGrid struct {
	// BOverQ0 sets the buffer as a multiple of q0 (must leave B > q0).
	BOverQ0 float64 `json:"b_over_q0"`
	// GiLo, GiHi, GdLo, GdHi bound the geometric gain axes.
	GiLo float64 `json:"gi_lo"`
	GiHi float64 `json:"gi_hi"`
	GdLo float64 `json:"gd_lo"`
	GdHi float64 `json:"gd_hi"`
	// Steps is the per-axis resolution (Steps² grid points).
	Steps int `json:"steps"`
	// Invariants is the runtime invariant policy applied to every point
	// ("off", "record", "strict", "clamp"); empty means off. It is part
	// of the grid's identity: rows computed under one policy must never
	// replay under another.
	Invariants string `json:"invariants,omitempty"`
}

// MaxClusterSteps caps the per-axis resolution a coordinator accepts
// over the wire (MaxClusterSteps² points). Local bcnsweep runs are not
// bound by it.
const MaxClusterSteps = 64

// GainPoint is one (Gi, Gd) grid point.
type GainPoint struct {
	Gi float64 `json:"gi"`
	Gd float64 `json:"gd"`
}

// Row is one evaluated grid point. The exported field names are frozen:
// they are the JSON shape of both the shard result envelope and the
// journal records cmd/bcnsweep has written since the resume PR, so a
// coordinator journal and a bcnsweep -resume journal are
// interchangeable. appendRow and readShardArtifact spell that shape out
// by hand; TestRowSumMatchesHashJSON and FuzzShardArtifactReader hold
// them to encoding/json.
type Row struct {
	// CSV is the rendered output line.
	CSV string
	// Violations and FirstPred summarize the point's runtime invariant
	// tallies for sweep-level aggregation.
	Violations uint64
	FirstPred  string
}

// InvariantViolations implements sweep.InvariantReporter.
func (r Row) InvariantViolations() (uint64, string) { return r.Violations, r.FirstPred }

// CSVHeader is the merged map.csv header row, identical to
// cmd/bcnsweep's.
const CSVHeader = "gi,gd,case,linear_stable,theorem1_ok,theorem1_bound_bits,outcome,strongly_stable,max_q_bits,rho,violations,first_violation"

// gridIdentity fingerprints everything that shapes a row's value. The
// struct (field names, order, values) is byte-compatible with the
// sweepIdentity cmd/bcnsweep has hashed since format 2, so grids keep
// their journal keys no matter which side of the cluster evaluates
// them. Execution knobs (workers, shard size, timeouts) are
// deliberately excluded — they do not affect results.
type gridIdentity struct {
	Experiment string
	Format     int // bump when the CSV row layout changes
	BOverQ0    float64
	GiLo, GiHi float64
	GdLo, GdHi float64
	Steps      int
	Invariants string
}

// Validate checks the grid's structural and physical feasibility.
func (g GainGrid) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("cluster: grid: %s", fmt.Sprintf(format, args...))
	}
	if g.Steps < 2 {
		return fail("steps=%d must be >= 2", g.Steps)
	}
	for _, b := range []struct {
		name string
		v    float64
	}{
		{"b_over_q0", g.BOverQ0},
		{"gi_lo", g.GiLo}, {"gi_hi", g.GiHi},
		{"gd_lo", g.GdLo}, {"gd_hi", g.GdHi},
	} {
		if math.IsNaN(b.v) || math.IsInf(b.v, 0) || b.v <= 0 {
			return fail("%s=%v must be positive and finite", b.name, b.v)
		}
	}
	if g.BOverQ0 <= 1 {
		return fail("b_over_q0=%v leaves B <= q0", g.BOverQ0)
	}
	if _, err := invariant.ParsePolicy(g.Invariants); err != nil {
		return fail("%v", err)
	}
	return nil
}

// Policy returns the grid's parsed invariant policy (Off for empty).
// The grid must have passed Validate.
func (g GainGrid) Policy() invariant.Policy {
	pol, _ := invariant.ParsePolicy(g.Invariants)
	return pol
}

// Base materializes the shared parameter set every point perturbs: the
// figure example with the grid's buffer multiple, exactly as
// cmd/bcnsweep builds it.
func (g GainGrid) Base() core.Params {
	p := core.FigureExample()
	p.B = g.BOverQ0 * p.Q0
	return p
}

// Points enumerates the grid in row-major order (all Gd values for the
// first Gi, then the next Gi) — the order map.csv rows appear in.
func (g GainGrid) Points() []GainPoint {
	n := g.Steps * g.Steps
	return g.appendPoints(make([]GainPoint, 0, n), 0, n)
}

// appendPoints appends the points of grid indices [lo, hi) to dst in
// row-major order. It is the one index → point derivation: Points and
// a worker expanding a shard's runs (ShardSpec.Points) both call it,
// so a point's bits never depend on which side derived it. Each axis
// value is computed by geomAt; within one call, a Gi is reused along
// its row and a Gd from the point one row up.
func (g GainGrid) appendPoints(dst []GainPoint, lo, hi int) []GainPoint {
	n, start := g.Steps, len(dst)
	for k := lo; k < hi; k++ {
		i, j := k/n, k%n
		var pt GainPoint
		if k > lo && j > 0 {
			pt.Gi = dst[len(dst)-1].Gi
		} else {
			pt.Gi = geomAt(g.GiLo, g.GiHi, i, n)
		}
		if k-lo >= n {
			pt.Gd = dst[start+k-lo-n].Gd
		} else {
			pt.Gd = geomAt(g.GdLo, g.GdHi, j, n)
		}
		dst = append(dst, pt)
	}
	return dst
}

// Fingerprint is the grid's identity hash: the root of every point and
// shard key. A journal written for one fingerprint can never poison a
// run with another (stale-journal guard).
func (g GainGrid) Fingerprint() (string, error) {
	pol, err := invariant.ParsePolicy(g.Invariants)
	if err != nil {
		return "", fmt.Errorf("cluster: %v", err)
	}
	return runstate.HashJSON(gridIdentity{
		Experiment: "bcnsweep/gainmap",
		// Format 4: every row comes from the one closed-form kernel
		// (exact extrema in max_q_bits under every invariant policy), so
		// the engine mode left the identity and every Format 3 journal
		// key is retired.
		Format:  4,
		BOverQ0: g.BOverQ0,
		GiLo:    g.GiLo, GiHi: g.GiHi,
		GdLo: g.GdLo, GdHi: g.GdHi,
		Steps:      g.Steps,
		Invariants: pol.String(),
	})
}

// PointKey is the journal key of one grid point under the grid
// fingerprint — the same content key cmd/bcnsweep journals rows under.
func PointKey(fingerprint string, pt GainPoint) string {
	key, err := runstate.HashJSON(struct {
		FP     string
		Gi, Gd float64
	}{fingerprint, pt.Gi, pt.Gd})
	if err != nil { // unreachable for plain floats; fail closed as a cache miss
		return fmt.Sprintf("unhashable:%g,%g", pt.Gi, pt.Gd)
	}
	return key
}

// EvalMetrics bundles the instruments a row evaluation touches. The
// zero value is inert.
type EvalMetrics struct {
	// Solve instruments the sampled solves rows under a checked
	// invariant policy run (core_* family: counts, per-region dwell,
	// wall-clock).
	Solve *core.SolveMetrics
	// Analytic counts every row verdict (analytic_* family).
	Analytic *analytic.Metrics
}

// Eval evaluates one grid point to its CSV row: the linear criterion of
// [4], the Theorem 1 sufficient condition, and the phase-plane ground
// truth. It is EvalBatch over a span of one point; the two are the
// single canonical row evaluation — bcnsweep, the shard executor in
// internal/serve, and the chaos tests all call them, which is what makes
// "byte-identical to a single-node run" a property instead of a hope.
func (g GainGrid) Eval(ctx context.Context, pt GainPoint, m EvalMetrics) (Row, error) {
	var out [1]Row
	if err := g.EvalBatch(ctx, []GainPoint{pt}, out[:], m); err != nil {
		return Row{}, err
	}
	return out[0], nil
}

// rowBytes is a generous estimate of one map.csv row's length (paper-scale
// rows run about 115 bytes), used to presize span buffers.
const rowBytes = 128

// EvalBatch evaluates a contiguous span of grid points, writing the row
// of pts[i] into out[i] (len(out) must equal len(pts)). It is the batch
// shape of Eval — sweep.BatchFunc compatible. The first failing point
// fails the span.
//
// Each row comes from the kernel's verdict (core.Classify, which samples
// only when the grid's invariant policy needs the guard) and the
// closed-form criteria: linear_stable is the pure Routh–Hurwitz
// criterion of [4], theorem1_ok the paper's sufficient condition. The
// span's rows are encoded into one buffer (CSVRows) and share one
// string; the policy is parsed and the verdict counts are flushed once
// per span.
func (g GainGrid) EvalBatch(ctx context.Context, pts []GainPoint, out []Row, m EvalMetrics) error {
	if len(out) != len(pts) {
		return fmt.Errorf("cluster: eval batch: %d outputs for %d points", len(out), len(pts))
	}
	base, pol := g.Base(), g.Policy()
	var (
		enc CSVRows
		agg analytic.Tally
	)
	defer m.Analytic.Flush(&agg)
	enc.Grow(len(pts), rowBytes)
	for i, pt := range pts {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := base
		p.Gi = pt.Gi
		p.Gd = pt.Gd
		s, err := core.Classify(p, core.SolveOptions{
			Invariants: invariant.NewPolicy(pol),
			Telemetry:  m.Solve,
		})
		if err != nil {
			return err
		}
		agg.Fold(&s)
		first := s.Violations.FirstPredicate()
		enc.Lead(pt.Gi)
		enc.Float(pt.Gd)
		enc.Int(int(p.Case()))
		enc.Bool(linear.SubsystemStable(p, core.Increase) && linear.SubsystemStable(p, core.Decrease))
		enc.Bool(core.Theorem1Satisfied(p))
		enc.Float(core.Theorem1Bound(p))
		enc.Str(s.Outcome.String())
		enc.Bool(s.Outcome.StronglyStable())
		enc.Float(s.MaxQueue(p))
		enc.Float(s.Rho)
		enc.Uint(s.Violations.Total)
		enc.Str(first)
		enc.EndRow()
		out[i] = Row{Violations: s.Violations.Total, FirstPred: first}
	}
	enc.Seal()
	for i := range out {
		out[i].CSV = enc.Next()
	}
	return nil
}

// RenderCSV assembles the merged map.csv from rows in grid order.
func RenderCSV(rows []Row) []byte {
	n := len(CSVHeader) + 1
	for _, r := range rows {
		n += len(r.CSV) + 1
	}
	b := make([]byte, 0, n)
	b = append(b, CSVHeader...)
	b = append(b, '\n')
	for _, r := range rows {
		b = append(b, r.CSV...)
		b = append(b, '\n')
	}
	return b
}

func geomAt(lo, hi float64, i, n int) float64 {
	f := float64(i) / float64(n-1)
	return lo * math.Pow(hi/lo, f)
}
