package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"bcnphase/internal/analytic"
	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/faults"
	"bcnphase/internal/invariant"
	"bcnphase/internal/linear"
	"bcnphase/internal/netsim"
	"bcnphase/internal/sweep"
)

// Artifact is the completed-job payload. Its JSON encoding is the
// served artifact and must be deterministic for a given spec — struct
// field order is fixed and no timestamps or host state appear — so a
// resubmitted job can be answered byte-identically from the journal.
type Artifact struct {
	Key        string               `json:"key"`
	Kind       string               `json:"kind"`
	Invariants string               `json:"invariants"`
	Solve      *SolveResult         `json:"solve,omitempty"`
	Sweep      *SweepResult         `json:"sweep,omitempty"`
	Netsim     *NetsimResult        `json:"netsim,omitempty"`
	Shard      *cluster.ShardResult `json:"shard,omitempty"`
}

// SolveResult summarizes one stitched trajectory.
type SolveResult struct {
	Case           string  `json:"case"`
	Outcome        string  `json:"outcome"`
	StronglyStable bool    `json:"strongly_stable"`
	LinearStable   bool    `json:"linear_stable"`
	Theorem1OK     bool    `json:"theorem1_ok"`
	Theorem1Bound  float64 `json:"theorem1_bound_bits"`
	MaxQueueBits   float64 `json:"max_queue_bits"`
	MinQueueBits   float64 `json:"min_queue_bits"`
	Rho            float64 `json:"rho"`
	Crossings      int     `json:"crossings"`
	Violations     uint64  `json:"violations"`
	FirstViolation string  `json:"first_violation,omitempty"`
}

// SweepResult carries the gain-plane map as rendered CSV rows plus the
// aggregate tallies.
type SweepResult struct {
	Header     string   `json:"header"`
	Rows       []string `json:"rows"`
	Points     int      `json:"points"`
	Failed     int      `json:"failed"`
	Violations uint64   `json:"violations"`
}

// NetsimResult summarizes one packet-level run.
type NetsimResult struct {
	Events         uint64       `json:"events"`
	SimSeconds     float64      `json:"sim_seconds"`
	Throughput     float64      `json:"throughput_bps"`
	Utilization    float64      `json:"utilization"`
	MaxQueueBits   float64      `json:"max_queue_bits"`
	MinQueueAfter  float64      `json:"min_queue_after_fill_bits"`
	DroppedFrames  uint64       `json:"dropped_frames"`
	PausesSent     uint64       `json:"pauses_sent"`
	JainIndex      float64      `json:"jain_index"`
	MalformedMsgs  uint64       `json:"malformed_msgs"`
	Faults         faults.Stats `json:"faults"`
	Violations     uint64       `json:"violations"`
	FirstViolation string       `json:"first_violation,omitempty"`
}

// execHook, when set, observes every job just as it starts executing
// on a worker goroutine; the chaos tests use it to inject panics and
// stalls into otherwise-healthy jobs. It runs inside sweep.One's
// supervision, so whatever it does stays contained. Atomic because an
// abandoned (deadline-exceeded) job goroutine may still be starting
// while a test swaps the hook.
var execHook atomic.Pointer[func(Spec)]

// execute runs one validated spec to its artifact bytes under the
// job's context deadline. Supervision (panic recovery, abandonment of a
// hung evaluation) comes from sweep.One, so execute can be handed any
// parameter set that passed validation without risking the caller's
// goroutine. A strict invariant abort surfaces as an
// *invariant.InvariantError for the breaker to classify.
func (s *Server) execute(ctx context.Context, sp Spec, key string) ([]byte, error) {
	pol, err := invariant.ParsePolicy(sp.Invariants)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if sp.Invariants == "" {
		pol = s.cfg.Invariants
	}
	if sp.Kind == KindShard {
		// A shard's policy travels inside the grid (it is part of the grid
		// fingerprint), so every worker in a cluster evaluates rows the
		// same way regardless of its local server defaults.
		pol = sp.Shard.Grid.Policy()
	}
	art, err := sweep.One(ctx, sp, func(ctx context.Context, sp Spec) (*Artifact, error) {
		if h := execHook.Load(); h != nil {
			(*h)(sp)
		}
		art := &Artifact{Key: key, Kind: sp.Kind, Invariants: pol.String()}
		switch sp.Kind {
		case KindSolve:
			res, err := runSolve(sp.Solve, pol, s.jobm)
			if err != nil {
				return nil, err
			}
			art.Solve = res
		case KindSweep:
			res, err := runSweep(ctx, sp.Sweep, pol, s.jobm)
			if err != nil {
				return nil, err
			}
			art.Sweep = res
		case KindNetsim:
			res, err := runNetsim(ctx, sp.Netsim, pol, s.jobm)
			if err != nil {
				return nil, err
			}
			art.Netsim = res
		case KindShard:
			res, err := runShard(ctx, sp.Shard, s.jobm)
			if err != nil {
				return nil, err
			}
			art.Shard = res
		default:
			return nil, fmt.Errorf("%w: unknown kind %q", ErrSpec, sp.Kind)
		}
		return art, nil
	}, sweep.Options{PointTimeout: sp.Timeout(s.cfg.DefaultTimeout, s.cfg.MaxTimeout)})
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(art)
	if err != nil {
		return nil, fmt.Errorf("serve: encode artifact: %w", err)
	}
	return raw, nil
}

// runSolve answers a solve job from the kernel's verdict. Under a
// strict policy invalid physics surfaces as the checker's structured
// abort (the breaker's signal), not as a plain validation error.
func runSolve(s *SolveSpec, pol invariant.Policy, jm jobMetrics) (*SolveResult, error) {
	sum, err := core.Classify(s.Params, core.SolveOptions{
		Start:      s.Start,
		MaxArcs:    s.MaxArcs,
		Invariants: invariant.NewPolicy(pol),
		Telemetry:  jm.solve,
	})
	if err != nil {
		return nil, err
	}
	jm.analytic.Observe(&sum)
	res := &SolveResult{
		Case:           s.Params.Case().String(),
		Outcome:        sum.Outcome.String(),
		StronglyStable: sum.Outcome.StronglyStable(),
		MaxQueueBits:   sum.MaxQueue(s.Params),
		MinQueueBits:   sum.MinQueue(s.Params),
		Rho:            sum.Rho,
		Crossings:      sum.Crossings,
		Violations:     sum.Violations.Total,
		FirstViolation: sum.Violations.FirstPredicate(),
	}
	// The linear/Theorem-1 verdicts only exist for valid parameters; a
	// record/clamp run over broken physics reports them zero-valued.
	if s.Params.Validate() == nil {
		res.LinearStable = linear.SubsystemStable(s.Params, core.Increase) && linear.SubsystemStable(s.Params, core.Decrease)
		res.Theorem1OK = core.Theorem1Satisfied(s.Params)
		res.Theorem1Bound = core.Theorem1Bound(s.Params)
	}
	return res, nil
}

// sweepRow is one row of a sweep job's map; err carries the point's own
// failure so one bad point does not fail its whole span.
type sweepRow struct {
	CSV        string
	Violations uint64
	err        error
}

func runSweep(ctx context.Context, s *SweepSpec, pol invariant.Policy, jm jobMetrics) (*SweepResult, error) {
	grid := cluster.GainGrid{BOverQ0: s.BOverQ0, GiLo: s.GiLo, GiHi: s.GiHi, GdLo: s.GdLo, GdHi: s.GdHi, Steps: s.Steps}
	base, points := grid.Base(), grid.Points()
	// The job already occupies one worker slot; a modest inner pool
	// keeps a single sweep job from monopolizing the host while the
	// service runs other work. Points run in batched spans (one
	// supervision round per span); a span fails as a whole only when the
	// job is cancelled.
	inner := sweep.Options{Workers: 2, ContinueOnError: true, Metrics: jm.sweep}
	results, _ := sweep.RunBatched(ctx, points, execBatchSize,
		func(ctx context.Context, pts []cluster.GainPoint, out []sweepRow) error {
			return evalSweepSpan(ctx, base, pts, out, pol, jm)
		}, inner)
	res := &SweepResult{
		Header: "gi,gd,outcome,strongly_stable,max_q_bits,rho,violations",
		Points: len(points),
	}
	for _, r := range results {
		err := r.Err
		if err == nil {
			err = r.Value.err
		}
		if err != nil {
			// A strict abort anywhere in the grid is the job's verdict:
			// the region is quarantinable, and a partial map under strict
			// policy would be misleading.
			if _, ok := invariant.StrictAbort(err); ok {
				return nil, err
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res.Failed++
			continue
		}
		res.Rows = append(res.Rows, r.Value.CSV)
		res.Violations += r.Value.Violations
	}
	return res, nil
}

// evalSweepSpan classifies a span of sweep points into their map rows,
// encoded like the cluster rows (cluster.CSVRows: one buffer and one
// string per span, verdict counts flushed once). A failing point keeps
// its error in its row and writes no text.
func evalSweepSpan(ctx context.Context, base core.Params, pts []cluster.GainPoint, out []sweepRow, pol invariant.Policy, jm jobMetrics) error {
	var (
		enc cluster.CSVRows
		agg analytic.Tally
	)
	defer jm.analytic.Flush(&agg)
	enc.Grow(len(pts), sweepRowBytes)
	for i, pt := range pts {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := base
		p.Gi, p.Gd = pt.Gi, pt.Gd
		s, err := core.Classify(p, core.SolveOptions{
			Invariants: invariant.NewPolicy(pol),
			Telemetry:  jm.solve,
		})
		if err != nil {
			out[i] = sweepRow{err: err}
			enc.EndRow()
			continue
		}
		agg.Fold(&s)
		enc.Lead(pt.Gi)
		enc.Float(pt.Gd)
		enc.Str(s.Outcome.String())
		enc.Bool(s.Outcome.StronglyStable())
		enc.Float(s.MaxQueue(p))
		enc.Float(s.Rho)
		enc.Uint(s.Violations.Total)
		enc.EndRow()
		out[i] = sweepRow{Violations: s.Violations.Total}
	}
	enc.Seal()
	for i := range out {
		if row := enc.Next(); out[i].err == nil {
			out[i].CSV = row
		}
	}
	return nil
}

// sweepRowBytes is a generous estimate of one sweep-job row's length,
// used to presize span buffers.
const sweepRowBytes = 80

// execBatchSize is the span length batched evaluations hand one worker
// slot at a time: long enough to amortize the span's supervision cost,
// short enough that cancellation and work spread stay responsive.
const execBatchSize = 64

// runShard evaluates one cluster sweep shard through the shared
// canonical row evaluator (cluster.GainGrid.EvalBatch) — the same code
// path cmd/bcnsweep runs locally, which is what lets the coordinator
// promise a byte-identical merged map. Points run in batched spans.
// Every point must produce a row: a shard with holes is worthless to the
// merge, so the first error (including a strict invariant abort, which feeds the
// worker's own region breaker) fails the whole job and the coordinator
// re-assigns it.
func runShard(ctx context.Context, s *cluster.ShardSpec, jm jobMetrics) (*cluster.ShardResult, error) {
	em := cluster.EvalMetrics{Solve: jm.solve, Analytic: jm.analytic}
	results, _ := sweep.RunBatched(ctx, s.Points(), execBatchSize,
		func(ctx context.Context, pts []cluster.GainPoint, out []cluster.Row) error {
			return s.Grid.EvalBatch(ctx, pts, out, em)
		}, sweep.Options{Workers: 2, ContinueOnError: true, Metrics: jm.sweep})
	res := &cluster.ShardResult{Index: s.Index, Rows: make([]cluster.Row, len(results))}
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		res.Rows[i] = r.Value
	}
	// Sign the result where it was computed: the per-row checksums and
	// shard digest let the coordinator reject anything corrupted between
	// this goroutine and its merge.
	cluster.SignShardResult(res)
	return res, nil
}

func runNetsim(ctx context.Context, s *NetsimSpec, pol invariant.Policy, jm jobMetrics) (*NetsimResult, error) {
	cfg := s.config(pol)
	cfg.Metrics = jm.netsim
	net, err := netsim.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := net.RunContext(ctx, s.DurationSec)
	if err != nil {
		return nil, err
	}
	return &NetsimResult{
		Events:         res.Events,
		SimSeconds:     res.SimSeconds,
		Throughput:     res.Throughput,
		Utilization:    res.Utilization,
		MaxQueueBits:   res.MaxQueueBits,
		MinQueueAfter:  res.MinQueueAfterFill,
		DroppedFrames:  res.DroppedFrames,
		PausesSent:     res.PausesSent,
		JainIndex:      res.JainIndex,
		MalformedMsgs:  res.MalformedMsgs,
		Faults:         res.Faults,
		Violations:     res.Invariants.Total,
		FirstViolation: res.Invariants.FirstPredicate(),
	}, nil
}
