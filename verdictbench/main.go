// Command verdictbench is the repository's benchmark of the
// stability-verdict pipeline: Theorem 1 and phase-plane verdicts for
// one (Gi, Gd) point or a map over a gain grid, asked for through a
// local sweep, bcnd jobs or a sharded cluster.
//
// Three workloads each load a different layer and verify every output
// they get (see README.md):
//
//	sweep-local    the solve kernel (analytic/core), via bcnsweep's path
//	job-mix        the job service (serve + net/http over loopback)
//	sweep-cluster  the shard coordinator (cluster) over three workers
//
// A run with -trace 0 measures the end-to-end metrics with tracing off.
// A run with -trace 1 times calls into each layer's public functions
// from this package (the ladder), records spans around them, and
// reports the per-layer metrics and the tracing overhead.
//
// Usage:
//
//	verdictbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	verdictbench -compare <old result.json> <new result.json>
//
// The last line of standard output is the result object; the line
// before it is the full report, also written to
// .bench_build/results/<workload>-seed<n>-trace<t>.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloadRunner runs one workload for a time budget, tracing when tr
// is non-nil.
type workloadRunner interface {
	run(ctx context.Context, budget time.Duration, tr *tracer) *outcome
}

var workloadNames = []string{"sweep-local", "job-mix", "sweep-cluster"}

func newWorkload(name string, seed int64) (workloadRunner, error) {
	switch name {
	case "sweep-local":
		return newSweepLocal(seed)
	case "job-mix":
		return &jobMix{seed: seed}, nil
	case "sweep-cluster":
		return &sweepCluster{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run knows about itself.
type report struct {
	Host      host                 `json:"host"`
	Run       runIdentity          `json:"run"`
	Result    result               `json:"result"`
	Failures  []string             `json:"failures,omitempty"`
	Guard     string               `json:"keep_alive_guard"`
	Props     map[string]any       `json:"properties"`
	SelfTimes map[string]layerTime `json:"self_times,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verdictbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: sweep-local, job-mix or sweep-cluster")
		seed     = fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds  = fs.Float64("seconds", 10, "measured seconds")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run with per-layer metrics")
		compare  = fs.Bool("compare", false, "compare two result files given as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareReports(fs.Args(), stdout, stderr)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "verdictbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*workload, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "verdictbench:", err)
		return 2
	}
	ctx := context.Background()
	budget := time.Duration(*seconds * float64(time.Second))
	rep := report{Host: hostInfo(), Run: runInfo(*workload, *seed, *seconds, *trace), Props: map[string]any{}}
	var o *outcome
	if *trace == 0 {
		o = w.run(ctx, budget, nil)
		var values map[string]float64
		values, rep.Props["latency"] = endToEnd(o)
		rep.Result.Metrics, err = pick(values, false)
	} else {
		o, err = tracedRun(ctx, *workload, *seed, w, budget, &rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "verdictbench:", err)
		return 1
	}
	rep.Result.Attempted = max(o.attempted, 1)
	rep.Result.Failed = o.failed
	rep.Result.Correct = o.failed == 0 && o.attempted > 0 && o.guard == nil
	rep.Failures = o.failures
	rep.Guard = "ok"
	if o.guard != nil {
		rep.Guard = o.guard.Error()
	}
	for k, v := range o.props {
		rep.Props[k] = v
	}
	for k, m := range rep.Result.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "verdictbench: metric %s is %v\n", k, m.Value)
			rep.Result.Correct = false
			m.Value = 0
			rep.Result.Metrics[k] = m
		}
	}

	raw, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "verdictbench:", err)
		return 1
	}
	path := filepath.Join(".bench_build", "results", fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *trace))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		err = os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "verdictbench: write report:", err)
	}
	fmt.Fprintln(stdout, string(raw))
	last, _ := json.Marshal(rep.Result)
	fmt.Fprintln(stdout, string(last))
	for _, f := range o.failures {
		fmt.Fprintln(stderr, "verdictbench: failed:", f)
	}
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

// pick returns the measured values of the metrics BENCHMARK.json (in
// the working directory, the checkout root) lists as end-to-end or, for
// a traced run, per-layer, with their units. It fails if one was not
// measured.
func pick(values map[string]float64, traced bool) (map[string]metric, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	type listed struct{ Name, Unit string }
	var spec struct {
		EndToEnd []listed `json:"end_to_end"`
		PerLayer []listed `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	out := map[string]metric{}
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s listed in BENCHMARK.json was not measured", m.Name)
		}
		out[m.Name] = metric{v, m.Unit}
	}
	return out, nil
}

// tracedRun produces the per-layer metrics: the ladder rungs, then the
// workload once untraced and once traced for the tracing overhead and
// the layers' self times, then short traced runs of the other
// network workloads for their layers' counts.
func tracedRun(ctx context.Context, name string, seed int64, w workloadRunner, budget time.Duration, rep *report) (*outcome, error) {
	total := newOutcome()
	layer := map[string]float64{}
	kernel, err := ladderKernel(ctx, seed)
	if err != nil {
		return nil, fmt.Errorf("kernel ladder: %w", err)
	}
	served, err := ladderServe(ctx, seed)
	if err != nil {
		return nil, fmt.Errorf("serve ladder: %w", err)
	}
	for _, m := range []map[string]float64{kernel, served} {
		for k, v := range m {
			layer[k] = v
		}
	}

	own := budget * 3 / 10
	plain := w.run(ctx, own, nil)
	tr := newTracer()
	traced := w.run(ctx, own, tr)
	spans := tr.snapshot()
	rep.SelfTimes = selfTimes(spans)
	rate := func(o *outcome) float64 { return float64(o.jobs) / max(o.window.Seconds(), 1e-9) }
	layer["trace.overhead_pct"] = 100 * (rate(plain) - rate(traced)) / max(rate(plain), 1e-9)
	layer["trace.spans"] = float64(len(spans))
	if err := writeTrace(filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", name, seed)), spans); err != nil {
		return nil, err
	}
	runs := []*outcome{plain, traced}
	for _, other := range []string{"job-mix", "sweep-cluster"} {
		if other == name {
			continue
		}
		ow, err := newWorkload(other, seed)
		if err != nil {
			return nil, err
		}
		o := ow.run(ctx, budget*15/100, newTracer())
		runs = append(runs, o)
		for k, v := range o.layer {
			layer[k] = v
		}
	}
	for k, v := range traced.layer {
		layer[k] = v
	}
	for _, o := range runs {
		total.attempted += o.attempted
		total.failed += o.failed
		total.failures = append(total.failures, o.failures...)
		if total.guard == nil {
			total.guard = o.guard
		}
	}
	total.props = traced.props
	layer["failed_ratio"] = float64(total.failed) / float64(max(total.attempted, 1))
	rep.Result.Metrics, err = pick(layer, true)
	return total, err
}
