package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"bcnphase/internal/analytic"
	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/serve"
)

// The ladder times calls into each layer's public functions from the
// benchmark's own code, on inputs from the same seeded fixture, in the
// same units everywhere (ns and allocs per point, µs per job), so that
// a layer's overhead is a subtraction. Every rung runs one goroutine.
const (
	ladderGrids         = 8    // sweep-local pool grids the kernel rungs use
	ladderKernelPasses  = 3    // passes over those grids per kernel rung
	ladderClassicPoints = 1500 // classic core.Solve points
	ladderArcEvals      = 1_000_000
	ladderSolveJobs     = 600 // per kind and rung; classic and sweep scaled below
)

// allocsSince returns the heap allocations made since m0 was read.
func allocsSince(m0 *runtime.MemStats) uint64 {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// ladderKernel times the kernel-side rungs: analytic.Batch.Solve, the
// classic core.Solve, one closed-form arc, sweep.RunBatched with one
// worker, GainGrid.EvalBatch and RenderCSV.
func ladderKernel(ctx context.Context, seed int64) (map[string]float64, error) {
	m := map[string]float64{}
	grids := newGrids(seed, "sweep-local/grids", ladderGrids, gridSteps)
	params := make([][]core.Params, len(grids))
	for i, g := range grids {
		_, params[i] = gridParams(g)
	}

	// analytic.Batch.Solve, warm, with its exact per-point counts.
	b := analytic.NewBatch(gridSteps * gridSteps)
	var arcs, crossings, rk45, points int
	for _, ps := range params {
		b.Solve(ps, analytic.Options{})
		for i := range ps {
			if b.Err[i] != nil {
				return nil, fmt.Errorf("analytic batch point %d: %w", i, b.Err[i])
			}
			arcs += b.Arcs[i]
			crossings += b.Crossings[i]
			if b.Path[i] == analytic.PathRK45 {
				rk45++
			}
		}
		points += len(ps)
	}
	m["analytic.arcs_per_point"] = float64(arcs) / float64(points)
	m["analytic.crossings_per_point"] = float64(crossings) / float64(points)
	m["analytic.rk45_share"] = float64(rk45) / float64(points)
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	for pass := 0; pass < ladderKernelPasses; pass++ {
		for _, ps := range params {
			b.Solve(ps, analytic.Options{})
		}
	}
	n := float64(ladderKernelPasses * points)
	m["analytic.ns_per_point"] = float64(time.Since(t)) / n
	m["analytic.allocs_per_point"] = float64(allocsSince(&m0)) / n

	// Classic core.Solve under the record policy, on job-mix classic
	// points.
	r := stream(seed, "ladder/classic")
	classic := make([]core.Params, ladderClassicPoints)
	for i := range classic {
		classic[i] = nearExample(r)
	}
	runtime.ReadMemStats(&m0)
	t = time.Now()
	for _, p := range classic {
		if _, err := classicSolve(p); err != nil {
			return nil, err
		}
	}
	m["core.solve_ns_per_point"] = float64(time.Since(t)) / float64(len(classic))
	m["core.solve_allocs_per_point"] = float64(allocsSince(&m0)) / float64(len(classic))

	// One closed-form arc (core.NewArc + Arc.At) at the Theorem 1
	// example's increase regime: the ladder floor.
	pe := core.PaperExample()
	lin := pe.RegionLinear(core.Increase)
	k := pe.K()
	a0, err := core.NewArc(lin.M, lin.N, k, -pe.Q0, 0)
	if err != nil {
		return nil, err
	}
	dt := a0.TimeScale() / 64
	var sink float64
	t = time.Now()
	for i := 0; i < ladderArcEvals; i++ {
		a, _ := core.NewArc(lin.M, lin.N, k, -pe.Q0, 0)
		x, y := a.At(float64(i&63) * dt)
		sink += x + y
	}
	m["core.arc_eval_ns"] = float64(time.Since(t)) / ladderArcEvals
	if math.IsNaN(sink) {
		return nil, fmt.Errorf("arc evaluation produced NaN")
	}

	// sweep.RunBatched with one worker, timing the EvalBatch spans
	// inside it, and RenderCSV.
	tr := newTracer()
	ls := newLocalSweeper(1)
	for pass := 0; pass < ladderKernelPasses; pass++ {
		for _, g := range grids {
			if _, err := ls.render(ctx, g, tr, tr.id(), 0); err != nil {
				return nil, err
			}
		}
	}
	var runNs, evalNs, renderNs float64
	for _, s := range tr.snapshot() {
		d := float64(s.End - s.Start)
		switch s.Name {
		case "sweep.RunBatched":
			runNs += d
		case "cluster.EvalBatch":
			evalNs += d
		case "cluster.RenderCSV":
			renderNs += d
		}
	}
	m["sweep.ns_per_point"] = (runNs + renderNs) / n
	m["sweep.overhead_ns_per_point"] = (runNs - evalNs) / n
	m["cluster.render_csv_ns_per_row"] = renderNs / n

	// GainGrid.EvalBatch on its own, over the same 64-point spans.
	rows := make([]cluster.Row, gridSteps*gridSteps)
	t = time.Now()
	for pass := 0; pass < ladderKernelPasses; pass++ {
		for _, g := range grids {
			pts := g.Points()
			for lo := 0; lo < len(pts); lo += localBatchSize {
				hi := min(lo+localBatchSize, len(pts))
				if err := g.EvalBatch(ctx, pts[lo:hi], rows[lo:hi], ls.em); err != nil {
					return nil, err
				}
			}
		}
	}
	m["cluster.evalbatch_ns_per_point"] = float64(time.Since(t)) / n
	m["cluster.row_format_ns_per_point"] = m["cluster.evalbatch_ns_per_point"] - m["analytic.ns_per_point"]
	// The sweep rung should equal its parts: the kernel, the row
	// formatting, the sweep's own overhead and the CSV render.
	m["ladder.sweep_residual_ns_per_point"] = m["sweep.ns_per_point"] - (m["analytic.ns_per_point"] +
		m["cluster.row_format_ns_per_point"] + m["sweep.overhead_ns_per_point"] + m["cluster.render_csv_ns_per_row"])
	return m, nil
}

// ladderJobs draws the serve rungs' fresh jobs: solves, classic solves
// and sweeps in the job-mix proportions.
func ladderJobs(seed int64, label string) (map[string][]job, error) {
	r := stream(seed, label)
	counts := map[string]int{kindSolve: ladderSolveJobs, kindClassic: ladderSolveJobs / 4, kindSweep: ladderSolveJobs / 20}
	jobs := map[string][]job{}
	for _, kind := range []string{kindSolve, kindClassic, kindSweep} {
		for i := 0; i < counts[kind]; i++ {
			j, err := newJob(r, kind)
			if err != nil {
				return nil, err
			}
			jobs[kind] = append(jobs[kind], j)
		}
	}
	return jobs, nil
}

// hitsOf lists every fresh job's body: resubmitting them is the hit rung.
func hitsOf(jobs map[string][]job) [][]byte {
	var bodies [][]byte
	for _, kind := range []string{kindSolve, kindClassic, kindSweep} {
		for _, j := range jobs[kind] {
			bodies = append(bodies, j.body)
		}
	}
	return bodies
}

// ladderServe times the serving rungs per job kind: DecodeSpec and
// Spec.Key, Server.Handler driven through httptest.NewRecorder (no
// socket), the same kinds over keep-alive loopback, and a bare net/http
// round trip carrying the same request and reply bytes (an echo
// handler). http.overhead_us is loopback minus handler; the residual is
// the part of it the echo round trip does not explain.
func ladderServe(ctx context.Context, seed int64) (map[string]float64, error) {
	m := map[string]float64{}
	jobs, err := ladderJobs(seed, "ladder/handler")
	if err != nil {
		return nil, err
	}
	bodies := hitsOf(jobs)
	t := time.Now()
	for _, b := range bodies {
		if _, err := serve.DecodeSpec(bytes.NewReader(b), 0); err != nil {
			return nil, err
		}
	}
	m["serve.decode_us"] = float64(time.Since(t)) / 1e3 / float64(len(bodies))
	specs := make([]serve.Spec, len(bodies))
	for i, b := range bodies {
		specs[i], _ = serve.DecodeSpec(bytes.NewReader(b), 0)
	}
	t = time.Now()
	for _, sp := range specs {
		if _, err := sp.Key(); err != nil {
			return nil, err
		}
	}
	m["serve.key_us"] = float64(time.Since(t)) / 1e3 / float64(len(specs))

	// Handler rung: no socket.
	srv, err := serve.New(serve.Config{Workers: mixServerWorkers})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	h := srv.Handler()
	handle := func(body []byte) (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t)
		if rec.Code != http.StatusOK {
			return d, fmt.Errorf("handler status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return d, nil
	}
	if err := timeKinds(m, "serve.handler_us.", jobs, handle); err != nil {
		return nil, err
	}

	// Loopback rung: the same kinds, fresh specs, one keep-alive client.
	jobs, err = ladderJobs(seed, "ladder/loopback")
	if err != nil {
		return nil, err
	}
	js, err := startJobServer(serve.Config{Workers: mixServerWorkers}, nil)
	if err != nil {
		return nil, err
	}
	defer js.close()
	c := newJobClient(js.url)
	defer c.close()
	post := func(c *jobClient, replies map[string][]byte) func(body []byte) (time.Duration, error) {
		return func(body []byte) (time.Duration, error) {
			r := c.post(ctx, body, nil, 0)
			if r.err == nil && r.status != http.StatusOK {
				r.err = fmt.Errorf("loopback status %d: %s", r.status, bytes.TrimSpace(r.body))
			}
			replies[string(body)] = r.body
			return r.lat, r.err
		}
	}
	served := map[string][]byte{}
	if err := timeKinds(m, "serve.loopback_us.", jobs, post(c, served)); err != nil {
		return nil, err
	}
	if err := keepAliveGuard([]*jobClient{c}); err != nil {
		return nil, err
	}

	// Echo rung: a bare handler answering each request with the reply
	// the job server gave it.
	echo := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(served[string(body)])
	}))
	defer echo.Close()
	ec := newJobClient(echo.URL)
	defer ec.close()
	echoed := map[string][]byte{}
	if err := timeKinds(m, "http.echo_us.", jobs, post(ec, echoed)); err != nil {
		return nil, err
	}
	for body, raw := range echoed {
		if !bytes.Equal(raw, served[body]) {
			return nil, fmt.Errorf("echo reply differs from the job server's")
		}
	}
	for _, kind := range jobKinds {
		overhead := m["serve.loopback_us."+kind] - m["serve.handler_us."+kind]
		m["http.overhead_us."+kind] = overhead
		m["ladder.http_residual_us."+kind] = overhead - m["http.echo_us."+kind]
	}
	return m, nil
}

// timeKinds sends every fresh job of each kind, then resubmits them all
// as the hit kind, and records the mean time per kind under prefix.
func timeKinds(m map[string]float64, prefix string, jobs map[string][]job, send func([]byte) (time.Duration, error)) error {
	mean := func(bodies [][]byte) (float64, error) {
		var total time.Duration
		for _, b := range bodies {
			d, err := send(b)
			if err != nil {
				return 0, err
			}
			total += d
		}
		return float64(total) / 1e3 / float64(len(bodies)), nil
	}
	for _, kind := range []string{kindSolve, kindClassic, kindSweep} {
		var bodies [][]byte
		for _, j := range jobs[kind] {
			bodies = append(bodies, j.body)
		}
		v, err := mean(bodies)
		if err != nil {
			return fmt.Errorf("%s%s: %w", prefix, kind, err)
		}
		m[prefix+kind] = v
	}
	v, err := mean(hitsOf(jobs))
	if err != nil {
		return fmt.Errorf("%s%s: %w", prefix, kindHit, err)
	}
	m[prefix+kindHit] = v
	return nil
}
