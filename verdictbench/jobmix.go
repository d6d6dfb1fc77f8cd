package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/serve"
)

const (
	// mixClients is the closed-loop caller count (= nproc of the
	// reference host); each waits for its reply, as bcnd -post and the
	// coordinator do.
	mixClients = 2
	// mixServerWorkers is the job server's worker pool.
	mixServerWorkers = 2
	// mixSessionJobs is how many jobs each client has planned per
	// set-up; it bounds the server's in-memory artifact cache.
	mixSessionJobs = 1000
	// mixWarmupJobs is the per-client warm-up: fresh solve jobs that
	// open the keep-alive connection and warm the server.
	mixWarmupJobs = 16
	// sweepSampleStride: one row in this many of each sweep job reply is
	// checked against the reference solver; every row is checked for
	// its grid point and internal consistency.
	sweepSampleStride = 16
)

// jobExpect is the reference answer of one fresh job.
type jobExpect struct {
	tr    *core.Trajectory     // solve and classic jobs
	rows  []string             // sweep jobs: the "gi,gd," prefix of every row
	check map[int]core.Outcome // sweep jobs: sampled rows' reference outcomes
}

// expectJobs computes the reference answers of a plan's fresh jobs.
func expectJobs(plan []job) ([]jobExpect, error) {
	exp := make([]jobExpect, len(plan))
	type task struct{ job, row int }
	var tasks []task
	sweepParams := map[int][]core.Params{}
	for i, j := range plan {
		switch j.kind {
		case kindSolve, kindClassic:
			tasks = append(tasks, task{i, -1})
		case kindSweep:
			pts, params := gridParams(sweepGrid(j.sweep))
			sweepParams[i] = params
			exp[i].rows = make([]string, len(pts))
			for k, pt := range pts {
				exp[i].rows[k] = fmt.Sprintf("%g,%g,", pt.Gi, pt.Gd)
			}
			exp[i].check = map[int]core.Outcome{}
			for k := i % sweepSampleStride; k < len(pts); k += sweepSampleStride {
				tasks = append(tasks, task{i, k})
			}
		}
	}
	var mu sync.Mutex
	var firstErr error
	parallel(len(tasks), func(n int) {
		t := tasks[n]
		j := plan[t.job]
		p := j.params
		if t.row >= 0 {
			p = sweepParams[t.job][t.row]
		}
		tr, err := classicSolve(p)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err != nil:
			if firstErr == nil {
				firstErr = err
			}
		case t.row >= 0:
			exp[t.job].check[t.row] = tr.Outcome
		default:
			exp[t.job].tr = tr
		}
	})
	return exp, firstErr
}

// sweepGrid is the gain grid a sweep job spec enumerates (same axes and
// point order as the job server's sweep).
func sweepGrid(s *serve.SweepSpec) cluster.GainGrid {
	return cluster.GainGrid{BOverQ0: s.BOverQ0, GiLo: s.GiLo, GiHi: s.GiHi, GdLo: s.GdLo, GdHi: s.GdHi, Steps: s.Steps}
}

// checkReply verifies reply i of a plan against the reference. A hit
// must repeat the first reply for its spec byte for byte.
func checkReply(plan []job, replies []reply, exp []jobExpect, i int) error {
	j, r := plan[i], replies[i]
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if j.kind == kindHit {
		if !bytes.Equal(r.body, replies[j.orig].body) {
			return fmt.Errorf("cache hit body differs from the first reply for key %s", j.key)
		}
		return nil
	}
	var art serve.Artifact
	if err := json.Unmarshal(r.body, &art); err != nil {
		return fmt.Errorf("decode artifact: %w", err)
	}
	if art.Key != j.key {
		return fmt.Errorf("artifact key %s, want %s", art.Key, j.key)
	}
	if j.kind == kindSweep {
		return checkSweepJob(art.Sweep, exp[i])
	}
	return checkSolveJob(art.Solve, j, exp[i].tr)
}

// checkSolveJob compares a solve artifact with the reference verdict.
// Default-engine jobs must agree on the verdict columns; classic jobs
// run the reference solver itself and must agree on every column.
func checkSolveJob(s *serve.SolveResult, j job, tr *core.Trajectory) error {
	if s == nil {
		return fmt.Errorf("artifact has no solve result")
	}
	p := j.params
	type col struct {
		name      string
		got, want any
	}
	cols := []col{
		{"case", s.Case, p.Case().String()},
		{"outcome", s.Outcome, tr.Outcome.String()},
		{"strongly_stable", s.StronglyStable, tr.Outcome.StronglyStable()},
		{"linear_stable", s.LinearStable, linearStable(p)},
		{"theorem1_ok", s.Theorem1OK, core.Theorem1Satisfied(p)},
		{"theorem1_bound_bits", s.Theorem1Bound, core.Theorem1Bound(p)},
	}
	if j.kind == kindClassic {
		cols = append(cols,
			col{"max_queue_bits", s.MaxQueueBits, tr.MaxQueue()},
			col{"min_queue_bits", s.MinQueueBits, tr.MinQueue()},
			col{"rho", s.Rho, tr.Rho},
			col{"crossings", s.Crossings, len(tr.Crossings)},
			col{"violations", s.Violations, tr.Violations.Total})
	}
	for _, c := range cols {
		if c.got != c.want {
			return fmt.Errorf("%s = %v, reference %v", c.name, c.got, c.want)
		}
	}
	return nil
}

// outcomeByName maps an outcome's String back to the outcome.
var outcomeByName = func() map[string]core.Outcome {
	m := map[string]core.Outcome{}
	for o := core.OutcomeConverged; o <= core.OutcomeHorizon; o++ {
		m[o.String()] = o
	}
	return m
}()

// checkSweepJob checks every row's grid point, that its verdict column
// agrees with its outcome, and the sampled rows' outcomes against the
// reference solver.
func checkSweepJob(s *serve.SweepResult, e jobExpect) error {
	if s == nil {
		return fmt.Errorf("artifact has no sweep result")
	}
	if s.Points != len(e.rows) || s.Failed != 0 || len(s.Rows) != len(e.rows) {
		return fmt.Errorf("sweep has %d rows of %d points (%d failed), want %d", len(s.Rows), s.Points, s.Failed, len(e.rows))
	}
	for k, row := range s.Rows {
		f := strings.Split(row, ",")
		if len(f) != 7 || !strings.HasPrefix(row, e.rows[k]) {
			return fmt.Errorf("sweep row %d %q: want prefix %q and 7 columns", k, row, e.rows[k])
		}
		o, ok := outcomeByName[f[2]]
		if !ok || f[3] != strconv.FormatBool(o.StronglyStable()) || f[6] != "0" {
			return fmt.Errorf("sweep row %d %q is inconsistent", k, row)
		}
		if want, ok := e.check[k]; ok && o != want {
			return fmt.Errorf("sweep row %d outcome %q, reference %q", k, f[2], want)
		}
	}
	return nil
}

// jobMix is the job-mix workload: two closed-loop clients, each on one
// keep-alive loopback connection, against one serve.Server with two
// workers, sending the seeded mix of fresh solves, classic solves,
// cache hits and sweeps. Decode, key, cache and HTTP dominate here.
type jobMix struct {
	seed int64
}

// mixSession is one set-up's plans and references.
type mixSession struct {
	warm, plans [mixClients][]job
	warmExp     [mixClients][]jobExpect
	exp         [mixClients][]jobExpect
}

func newMixSession(seed int64, session int) (*mixSession, error) {
	r := stream(seed, fmt.Sprintf("job-mix/session-%d", session))
	ms := &mixSession{}
	for c := 0; c < mixClients; c++ {
		for k := 0; k < mixWarmupJobs; k++ {
			j, err := newJob(r, kindSolve)
			if err != nil {
				return nil, err
			}
			ms.warm[c] = append(ms.warm[c], j)
		}
		var err error
		if ms.plans[c], err = planJobs(r, mixSessionJobs); err != nil {
			return nil, err
		}
		if ms.warmExp[c], err = expectJobs(ms.warm[c]); err != nil {
			return nil, err
		}
		if ms.exp[c], err = expectJobs(ms.plans[c]); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

func (w *jobMix) run(ctx context.Context, budget time.Duration, tr *tracer) *outcome {
	o := newOutcome()
	sent := map[string]int{}
	var hits, resubmits, refused int
	var reqBytes, respBytes int64
	var conns int64
	sessions := 0
	for session := 0; o.window < budget; session++ {
		ms, err := newMixSession(w.seed, session)
		if err != nil {
			o.attempted++
			o.fail("plan session %d: %v", session, err)
			break
		}
		t0 := time.Now()
		var wrap func(http.Handler) http.Handler
		if tr != nil {
			wrap = func(h http.Handler) http.Handler { return &serverTap{tr: tr, name: "serve.Handler", h: h} }
		}
		js, err := startJobServer(serve.Config{Workers: mixServerWorkers}, wrap)
		if err != nil {
			o.attempted++
			o.fail("start job server: %v", err)
			break
		}
		clients := make([]*jobClient, mixClients)
		var warm [mixClients][]reply
		var wg sync.WaitGroup
		for c := range clients {
			clients[c] = newJobClient(js.url)
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, j := range ms.warm[c] {
					warm[c] = append(warm[c], clients[c].post(ctx, j.body, nil, 0))
				}
			}(c)
		}
		wg.Wait()
		setup := time.Since(t0)
		sessions++
		for _, c := range clients {
			c.reqBytes, c.respBytes = 0, 0
		}

		var replies [mixClients][]reply
		m := o.begin(setup)
		start := time.Now()
		deadline := start.Add(budget - o.window)
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, j := range ms.plans[c] {
					if !time.Now().Before(deadline) {
						return
					}
					op := tr.id()
					replies[c] = append(replies[c], clients[c].post(ctx, j.body, tr, op))
				}
			}(c)
		}
		wg.Wait()
		o.window += time.Since(start)
		steal := stealTicks()
		if err := keepAliveGuard(clients); err != nil && o.guard == nil {
			o.guard = err
		}
		for _, c := range clients {
			conns += c.conns.Load()
			reqBytes += c.reqBytes
			respBytes += c.respBytes
			c.close()
		}
		js.close()

		for c := range clients {
			for i := range warm[c] {
				if err := checkReply(ms.warm[c], warm[c], ms.warmExp[c], i); err != nil {
					o.attempted++
					o.fail("warm-up job %d of client %d: %v", i, c, err)
				}
			}
			for i, r := range replies[c] {
				j := ms.plans[c][i]
				o.attempted++
				o.observe(r.lat, false)
				sent[j.kind]++
				if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
					refused++
				}
				if j.kind == kindHit {
					resubmits++
					if r.cache == "hit" {
						hits++
					}
				}
				if err := checkReply(ms.plans[c], replies[c], ms.exp[c], i); err != nil {
					o.fail("%s job %d of client %d: %v", j.kind, i, c, err)
					continue
				}
				o.jobs++
				switch j.kind {
				case kindSolve, kindClassic:
					o.points++
				case kindSweep:
					o.points += sweepJobSteps * sweepJobSteps
				}
			}
		}
		o.end(m, steal)
	}
	total := float64(max(o.attempted, 1))
	shares := map[string]float64{}
	for _, k := range jobKinds {
		shares[k] = float64(sent[k]) / total
	}
	o.props["job_share"] = shares
	o.props["cache_hit_share"] = float64(hits) / total
	o.layer["serve.cache_hit_ratio"] = float64(hits) / float64(max(resubmits, 1))
	o.layer["serve.refused"] = float64(refused)
	o.layer["serve.request_bytes"] = float64(reqBytes) / total
	o.layer["serve.response_bytes"] = float64(respBytes) / total
	o.layer["http.conns_opened"] = float64(conns) / float64(max(sessions, 1))
	return o
}
