package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"bcnphase/internal/cluster"
	"bcnphase/internal/serve"
)

const (
	// clusterWorkers in-process job servers with one job slot each.
	clusterWorkers = 3
	// clusterAudit is the share of shards re-executed on a second worker.
	clusterAudit = 0.25
	// clusterSessionGrids is how many grids one coordinator and worker
	// fleet serves; it bounds the workers' in-memory artifact caches.
	clusterSessionGrids = 24
	// captureReplies is how many shard replies a traced run keeps for
	// timing SignShardResult and VerifyShardResult.
	captureReplies = 32
)

// sweepCluster is the sweep-cluster workload: one cluster.Coordinator
// (defaults, no journal, audit fraction 0.25, one-second heartbeats as
// bcnd -coordinator sets them) over three loopback serve.Server workers
// with one job slot each, running one distinct 32×32 grid at a time.
// Dispatch, wire, digests and audit dominate; worker caches never
// answer because no grid repeats.
type sweepCluster struct {
	seed int64
}

func (w *sweepCluster) run(ctx context.Context, budget time.Duration, tr *tracer) *outcome {
	o := newOutcome()
	var sweeps, fresh, shardsDone, auditSampled, retries int
	var misses, busy int64
	var sweepTime time.Duration
	var captured [][]byte
	for session := 0; o.window < budget; session++ {
		grids := newGrids(w.seed, fmt.Sprintf("sweep-cluster/session-%d", session), clusterSessionGrids+1, gridSteps)
		// The reference for each grid is the sweep-local render of it.
		want := make([][sha256.Size]byte, len(grids))
		ls := newLocalSweeper(0)
		for i, g := range grids {
			csv, err := ls.render(ctx, g, nil, 0, 0)
			if err != nil {
				o.attempted++
				o.fail("reference render of grid %d: %v", i, err)
				return o
			}
			want[i] = sha256.Sum256(csv)
		}

		t0 := time.Now()
		var curOp, curParent atomic.Uint64
		var taps []*serverTap
		var workers []*jobServer
		var urls []string
		for k := 0; k < clusterWorkers; k++ {
			var wrap func(http.Handler) http.Handler
			if tr != nil {
				wrap = func(h http.Handler) http.Handler {
					t := &serverTap{tr: tr, name: "serve.worker.shard", h: h, curOp: &curOp, curParent: &curParent,
						capture: make(chan []byte, captureReplies)}
					taps = append(taps, t)
					return t
				}
			}
			js, err := startJobServer(serve.Config{Workers: 1}, wrap)
			if err != nil {
				o.attempted++
				o.fail("start worker: %v", err)
				break
			}
			workers = append(workers, js)
			urls = append(urls, js.url)
		}
		stop := func(coord *cluster.Coordinator) {
			if coord != nil {
				coord.Close()
			}
			for _, js := range workers {
				js.close()
			}
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		}
		if len(workers) < clusterWorkers {
			stop(nil)
			break
		}
		coord, err := cluster.New(cluster.Config{Workers: urls, AuditFraction: clusterAudit})
		if err != nil {
			o.attempted++
			o.fail("start coordinator: %v", err)
			stop(nil)
			break
		}
		out, err := coord.Run(ctx, grids[0])
		setup := time.Since(t0)
		if err == nil && sha256.Sum256(out.CSV) != want[0] {
			err = fmt.Errorf("merged map.csv differs from the sweep-local render")
		}
		if err != nil {
			o.attempted++
			o.fail("warm-up grid: %v", err)
		}

		m := coord.Metrics()
		done0, sampled0, retries0 := m.ShardsDone.Value(), m.AuditSampled.Value(), m.Retries.Value()
		for _, t := range taps {
			t.misses.Store(0)
			t.busy.Store(0)
		}
		mk := o.begin(setup)
		for i := 1; i < len(grids) && o.window < budget; i++ {
			op, root, s := tr.id(), tr.id(), tr.now()
			curOp.Store(op)
			curParent.Store(root)
			steal := stealTicks()
			t := time.Now()
			out, err := coord.Run(ctx, grids[i])
			lat := time.Since(t)
			o.observe(lat, stealTicks() > steal)
			tr.record(root, 0, op, "cluster.Coordinator.Run", s)
			o.window += lat
			o.attempted++
			if err == nil && sha256.Sum256(out.CSV) != want[i] {
				err = fmt.Errorf("merged map.csv differs from the sweep-local render")
			}
			if err != nil {
				o.fail("grid %d: %v", o.attempted, err)
				continue
			}
			o.points += out.Points
			o.jobs++
			sweeps++
			sweepTime += lat
			fresh += out.Fresh
		}
		o.end(mk, stealTicks())
		shardsDone += int(m.ShardsDone.Value() - done0)
		auditSampled += int(m.AuditSampled.Value() - sampled0)
		retries += int(m.Retries.Value() - retries0)
		for _, t := range taps {
			misses += t.misses.Load()
			busy += t.busy.Load()
			for len(t.capture) > 0 && len(captured) < captureReplies {
				captured = append(captured, <-t.capture)
			}
		}
		stop(coord)
	}
	n := float64(max(sweeps, 1))
	o.props["audited_shard_share"] = float64(auditSampled) / float64(max(shardsDone, 1))
	o.layer["cluster.shards_per_sweep"] = float64(shardsDone) / n
	o.layer["cluster.audited_shards_per_sweep"] = float64(auditSampled) / n
	o.layer["cluster.retries"] = float64(retries)
	if tr != nil {
		o.layer["cluster.sweep_ms"] = float64(sweepTime) / 1e6 / n
		computed := float64(misses) * cluster.DefaultShardSize
		o.layer["cluster.useful_ratio"] = float64(fresh) / max(computed, 1)
		o.layer["cluster.worker_shard_ms"] = float64(busy) / 1e6 / float64(max(misses, 1))
		o.layer["cluster.worker_busy_share"] = float64(busy) / (clusterWorkers * max(float64(sweepTime), 1))
		sign, verify, err := timeDigests(captured)
		if err != nil {
			o.fail("captured shard reply: %v", err)
		}
		o.layer["cluster.sign_us"] = sign
		o.layer["cluster.verify_us"] = verify
	}
	return o
}

// timeDigests times SignShardResult and VerifyShardResult on captured
// shard replies, in µs per call.
func timeDigests(replies [][]byte) (signUs, verifyUs float64, err error) {
	var results []cluster.ShardResult
	for _, raw := range replies {
		res, err := cluster.DecodeShardArtifact(raw, nil)
		if err != nil {
			return 0, 0, err
		}
		if err := cluster.VerifyShardResult(res); err != nil {
			return 0, 0, err
		}
		results = append(results, res)
	}
	if len(results) == 0 {
		return 0, 0, fmt.Errorf("no shard replies captured")
	}
	const rounds = 20
	t := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range results {
			c := results[i]
			cluster.SignShardResult(&c)
		}
	}
	signUs = float64(time.Since(t)) / 1e3 / float64(rounds*len(results))
	t = time.Now()
	for r := 0; r < rounds; r++ {
		for _, res := range results {
			if err := cluster.VerifyShardResult(res); err != nil {
				return 0, 0, err
			}
		}
	}
	verifyUs = float64(time.Since(t)) / 1e3 / float64(rounds*len(results))
	return signUs, verifyUs, nil
}
