package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/serve"
)

// Every input is drawn from the paper-scale family GainGrid.Base()
// builds (the figure example with B = BOverQ0·q0). The buffer multiple
// comes from bOverQ0s and every gain bound is jittered by up to a
// sixteenth of an octave, so different seeds never share a grid
// fingerprint or a job key, and so no cache can answer across seeds,
// while the cost of a grid hardly depends on the seed. No engine field is ever
// set: every job and grid takes the program's default engine, and the
// classic sampled solver is reached only through the record invariant
// policy.
var bOverQ0s = [...]float64{2, 3, 5, 8}

// The bcnsweep default gain axes the grids jitter around.
const (
	giLo, giHi = 0.05, 12.8
	gdLo, gdHi = 1.0 / 1024, 0.5
)

// stream returns the deterministic random stream for one purpose of one
// seed: the purpose label is hashed into the seed, so streams never
// overlap and adding a stream does not shift the others.
func stream(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	x := uint64(seed) ^ h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x >> 1)))
}

func jitter(r *rand.Rand, v float64) float64 { return v * math.Exp2((r.Float64()-0.5)/8) }

func drawBOverQ0(r *rand.Rand) float64 { return bOverQ0s[r.Intn(len(bOverQ0s))] }

// newGrid draws one steps×steps gain grid with the given buffer
// multiple.
func newGrid(r *rand.Rand, bOverQ0 float64, steps int) cluster.GainGrid {
	return cluster.GainGrid{
		BOverQ0: bOverQ0,
		GiLo:    jitter(r, giLo), GiHi: jitter(r, giHi),
		GdLo: jitter(r, gdLo), GdHi: jitter(r, gdHi),
		Steps: steps,
	}
}

// newGrids draws n grids from the named stream. The buffer multiples
// take turns, so every run sees each of them equally often and the
// seed only moves the gain bounds.
func newGrids(seed int64, label string, n, steps int) []cluster.GainGrid {
	r := stream(seed, label)
	grids := make([]cluster.GainGrid, n)
	for i := range grids {
		grids[i] = newGrid(r, bOverQ0s[i%len(bOverQ0s)], steps)
	}
	return grids
}

// gridParams returns the parameter set of every grid point, in grid
// order.
func gridParams(g cluster.GainGrid) ([]cluster.GainPoint, []core.Params) {
	pts := g.Points()
	base := g.Base()
	params := make([]core.Params, len(pts))
	for i, pt := range pts {
		p := base
		p.Gi, p.Gd = pt.Gi, pt.Gd
		params[i] = p
	}
	return pts, params
}

// nearExample draws a parameter set near the Theorem 1 example: the
// figure example's gains scaled by up to a factor of four either way.
func nearExample(r *rand.Rand) core.Params {
	p := cluster.GainGrid{BOverQ0: drawBOverQ0(r)}.Base()
	p.Gi *= math.Exp2(4*r.Float64() - 2)
	p.Gd *= math.Exp2(4*r.Float64() - 2)
	return p
}

// Job kinds of the job-mix workload.
const (
	kindSolve   = "solve"   // fresh default-engine solve job
	kindClassic = "classic" // fresh solve job under invariants "record"
	kindHit     = "hit"     // resubmit of an earlier spec of the same client
	kindSweep   = "sweep"   // fresh 16×16 sweep job
)

var jobKinds = [...]string{kindSolve, kindClassic, kindHit, kindSweep}

// sweepJobSteps is the per-axis resolution of job-mix sweep jobs.
const sweepJobSteps = 16

// job is one planned request of a job-mix client.
type job struct {
	kind   string
	body   []byte
	key    string
	params core.Params      // solve and classic jobs
	sweep  *serve.SweepSpec // sweep jobs
	orig   int              // hit jobs: index of the resubmitted job in the plan
}

// mixShares is each kind's share of a plan, in percent: 55% fresh
// solves, 15% classic solves, 25% cache hits, 5% sweeps.
var mixShares = map[string]int{kindSolve: 55, kindClassic: 15, kindHit: 25, kindSweep: 5}

// planJobs draws n jobs for one client: the kinds in their exact shares,
// in seeded order. A hit resubmits an earlier fresh job of the same
// plan, whose reply the client has already read, so the server's cache
// holds the artifact.
func planJobs(r *rand.Rand, n int) ([]job, error) {
	var deck []string
	for _, kind := range jobKinds {
		for i := 0; i < n*mixShares[kind]/100; i++ {
			deck = append(deck, kind)
		}
	}
	r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	for k, kind := range deck {
		if kind != kindHit {
			deck[0], deck[k] = deck[k], deck[0]
			break
		}
	}
	jobs := make([]job, 0, len(deck))
	var fresh []int
	for _, kind := range deck {
		if kind == kindHit {
			o := fresh[r.Intn(len(fresh))]
			jobs = append(jobs, job{kind: kindHit, body: jobs[o].body, key: jobs[o].key, orig: o})
			continue
		}
		j, err := newJob(r, kind)
		if err != nil {
			return nil, err
		}
		fresh = append(fresh, len(jobs))
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// newJob draws one fresh job of the given kind with its spec body and
// dedup key.
func newJob(r *rand.Rand, kind string) (job, error) {
	j := job{kind: kind}
	var sp serve.Spec
	switch kind {
	case kindSolve, kindClassic:
		j.params = nearExample(r)
		sp = serve.Spec{Kind: serve.KindSolve, Solve: &serve.SolveSpec{Params: j.params}}
		if kind == kindClassic {
			sp.Invariants = "record"
		}
	case kindSweep:
		g := newGrid(r, drawBOverQ0(r), sweepJobSteps)
		j.sweep = &serve.SweepSpec{BOverQ0: g.BOverQ0, GiLo: g.GiLo, GiHi: g.GiHi, GdLo: g.GdLo, GdHi: g.GdHi, Steps: g.Steps}
		sp = serve.Spec{Kind: serve.KindSweep, Sweep: j.sweep}
	default:
		return job{}, fmt.Errorf("no fresh job of kind %q", kind)
	}
	body, err := json.Marshal(sp)
	if err != nil {
		return job{}, err
	}
	if j.key, err = sp.Key(); err != nil {
		return job{}, err
	}
	j.body = body
	return j, nil
}
