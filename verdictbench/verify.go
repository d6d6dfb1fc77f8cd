package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"bcnphase/internal/analytic"
	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
	"bcnphase/internal/linear"
)

// rowFormat is the pinned map.csv row layout (the columns of
// cluster.CSVHeader). The benchmark renders its expected rows itself so
// that every byte of every row the program emits is checked.
const rowFormat = "%g,%g,%d,%v,%v,%g,%s,%v,%g,%g,%d,%s"

// classicSolve is the reference verdict: the classic sampled core.Solve
// under the record invariant policy.
func classicSolve(p core.Params) (*core.Trajectory, error) {
	return core.Solve(p, core.SolveOptions{Invariants: invariant.NewPolicy(invariant.Record)})
}

func linearStable(p core.Params) bool {
	return linear.SubsystemStable(p, core.Increase) && linear.SubsystemStable(p, core.Decrease)
}

// parallel runs fn(0..n-1) on GOMAXPROCS goroutines and waits for them.
func parallel(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= n {
					return
				}
				fn(k)
			}
		}()
	}
	wg.Wait()
}

// gridProps is the workload property report of a set of grid points:
// how many points fall in each of the paper's cases and outcomes, and
// how many arcs, crossings and RK45 fallbacks the kernel needed.
type gridProps struct {
	Points    int            `json:"points"`
	Cases     map[string]int `json:"cases"`
	Outcomes  map[string]int `json:"outcomes"`
	Arcs      int            `json:"arcs"`
	Crossings int            `json:"crossings"`
	RK45      int            `json:"rk45"`
}

func (g *gridProps) add(o gridProps) {
	if g.Cases == nil {
		g.Cases, g.Outcomes = map[string]int{}, map[string]int{}
	}
	g.Points += o.Points
	g.Arcs += o.Arcs
	g.Crossings += o.Crossings
	g.RK45 += o.RK45
	for k, v := range o.Cases {
		g.Cases[k] += v
	}
	for k, v := range o.Outcomes {
		g.Outcomes[k] += v
	}
}

// gridRef is a grid with its independently built expected map.csv.
type gridRef struct {
	grid  cluster.GainGrid
	csv   []byte
	props gridProps
}

// expectGrid builds the expected map.csv of g. The verdict columns come
// from the reference solver (classicSolve) and the closed-form criteria
// (Theorem 1, Routh–Hurwitz); the exact extremum and ρ columns come from
// the kernel's batch API, analytic.Batch. A row matches only if the
// program's verdict equals the reference verdict.
func expectGrid(g cluster.GainGrid) (gridRef, error) {
	pts, params := gridParams(g)
	b := analytic.NewBatch(len(params))
	b.Solve(params, analytic.Options{})
	rows := make([]string, len(params))
	errs := make([]error, len(params))
	props := gridProps{Points: len(params), Cases: map[string]int{}, Outcomes: map[string]int{}}
	parallel(len(params), func(i int) {
		p := params[i]
		tr, err := classicSolve(p)
		if err != nil {
			errs[i] = err
			return
		}
		if b.Err[i] != nil {
			errs[i] = b.Err[i]
			return
		}
		rows[i] = fmt.Sprintf(rowFormat, pts[i].Gi, pts[i].Gd, int(p.Case()), linearStable(p),
			core.Theorem1Satisfied(p), core.Theorem1Bound(p), tr.Outcome, tr.Outcome.StronglyStable(),
			p.Q0+b.MaxX[i], b.Rho[i], 0, "")
	})
	for i, p := range params {
		if errs[i] != nil {
			return gridRef{}, fmt.Errorf("reference for point %d of grid: %w", i, errs[i])
		}
		props.Cases[p.Case().String()]++
		props.Outcomes[b.Outcome[i].String()]++
		props.Arcs += b.Arcs[i]
		props.Crossings += b.Crossings[i]
		if b.Path[i] == analytic.PathRK45 {
			props.RK45++
		}
	}
	var csv strings.Builder
	csv.WriteString(cluster.CSVHeader + "\n")
	for _, r := range rows {
		csv.WriteString(r + "\n")
	}
	return gridRef{grid: g, csv: []byte(csv.String()), props: props}, nil
}

// expectGrids builds the references of several grids.
func expectGrids(grids []cluster.GainGrid) ([]gridRef, error) {
	refs := make([]gridRef, len(grids))
	for i, g := range grids {
		var err error
		if refs[i], err = expectGrid(g); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// checkMap compares a rendered map.csv with the expected one and names
// the first differing line.
func checkMap(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	gl := strings.Split(string(got), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Errorf("map.csv line %d: got %q, want %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Errorf("map.csv has %d lines, want %d", len(gl), len(wl))
}
