package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptrace"
	"reflect"
	"testing"

	"bcnphase/internal/cluster"
	"bcnphase/internal/serve"
)

// inputs draws every seeded input of one seed: the sweep-local pool,
// the first sweep-cluster session's grids and a job-mix plan.
func inputs(t *testing.T, seed int64) (grids []cluster.GainGrid, plan []job) {
	t.Helper()
	grids = append(newGrids(seed, "sweep-local/grids", localPoolGrids, gridSteps),
		newGrids(seed, "sweep-cluster/session-0", clusterSessionGrids+1, gridSteps)...)
	plan, err := planJobs(stream(seed, "job-mix/session-0"), 400)
	if err != nil {
		t.Fatal(err)
	}
	return grids, plan
}

func TestSameSeedSameInputs(t *testing.T) {
	g1, p1 := inputs(t, 7)
	g2, p2 := inputs(t, 7)
	if !reflect.DeepEqual(g1, g2) {
		t.Error("seed 7 drew different grids twice")
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Error("seed 7 drew different job plans twice")
	}
}

func TestSeedsShareNoKeys(t *testing.T) {
	seen := map[string]int64{}
	for _, seed := range []int64{1, 2} {
		grids, plan := inputs(t, seed)
		fresh := map[string]bool{}
		for _, g := range grids {
			fp, err := g.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if s, ok := seen[fp]; ok {
				t.Fatalf("grid fingerprint %s drawn by seeds %d and %d", fp, s, seed)
			}
			seen[fp] = seed
		}
		for _, j := range plan {
			if j.kind == kindHit {
				continue
			}
			if fresh[j.key] {
				t.Fatalf("seed %d: fresh job key %s drawn twice", seed, j.key)
			}
			fresh[j.key] = true
			if s, ok := seen[j.key]; ok && s != seed {
				t.Fatalf("job key %s drawn by seeds %d and %d", j.key, s, seed)
			}
			seen[j.key] = seed
		}
	}
}

func TestPlanShares(t *testing.T) {
	_, plan := inputs(t, 3)
	count := map[string]int{}
	for i, j := range plan {
		count[j.kind]++
		if j.kind == kindHit && (j.orig >= i || plan[j.orig].kind == kindHit || !bytes.Equal(j.body, plan[j.orig].body)) {
			t.Fatalf("hit %d resubmits job %d, which is not an earlier fresh job", i, j.orig)
		}
	}
	for kind, share := range mixShares {
		if count[kind] != len(plan)*share/100 {
			t.Errorf("%d %s jobs in a plan of %d, want %d%%", count[kind], kind, len(plan), share)
		}
	}
}

func TestVerifierRejectsCorruptRow(t *testing.T) {
	g := newGrids(5, "test/verifier", 1, 4)[0]
	ref, err := expectGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	csv, err := newLocalSweeper(0).render(context.Background(), g, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMap(csv, ref.csv); err != nil {
		t.Fatalf("the program's own map fails verification: %v", err)
	}
	// Flip one bit of each byte of the third data row in turn.
	lo := bytes.IndexByte(csv, '\n') + 1
	for row := 0; row < 2; row++ {
		lo += bytes.IndexByte(csv[lo:], '\n') + 1
	}
	hi := lo + bytes.IndexByte(csv[lo:], '\n')
	for i := lo; i < hi; i++ {
		bad := append([]byte(nil), csv...)
		bad[i] ^= 1
		if checkMap(bad, ref.csv) == nil {
			t.Fatalf("corrupting byte %d of row %q passed verification", i-lo, csv[lo:hi])
		}
	}
}

func TestVerifierRejectsCorruptHit(t *testing.T) {
	plan, err := planJobs(stream(9, "test/hits"), 40)
	if err != nil {
		t.Fatal(err)
	}
	hit := -1
	for i, j := range plan {
		if j.kind == kindHit {
			hit = i
			break
		}
	}
	if hit < 0 {
		t.Fatal("plan has no hit")
	}
	first := []byte(`{"key":"k","kind":"solve"}`)
	replies := make([]reply, len(plan))
	replies[plan[hit].orig] = reply{status: http.StatusOK, body: first}
	replies[hit] = reply{status: http.StatusOK, body: bytes.Clone(first)}
	if err := checkReply(plan, replies, nil, hit); err != nil {
		t.Fatalf("identical hit rejected: %v", err)
	}
	replies[hit].body[3] ^= 1
	if checkReply(plan, replies, nil, hit) == nil {
		t.Fatal("hit body differing in one byte passed verification")
	}
}

func TestKeepAliveGuard(t *testing.T) {
	js, err := startJobServer(serve.Config{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer js.close()
	plan, err := planJobs(stream(11, "test/guard"), 20)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	good := newJobClient(js.url)
	defer good.close()
	for _, j := range plan {
		if r := good.post(ctx, j.body, nil, 0); r.err != nil || r.status != http.StatusOK {
			t.Fatalf("post: %v (status %d)", r.err, r.status)
		}
	}
	if err := keepAliveGuard([]*jobClient{good}); err != nil {
		t.Fatalf("a client reading every body tripped the guard: %v", err)
	}

	// A client that closes each body unread loses its connection every
	// time, as a benchmark that never reads replies would.
	lazy := newJobClient(js.url)
	defer lazy.close()
	for _, j := range plan[:5] {
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, lazy.trace),
			http.MethodPost, js.url+"/v1/jobs", bytes.NewReader(j.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := lazy.client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if err := keepAliveGuard([]*jobClient{lazy}); err == nil {
		t.Fatalf("a client leaving bodies unread passed the guard (%d connections)", lazy.conns.Load())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "child", Start: 40, End: 70},
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120},
	}
	got := selfTimes(spans)
	if self := got["root"].SelfMs * 1e6; self != 100-60-10 {
		t.Errorf("root self time %v ns, want 30", self)
	}
	if got["child"].Spans != 3 {
		t.Errorf("child spans %d, want 3", got["child"].Spans)
	}
}
