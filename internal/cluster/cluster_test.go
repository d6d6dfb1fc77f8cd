package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcnphase/internal/telemetry"
)

func testGrid(steps int) GainGrid {
	return GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 1, GdLo: 0.001, GdHi: 0.1, Steps: steps}
}

// memJournal is an in-memory Journal that enforces the coordinator's
// zero-duplicate contract: a second Record for the same key is an
// error, so any double-write surfaces as a fatal sweep failure in the
// test instead of silently overwriting.
type memJournal struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemJournal() *memJournal { return &memJournal{m: map[string][]byte{}} }

func (j *memJournal) Lookup(key string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	v, ok := j.m[key]
	return v, ok
}

func (j *memJournal) Record(key string, val []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.m[key]; ok {
		return fmt.Errorf("duplicate journal record for %s", key)
	}
	j.m[key] = append([]byte(nil), val...)
	return nil
}

func (j *memJournal) Keys() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]string, 0, len(j.m))
	for k := range j.m {
		out = append(out, k)
	}
	return out
}

// put pre-seeds a record without the duplicate check (test setup only).
func (j *memJournal) put(key string, val []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.m[key] = val
}

func fakeRow(pt GainPoint) Row {
	return Row{CSV: fmt.Sprintf("%.9g,%.9g,0.5,0,fake", pt.Gi, pt.Gd)}
}

func fakeRows(points []GainPoint) []Row {
	rows := make([]Row, len(points))
	for i, pt := range points {
		rows[i] = fakeRow(pt)
	}
	return rows
}

func expectedCSV(grid GainGrid) []byte { return RenderCSV(fakeRows(grid.Points())) }

// fakeWorker is an httptest bcnd stand-in answering shard jobs with
// deterministic fake rows. intercept, when non-nil, runs first and may
// take over the response (fault injection).
type fakeWorker struct {
	ts        *httptest.Server
	requests  atomic.Int64
	evaluated atomic.Int64
	mu        sync.Mutex
	indexes   map[int]int
	intercept func(w http.ResponseWriter, r *http.Request, sh *ShardSpec) bool
}

func newFakeWorker(t *testing.T, intercept func(http.ResponseWriter, *http.Request, *ShardSpec) bool) *fakeWorker {
	t.Helper()
	f := &fakeWorker{indexes: map[int]int{}, intercept: intercept}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", f.handleJob)
	mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"draining":false,"workers":2}`)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeWorker) URL() string { return f.ts.URL }

func (f *fakeWorker) handleJob(w http.ResponseWriter, r *http.Request) {
	var env jobEnvelope
	if err := json.NewDecoder(r.Body).Decode(&env); err != nil || env.Kind != "shard" || env.Shard == nil || env.Shard.Validate() != nil {
		http.Error(w, `{"error":"not a valid shard job"}`, http.StatusBadRequest)
		return
	}
	f.requests.Add(1)
	if f.intercept != nil && f.intercept(w, r, env.Shard) {
		return
	}
	pts := env.Shard.Points()
	f.evaluated.Add(int64(len(pts)))
	f.mu.Lock()
	f.indexes[env.Shard.Index]++
	f.mu.Unlock()
	res := ShardResult{Index: env.Shard.Index, Rows: fakeRows(pts)}
	SignShardResult(&res)
	raw, _ := json.Marshal(shardArtifact{Key: "k", Kind: "shard", Shard: &res})
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(raw)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestNewValidatesWorkers(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("coordinator without workers accepted")
	}
	if _, err := New(Config{Workers: []string{"http://a", ""}}); err == nil {
		t.Error("empty worker URL accepted")
	}
	if _, err := New(Config{Workers: []string{"http://a", "   "}}); err == nil {
		t.Error("blank worker URL accepted")
	}
	// Duplicates collapse to one seat instead of erroring: a repeated
	// -workers entry must not double a worker's placement weight.
	c2, err := New(Config{Workers: []string{"http://a", "http://a", "http://b"}, HeartbeatInterval: -1})
	if err != nil {
		t.Fatalf("duplicate worker URL rejected: %v", err)
	}
	if got := len(c2.cfg.Workers); got != 2 {
		t.Errorf("deduped worker list has %d entries, want 2", got)
	}
	c2.Close()
	c, err := New(Config{Workers: []string{"http://a"}, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
}

func TestRingOwnershipIsConsistent(t *testing.T) {
	names := []string{"http://w0", "http://w1", "http://w2"}
	r1, r2 := newRing(names), newRing(names)
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = DoneKey("fp", i)
	}
	seen := map[int]int{}
	for _, k := range keys {
		o := r1.owner(k, nil)
		if o < 0 || o >= len(names) {
			t.Fatalf("owner(%s) = %d out of range", k, o)
		}
		if o2 := r2.owner(k, nil); o2 != o {
			t.Fatalf("ring assignment not deterministic: %d vs %d for %s", o, o2, k)
		}
		seen[o]++
	}
	if len(seen) != len(names) {
		t.Errorf("200 keys landed on only %d of %d workers: %v", len(seen), len(names), seen)
	}
	// Consistency: excluding one worker moves only that worker's keys.
	for _, k := range keys {
		o := r1.owner(k, nil)
		dead := (o + 1) % len(names)
		if got := r1.owner(k, func(w int) bool { return w != dead }); got != o {
			t.Fatalf("excluding uninvolved worker %d moved key %s: %d -> %d", dead, k, o, got)
		}
		if got := r1.owner(k, func(w int) bool { return w != o }); got == o {
			t.Fatalf("excluded owner still assigned key %s", k)
		}
	}
	if got := r1.owner(keys[0], func(int) bool { return false }); got != -1 {
		t.Errorf("owner with nobody eligible = %d, want -1", got)
	}
}

func TestBackoffGrowthCapAndRetryAfter(t *testing.T) {
	rng := newJitterRand(1)
	b := &RetryPacer{base: 10 * time.Millisecond, cap: 80 * time.Millisecond, rng: rng}
	wantWindows := [][2]time.Duration{
		{5 * time.Millisecond, 10 * time.Millisecond},
		{10 * time.Millisecond, 20 * time.Millisecond},
		{20 * time.Millisecond, 40 * time.Millisecond},
		{40 * time.Millisecond, 80 * time.Millisecond},
		{40 * time.Millisecond, 80 * time.Millisecond}, // capped from here on
		{40 * time.Millisecond, 80 * time.Millisecond},
	}
	for i, win := range wantWindows {
		d := b.Next(0)
		if d < win[0] || d > win[1] {
			t.Errorf("attempt %d backoff %v outside [%v, %v]", i, d, win[0], win[1])
		}
	}
	// An explicit Retry-After hint is honored (never shortened), jittered
	// by at most 25%, and capped.
	hb := &RetryPacer{base: time.Millisecond, cap: 80 * time.Millisecond, rng: rng}
	if d := hb.Next(40 * time.Millisecond); d < 40*time.Millisecond || d > 50*time.Millisecond {
		t.Errorf("hinted backoff %v outside [40ms, 50ms]", d)
	}
	if d := hb.Next(10 * time.Second); d < 80*time.Millisecond || d > 100*time.Millisecond {
		t.Errorf("capped hint %v outside [80ms, 100ms]", d)
	}
}

func TestParseRetryAfterAndRetryableStatus(t *testing.T) {
	h := http.Header{}
	if d := ParseRetryAfterHeader(h); d != 0 {
		t.Errorf("absent header = %v", d)
	}
	for raw, want := range map[string]time.Duration{
		"3": 3 * time.Second, "0": 0, "-2": 0, "soon": 0,
		"Tue, 29 Oct 2024 16:56:32 GMT": 0,
	} {
		h.Set("Retry-After", raw)
		if d := ParseRetryAfterHeader(h); d != want {
			t.Errorf("ParseRetryAfterHeader(%q) = %v, want %v", raw, d, want)
		}
	}
	for code, want := range map[int]bool{429: true, 502: true, 503: true, 504: true, 200: false, 400: false, 500: false} {
		if got := RetryableStatus(code); got != want {
			t.Errorf("RetryableStatus(%d) = %v", code, got)
		}
	}
}

func TestWorkerBreakerLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	m := NewMetrics(telemetry.NewRegistry())
	b := newWorkerBreaker([]string{"a", "b"}, 2, time.Second, func() time.Time { return now }, m)

	if ok, _ := b.Allow(0); !ok {
		t.Fatal("closed breaker denied dispatch")
	}
	b.Failure(0)
	if ok, _ := b.Allow(0); !ok {
		t.Fatal("one failure below threshold tripped the breaker")
	}
	b.Failure(0)
	ok, retryAfter := b.Allow(0)
	if ok || retryAfter <= 0 || retryAfter > time.Second {
		t.Fatalf("tripped breaker: ok=%v retryAfter=%v", ok, retryAfter)
	}
	if !b.Open(0) {
		t.Fatal("tripped breaker not Open")
	}
	if b.Open(1) {
		t.Fatal("worker b quarantined by a's failures")
	}
	if got := m.BreakerState.With("a").Value(); got != breakerOpen {
		t.Errorf("breaker state gauge = %v, want open", got)
	}

	// Cooldown elapses: exactly one probe is admitted.
	now = now.Add(1100 * time.Millisecond)
	if ok, _ := b.Allow(0); !ok {
		t.Fatal("post-cooldown probe denied")
	}
	if ok, _ := b.Allow(0); ok {
		t.Fatal("second concurrent probe admitted")
	}
	// The probe fails: immediate re-open.
	b.Failure(0)
	if ok, _ := b.Allow(0); ok {
		t.Fatal("failed probe did not re-open the breaker")
	}

	// Next cooldown: probe succeeds, breaker closes.
	now = now.Add(1100 * time.Millisecond)
	if ok, _ := b.Allow(0); !ok {
		t.Fatal("second probe denied")
	}
	b.Success(0)
	if b.Open(0) {
		t.Fatal("breaker open after successful probe")
	}
	if got := m.BreakerState.With("a").Value(); got != breakerClosed {
		t.Errorf("breaker state gauge = %v, want closed", got)
	}
	snap := b.Snapshot()
	if snap[0].State != "closed" || snap[0].Trips != 2 {
		t.Errorf("snapshot[0] = %+v, want closed with 2 trips", snap[0])
	}

	// Release: an abandoned (cancelled, not failed) probe frees the slot
	// for the next Allow instead of wedging the worker half-open forever.
	b.Failure(0)
	b.Failure(0)
	now = now.Add(1100 * time.Millisecond)
	if ok, _ := b.Allow(0); !ok {
		t.Fatal("probe after re-trip denied")
	}
	b.Release(0)
	if got := m.BreakerState.With("a").Value(); got != breakerOpen {
		t.Errorf("breaker state gauge after an abandoned probe = %v, want open", got)
	}
	if ok, _ := b.Allow(0); !ok {
		t.Fatal("released probe slot not reclaimable")
	}
}

// TestWorkerBreakerStatusJSON pins the field names /statusz emits for
// each worker's breaker: closed, open with its retry hint, quarantined.
func TestWorkerBreakerStatusJSON(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newWorkerBreaker([]string{"a", "b", "c"}, 2, 10*time.Second, func() time.Time { return now }, NewMetrics(telemetry.NewRegistry()))
	b.Failure(0)
	b.Failure(1)
	b.Failure(1)
	b.Quarantine(2)
	got, err := json.Marshal(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"worker":"a","state":"closed","consecutive_failures":1,"trips":0},` +
		`{"worker":"b","state":"open","consecutive_failures":2,"trips":1,"retry_after_sec":11},` +
		`{"worker":"c","state":"quarantined","consecutive_failures":0,"trips":1}]`
	if string(got) != want {
		t.Errorf("breaker snapshot JSON\n got %s\nwant %s", got, want)
	}
}

func TestPlanShardsIsDeterministicAndCovering(t *testing.T) {
	grid := testGrid(5)
	fp, points, shards, err := PlanShards(grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != 64 || len(points) != 25 || len(shards) != 7 {
		t.Fatalf("fp len %d, %d points, %d shards", len(fp), len(points), len(shards))
	}
	next := 0
	for _, sh := range shards {
		for i := range sh.GridIdx {
			if sh.GridIdx[i] != next {
				t.Fatalf("shard %d covers grid index %d, want %d (grid order)", sh.Index, sh.GridIdx[i], next)
			}
			if want := PointKey(fp, points[next]); sh.Keys[i] != want {
				t.Fatalf("shard %d key %q, want %q", sh.Index, sh.Keys[i], want)
			}
			next++
		}
	}
	if next != len(points) {
		t.Fatalf("shards cover %d of %d points", next, len(points))
	}
	// The plan depends only on grid and size — replanning is identical.
	fp2, _, shards2, err := PlanShards(grid, 4)
	if err != nil || fp2 != fp || len(shards2) != len(shards) {
		t.Fatalf("replan diverged: %v %v", fp2, err)
	}
	for i := range shards {
		if shards2[i].Index != shards[i].Index || len(shards2[i].GridIdx) != len(shards[i].GridIdx) {
			t.Fatalf("replan shard %d diverged", i)
		}
	}
}

func TestClusterSweepMergesAndResumes(t *testing.T) {
	grid := testGrid(5) // 25 points, 7 shards at size 4
	w0 := newFakeWorker(t, nil)
	w1 := newFakeWorker(t, nil)
	j := newMemJournal()
	mapPath := filepath.Join(t.TempDir(), "map.csv")
	c, err := New(Config{
		Workers: []string{w0.URL(), w1.URL()}, ShardSize: 4,
		Journal: j, MapPath: mapPath, HeartbeatInterval: -1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	out, err := c.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	want := expectedCSV(grid)
	if !bytes.Equal(out.CSV, want) {
		t.Errorf("merged CSV diverges from single-node reference:\n%s\nwant:\n%s", out.CSV, want)
	}
	if out.Points != 25 || out.Fresh != 25 || out.Replayed != 0 || out.OrphanShards != 0 {
		t.Errorf("out = %+v, want 25 fresh points", out)
	}
	if disk, err := os.ReadFile(mapPath); err != nil || !bytes.Equal(disk, want) {
		t.Errorf("MapPath not written atomically: %v", err)
	}
	fp, _, _, _ := PlanShards(grid, 4)
	var doneKeys, pointKeys int
	for _, k := range j.Keys() {
		if strings.HasPrefix(k, "shard-done:") {
			if !strings.HasPrefix(k, "shard-done:"+fp+":") {
				t.Errorf("done marker under wrong fingerprint: %s", k)
			}
			doneKeys++
		} else {
			pointKeys++
		}
	}
	if doneKeys != 7 || pointKeys != 25 {
		t.Errorf("journal holds %d done markers and %d point records, want 7 and 25", doneKeys, pointKeys)
	}
	if got := c.m.Points.Value(); got != 25 {
		t.Errorf("cluster_points_total = %d, want 25", got)
	}
	if got := c.m.ShardsDone.Value(); got != 7 {
		t.Errorf("cluster_shards_done_total = %d, want 7", got)
	}
	if w0.requests.Load()+w1.requests.Load() < 7 {
		t.Errorf("workers saw %d+%d requests for 7 shards", w0.requests.Load(), w1.requests.Load())
	}

	// Restart: a fresh coordinator over the same journal replays the
	// whole sweep without touching a worker.
	before := w0.requests.Load() + w1.requests.Load()
	c2, err := New(Config{
		Workers: []string{w0.URL(), w1.URL()}, ShardSize: 4,
		Journal: j, HeartbeatInterval: -1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	out2, err := c2.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Fresh != 0 || out2.Replayed != 25 || out2.OrphanShards != 0 {
		t.Errorf("resume = %+v, want 25 replayed", out2)
	}
	if !bytes.Equal(out2.CSV, want) {
		t.Error("resumed CSV diverges from original")
	}
	if after := w0.requests.Load() + w1.requests.Load(); after != before {
		t.Errorf("resume dispatched %d shard jobs, want 0", after-before)
	}
}

// TestCoordinatorComputesPointKeysOnlyWithJournal: point keys address
// journal records and nothing else, so a coordinator without a journal
// plans and merges every shard without one PointKey call (Keys stays
// nil), while one with a journal carries a key for every point.
func TestCoordinatorComputesPointKeysOnlyWithJournal(t *testing.T) {
	grid := testGrid(5)
	w := newFakeWorker(t, nil)
	for _, j := range []*memJournal{nil, newMemJournal()} {
		var mu sync.Mutex
		var shards []Shard
		cfg := Config{
			Workers: []string{w.URL()}, ShardSize: 4, HeartbeatInterval: -1, Seed: 1,
			OnShardDone: func(_ string, sh Shard) {
				mu.Lock()
				shards = append(shards, sh)
				mu.Unlock()
			},
		}
		if j != nil {
			cfg.Journal = j
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Run(context.Background(), grid)
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.CSV, expectedCSV(grid)) {
			t.Errorf("journal=%v: merged CSV diverges from the reference", j != nil)
		}
		mu.Lock()
		if len(shards) != 7 {
			t.Errorf("journal=%v: %d shards done, want 7", j != nil, len(shards))
		}
		for _, sh := range shards {
			if j == nil && sh.Keys != nil {
				t.Errorf("no journal: shard %d carries %d point keys, want none computed", sh.Index, len(sh.Keys))
			}
			if j != nil && len(sh.Keys) != len(sh.GridIdx) {
				t.Errorf("journal: shard %d carries %d keys for %d points", sh.Index, len(sh.Keys), len(sh.GridIdx))
			}
		}
		mu.Unlock()
	}
}

func TestClusterHonorsRetryAfterOn429(t *testing.T) {
	grid := testGrid(3) // 9 points, one shard at size 64
	var times struct {
		mu   sync.Mutex
		seen []time.Time
	}
	var shed atomic.Bool
	w := newFakeWorker(t, func(rw http.ResponseWriter, _ *http.Request, _ *ShardSpec) bool {
		times.mu.Lock()
		times.seen = append(times.seen, time.Now())
		times.mu.Unlock()
		if shed.CompareAndSwap(false, true) {
			rw.Header().Set("Retry-After", "1")
			rw.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(rw, `{"error":"shed","reason":"shed"}`)
			return true
		}
		return false
	})
	c, err := New(Config{
		Workers: []string{w.URL()}, ShardSize: 64, HeartbeatInterval: -1,
		RetryBase: time.Millisecond, RetryCap: 30 * time.Millisecond, MaxAttempts: 3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.CSV, expectedCSV(grid)) {
		t.Error("CSV diverges after 429 retry")
	}
	if got := c.m.Retries.Value(); got != 1 {
		t.Errorf("cluster_dispatch_retries_total = %d, want 1", got)
	}
	times.mu.Lock()
	defer times.mu.Unlock()
	if len(times.seen) != 2 {
		t.Fatalf("worker saw %d requests, want 2 (shed then retry)", len(times.seen))
	}
	// Retry-After: 1 is capped to RetryCap (30ms) and never shortened.
	if gap := times.seen[1].Sub(times.seen[0]); gap < 30*time.Millisecond {
		t.Errorf("retry came %v after the 429, before the Retry-After window", gap)
	}
}

func TestClusterQuarantinesFailingWorkerAndReassigns(t *testing.T) {
	grid := testGrid(4) // 16 points, 8 shards at size 2
	badFailed := make(chan struct{})
	var failOnce sync.Once
	bad := newFakeWorker(t, func(rw http.ResponseWriter, _ *http.Request, _ *ShardSpec) bool {
		rw.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(rw, `{"error":"boom"}`)
		failOnce.Do(func() { close(badFailed) })
		return true
	})
	// The healthy worker holds its first responses until the bad worker
	// has failed once, so the bad worker deterministically receives (and
	// fails) at least one shard.
	good := newFakeWorker(t, func(http.ResponseWriter, *http.Request, *ShardSpec) bool {
		<-badFailed
		return false
	})
	c, err := New(Config{
		Workers: []string{bad.URL(), good.URL()}, ShardSize: 2, HeartbeatInterval: -1,
		MaxAttempts: 1, BreakerThreshold: 1, BreakerCooldown: time.Minute,
		RetryBase: time.Millisecond, RetryCap: 5 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.CSV, expectedCSV(grid)) {
		t.Error("CSV diverges after worker failure")
	}
	if got := c.m.Reassigned.Value(); got < 1 {
		t.Errorf("cluster_reassigned_shards_total = %d, want >= 1", got)
	}
	if got := c.m.WorkerErrors.With(bad.URL()).Value(); got < 1 {
		t.Errorf("cluster_worker_errors_total{%s} = %d, want >= 1", bad.URL(), got)
	}
	if got := c.m.BreakerState.With(bad.URL()).Value(); got != breakerOpen {
		t.Errorf("failing worker's breaker state = %v, want open", got)
	}
	var badSnap *WorkerBreakerStatus
	snaps := c.BreakerSnapshot()
	for i := range snaps {
		if snaps[i].Worker == bad.URL() {
			badSnap = &snaps[i]
		}
	}
	if badSnap == nil || badSnap.State != "open" || badSnap.Trips < 1 {
		t.Errorf("breaker snapshot for failing worker = %+v, want open with trips", badSnap)
	}
	if bad.evaluated.Load() != 0 {
		t.Errorf("failing worker evaluated %d points", bad.evaluated.Load())
	}
}

func TestClusterOrphanShardsReExecuteOnlyMissingPoints(t *testing.T) {
	grid := testGrid(4) // 16 points, 4 shards at size 4
	fp, points, shards, err := PlanShards(grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	j := newMemJournal()
	marshal := func(r Row) []byte {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	// Shard 0: every row journaled but the done marker missing (the
	// coordinator died between the last row and the seal) — orphan,
	// re-sealed without re-execution.
	for i, key := range shards[0].Keys {
		j.put(key, marshal(fakeRow(points[shards[0].GridIdx[i]])))
	}
	// Shard 1: two of four rows journaled, no done marker (a worker died
	// mid-shard) — orphan, only the missing half re-executes.
	for i := 0; i < 2; i++ {
		j.put(shards[1].Keys[i], marshal(fakeRow(points[shards[1].GridIdx[i]])))
	}
	// A done marker from a different grid: counted as stray, ignored.
	strayFP := strings.Repeat("0", 64)
	j.put(DoneKey(strayFP, 0), []byte(`{"index":0,"points":4}`))

	w := newFakeWorker(t, nil)
	c, err := New(Config{Workers: []string{w.URL()}, ShardSize: 4, Journal: j, HeartbeatInterval: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.CSV, expectedCSV(grid)) {
		t.Error("CSV diverges after orphan replay")
	}
	if out.OrphanShards != 2 || out.Replayed != 6 || out.Fresh != 10 {
		t.Errorf("out = %+v, want 2 orphans, 6 replayed, 10 fresh", out)
	}
	if got := w.evaluated.Load(); got != 10 {
		t.Errorf("workers evaluated %d points, want exactly the 10 missing", got)
	}
	w.mu.Lock()
	if n, ok := w.indexes[0]; ok {
		t.Errorf("fully-journaled shard 0 was dispatched %d times", n)
	}
	w.mu.Unlock()
	if got := c.m.OrphanShards.Value(); got != 2 {
		t.Errorf("cluster_journal_orphan_shards_total = %d, want 2", got)
	}
	if got := c.m.StrayRecords.Value(); got != 1 {
		t.Errorf("cluster_journal_stray_records_total = %d, want 1", got)
	}
	// Every shard is sealed now; the stray marker survives untouched.
	for _, sh := range shards {
		if _, ok := j.Lookup(DoneKey(fp, sh.Index)); !ok {
			t.Errorf("shard %d missing its done marker after the run", sh.Index)
		}
	}
	if _, ok := j.Lookup(DoneKey(strayFP, 0)); !ok {
		t.Error("stray marker was removed")
	}
}

func TestClusterHeartbeatLossRedistributes(t *testing.T) {
	grid := testGrid(4) // 16 points, 8 shards at size 2
	// A worker that accepts connections and never answers: dispatches to
	// it park until the heartbeat monitor declares it lost and cancels
	// its leases.
	hangMux := http.NewServeMux()
	hangMux.HandleFunc("/", func(_ http.ResponseWriter, r *http.Request) {
		// Drain the body so the server notices the client abandoning the
		// connection (unread bodies suppress close detection).
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	hang := httptest.NewServer(hangMux)
	defer hang.Close()
	good := newFakeWorker(t, func(http.ResponseWriter, *http.Request, *ShardSpec) bool {
		time.Sleep(2 * time.Millisecond) // keep the sweep alive past the loss detection
		return false
	})
	c, err := New(Config{
		Workers: []string{hang.URL, good.URL()}, ShardSize: 2,
		HeartbeatInterval: 10 * time.Millisecond, HeartbeatMisses: 2,
		LeaseTimeout: 2 * time.Second, MaxAttempts: 1, BreakerThreshold: -1,
		RetryBase: time.Millisecond, RetryCap: 5 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := c.Run(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.CSV, expectedCSV(grid)) {
		t.Error("CSV diverges after worker loss")
	}
	if got := c.m.WorkerUp.With(hang.URL).Value(); got != 0 {
		t.Errorf("cluster_worker_up{%s} = %v, want 0 after missed heartbeats", hang.URL, got)
	}
	if got := c.m.Reassigned.Value(); got < 1 {
		t.Errorf("cluster_reassigned_shards_total = %d, want >= 1", got)
	}
	health := c.WorkerSnapshot()
	if health[0].Up || !health[1].Up {
		t.Errorf("worker snapshot = %+v, want hang down and good up", health)
	}
}

// syncBuf is a goroutine-safe log sink for observing server decisions.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestCoordinatorServerShedCoalesceAndDetachedSweep(t *testing.T) {
	gridA, gridB := testGrid(3), testGrid(4)
	release := make(chan struct{})
	w := newFakeWorker(t, func(http.ResponseWriter, *http.Request, *ShardSpec) bool {
		<-release
		return false
	})
	c, err := New(Config{Workers: []string{w.URL()}, ShardSize: 64, Journal: newMemJournal(), HeartbeatInterval: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	logs := &syncBuf{}
	s, err := NewServer(ServerConfig{Coordinator: c, MaxSweeps: 1, Log: logs})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	post := func(grid GainGrid, ctx context.Context) *httptest.ResponseRecorder {
		body, err := json.Marshal(grid)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/sweeps", bytes.NewReader(body))
		h.ServeHTTP(rec, req.WithContext(ctx))
		return rec
	}

	// Malformed grid: 400.
	recBad := httptest.NewRecorder()
	h.ServeHTTP(recBad, httptest.NewRequest(http.MethodPost, "/v1/sweeps", strings.NewReader(`{"steps":`)))
	if recBad.Code != http.StatusBadRequest {
		t.Errorf("malformed grid: %d, want 400", recBad.Code)
	}

	// Oversized body: 413 with the JSON error contract, not a 400 or a hang.
	recBig := httptest.NewRecorder()
	big := `{"steps": ` + strings.Repeat("9", MaxWireBytes) + `}`
	h.ServeHTTP(recBig, httptest.NewRequest(http.MethodPost, "/v1/sweeps", strings.NewReader(big)))
	if recBig.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized grid: %d, want 413", recBig.Code)
	}
	var bigBody clusterError
	if err := json.Unmarshal(recBig.Body.Bytes(), &bigBody); err != nil || bigBody.Reason != "body-too-large" {
		t.Errorf("oversized body = %s", recBig.Body.Bytes())
	}

	// Submit grid A; the worker holds it, so the sweep stays active.
	ctx1, cancel1 := context.WithCancel(context.Background())
	var rec1 *httptest.ResponseRecorder
	done1 := make(chan struct{})
	go func() {
		defer close(done1)
		rec1 = post(gridA, ctx1)
	}()
	waitFor(t, "sweep A active", func() bool { return s.Status().ActiveSweeps == 1 })

	// A different grid is shed: the one-sweep budget is taken.
	rec2 := post(gridB, context.Background())
	if rec2.Code != http.StatusTooManyRequests {
		t.Fatalf("second grid: %d, want 429", rec2.Code)
	}
	if rec2.Header().Get("Retry-After") == "" {
		t.Error("shed response without Retry-After")
	}
	var shedBody clusterError
	if err := json.Unmarshal(rec2.Body.Bytes(), &shedBody); err != nil || shedBody.Reason != "shed" {
		t.Errorf("shed body = %s", rec2.Body.Bytes())
	}

	// Client A hangs up: 408 with the resubmit hint, sweep keeps running.
	cancel1()
	<-done1
	if rec1.Code != http.StatusRequestTimeout {
		t.Fatalf("abandoned client: %d, want 408", rec1.Code)
	}
	var hungBody clusterError
	if err := json.Unmarshal(rec1.Body.Bytes(), &hungBody); err != nil || hungBody.Reason != "client-timeout" {
		t.Errorf("abandoned-client body = %s", rec1.Body.Bytes())
	}
	if s.Status().ActiveSweeps != 1 {
		t.Fatal("sweep died with its client")
	}

	// An identical resubmission coalesces onto the running sweep.
	var rec3 *httptest.ResponseRecorder
	done3 := make(chan struct{})
	go func() {
		defer close(done3)
		rec3 = post(gridA, context.Background())
	}()
	waitFor(t, "resubmission coalesced", func() bool { return strings.Contains(logs.String(), "coalesced") })
	close(release)
	<-done3
	if rec3.Code != http.StatusOK {
		t.Fatalf("coalesced collect: %d body %s", rec3.Code, rec3.Body.Bytes())
	}
	if got := rec3.Header().Get("Bcn-Points"); got != "9" {
		t.Errorf("Bcn-Points = %q, want 9", got)
	}
	if got := rec3.Header().Get("Bcn-Fresh"); got != "9" {
		t.Errorf("Bcn-Fresh = %q, want 9", got)
	}
	if fp := rec3.Header().Get("Bcn-Fingerprint"); len(fp) != 64 {
		t.Errorf("Bcn-Fingerprint = %q", fp)
	}
	if got := rec3.Header().Get("Bcn-Audited-Shards"); got != "0" {
		t.Errorf("Bcn-Audited-Shards = %q, want 0 (auditing off)", got)
	}
	if !bytes.Equal(rec3.Body.Bytes(), expectedCSV(gridA)) {
		t.Error("served CSV diverges from single-node reference")
	}
	if got := c.m.Sweeps.Value(); got != 1 {
		t.Errorf("cluster_sweeps_total = %d, want 1 (coalesced, not re-run)", got)
	}
	if got := c.m.SweepsShed.Value(); got != 1 {
		t.Errorf("cluster_sweeps_shed_total = %d, want 1", got)
	}

	// Operational surface: statusz, healthz, metrics.
	recSt := httptest.NewRecorder()
	h.ServeHTTP(recSt, httptest.NewRequest(http.MethodGet, "/statusz", nil))
	var st CoordinatorStatus
	if err := json.Unmarshal(recSt.Body.Bytes(), &st); err != nil {
		t.Fatalf("statusz: %v", err)
	}
	if st.MaxSweeps != 1 || len(st.Workers) != 1 || len(st.Breakers) != 1 || !st.Workers[0].Up {
		t.Errorf("statusz = %+v", st)
	}
	recHz := httptest.NewRecorder()
	h.ServeHTTP(recHz, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if recHz.Code != http.StatusOK {
		t.Errorf("healthz = %d", recHz.Code)
	}
	recM := httptest.NewRecorder()
	h.ServeHTTP(recM, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, series := range []string{"cluster_points_total", "cluster_reassigned_shards_total", "cluster_worker_breaker_state", "cluster_worker_up"} {
		if !strings.Contains(recM.Body.String(), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}

	// Drain: no new sweeps, health reports it.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rec := post(gridB, context.Background()); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining submit: %d, want 503", rec.Code)
	}
	recHz2 := httptest.NewRecorder()
	h.ServeHTTP(recHz2, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if recHz2.Code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", recHz2.Code)
	}
}
