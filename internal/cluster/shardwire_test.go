package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"bcnphase/internal/cluster"
	"bcnphase/internal/serve"
)

// wireGrid is bcnsweep's default 32×32 gain plane at B/q0 = b.
func wireGrid(b float64, policy string) cluster.GainGrid {
	return cluster.GainGrid{BOverQ0: b, GiLo: 0.05, GiHi: 12.8, GdLo: 1.0 / 1024, GdHi: 0.5, Steps: 32, Invariants: policy}
}

// servedShard runs the shard of grid's first n points through a real
// job server's handler and returns the artifact bytes a coordinator
// reads back.
func servedShard(tb testing.TB, grid cluster.GainGrid, index, n int) (*cluster.ShardSpec, []byte) {
	tb.Helper()
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	spec := &cluster.ShardSpec{Grid: grid, Index: index, Runs: [][2]int{{0, n}}}
	body, err := cluster.EncodeShardJob(spec, 0)
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("shard job answered %d: %s", rec.Code, rec.Body.Bytes())
	}
	return spec, rec.Body.Bytes()
}

// TestShardWireAllocs: a paper-scale shard's wire work allocates per
// shard, not per field. Reading a served artifact costs a constant
// (one copy of the bytes, the row and checksum slices), signing one
// checksum string per row plus a constant, verifying a constant.
func TestShardWireAllocs(t *testing.T) {
	spec, raw := servedShard(t, wireGrid(5, "off"), 0, cluster.DefaultShardSize)
	res, err := cluster.DecodeShardArtifact(raw, spec)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(len(res.Rows))
	decode := testing.AllocsPerRun(50, func() {
		if _, err := cluster.DecodeShardArtifact(raw, spec); err != nil {
			t.Fatal(err)
		}
	})
	sign := testing.AllocsPerRun(50, func() {
		c := res
		cluster.SignShardResult(&c)
	})
	verify := testing.AllocsPerRun(50, func() {
		if err := cluster.VerifyShardResult(res); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v rows: decode %v, sign %v, verify %v allocs", n, decode, sign, verify)
	if decode > 4 {
		t.Errorf("DecodeShardArtifact allocates %v times for %v rows, want <= 4", decode, n)
	}
	if sign > n+6 {
		t.Errorf("SignShardResult allocates %v times for %v rows, want <= %v", sign, n, n+6)
	}
	if verify > 6 {
		t.Errorf("VerifyShardResult allocates %v times for %v rows, want <= 6", verify, n)
	}
}

// artifactView is the part of a worker artifact the coordinator reads,
// decoded the reflective way.
type artifactView struct {
	Kind  string               `json:"kind"`
	Shard *cluster.ShardResult `json:"shard"`
}

// FuzzShardArtifactReader is the single-pass artifact reader against
// json.Unmarshal: whenever the reader accepts an input, json.Unmarshal
// accepts it too and decodes the same ShardResult. The artifact a job
// server writes must take the fast path; the other seeds are shapes it
// must leave to json.Unmarshal.
func FuzzShardArtifactReader(f *testing.F) {
	_, full := servedShard(f, wireGrid(5, "off"), 0, cluster.DefaultShardSize)
	_, small := servedShard(f, wireGrid(2, "record"), 3, 2)
	for _, raw := range [][]byte{full, small} {
		if _, ok := cluster.ReadShardArtifact(raw, 0); !ok {
			f.Fatalf("served artifact missed the fast path: %.200s", raw)
		}
		f.Add(raw)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, small, "", "  "); err != nil {
		f.Fatal(err)
	}
	f.Add(indented.Bytes())
	edit := func(old, new string) []byte {
		return bytes.Replace(small, []byte(old), []byte(new), 1)
	}
	for _, raw := range [][]byte{
		edit(`"CSV":"`, `"CSV":"<`),
		edit(`"CSV":"`, `"CSV":"\"`),
		edit(`"FirstPred":"`, `"FirstPred":"\\`),
		edit(`"CSV":"`, `"CSV":"é`),
		edit(`{"key":`, `{"extra":[1,{"a":"b"}],"key":`),
		edit(`"kind":"shard","invariants":"record",`, `"invariants":"record","kind":"shard",`),
		edit(`{"key":`, `{"KEY":`),
		edit(`"index":3`, `"index":03`),
		edit(`"index":3`, `"index":-3`),
		edit(`"index":3`, `"index":3.0`),
		edit(`"Violations":`, `"Violations":0`),
		edit(`"Violations":`, `"Violations":18446744073709551615`),
		edit(`,"digest":`, `,"row_sums":[],"digest":`),
		edit(`"rows":[`, `"rows": [`),
		append(append([]byte(nil), small...), '\n'),
		[]byte(`{"key":"k","kind":"shard","invariants":"","shard":{"index":0,"rows":[]}}`),
		[]byte(`{"key":"k","kind":"shard","invariants":"","shard":{"index":0,"rows":null}}`),
		[]byte(`{"key":"k","kind":"shard","invariants":"","shard":{"index":0,"rows":[],"row_sums":[]}}`),
		[]byte(`{"key":"k","kind":"solve","invariants":"","shard":{"index":0,"rows":[]}}`),
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		res, ok := cluster.ReadShardArtifact(raw, 0)
		if !ok {
			return
		}
		var art artifactView
		if err := json.Unmarshal(raw, &art); err != nil {
			t.Fatalf("reader accepted what json.Unmarshal rejects (%v): %q", err, raw)
		}
		if art.Kind != "shard" || art.Shard == nil {
			t.Fatalf("reader accepted a %q artifact without a shard: %q", art.Kind, raw)
		}
		if !reflect.DeepEqual(res, *art.Shard) {
			t.Fatalf("reader decoded %+v, json.Unmarshal %+v from %q", res, *art.Shard, raw)
		}
	})
}

var wireSink any

// BenchmarkShardWire times the coordinator's per-shard wire work on a
// served paper-scale 32-point shard: reading the artifact, and signing
// and verifying its rows. Units follow the bench ladder: points/s, ns
// and allocs per point.
func BenchmarkShardWire(b *testing.B) {
	spec, raw := servedShard(b, wireGrid(5, "off"), 0, cluster.DefaultShardSize)
	res, err := cluster.DecodeShardArtifact(raw, spec)
	if err != nil {
		b.Fatal(err)
	}
	points := len(res.Rows)
	ops := []struct {
		name string
		op   func()
	}{
		{"decode", func() { wireSink, _ = cluster.DecodeShardArtifact(raw, spec) }},
		{"sign", func() {
			c := res
			cluster.SignShardResult(&c)
			wireSink = c.Digest
		}},
		{"verify", func() { wireSink = cluster.VerifyShardResult(res) }},
	}
	for _, o := range ops {
		b.Run(o.name, func(b *testing.B) {
			allocs := testing.AllocsPerRun(10, o.op)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.op()
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N*points)
			b.ReportMetric(1e9/ns, "points/s")
			b.ReportMetric(ns, "ns/point")
			b.ReportMetric(allocs/float64(points), "allocs/point")
		})
	}
}

// mapJournal is an in-memory cluster.Journal.
type mapJournal struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (j *mapJournal) Lookup(key string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	v, ok := j.m[key]
	return v, ok
}

func (j *mapJournal) Record(key string, val []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.m[key] = append([]byte(nil), val...)
	return nil
}

// TestResumeWithHolesDispatchesMissingRuns: a journal holding rows for
// a non-contiguous subset of one shard (and no done marker) makes the
// coordinator dispatch that shard as the runs of its missing indices;
// a real job server evaluates exactly those points, and the merged map
// is byte-identical to a clean run and to direct evaluation.
func TestResumeWithHolesDispatchesMissingRuns(t *testing.T) {
	grid := wireGrid(5, "record")
	grid.Steps = 8 // 64 points, 4 shards of 16
	const size = 16
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var sent []cluster.ShardSpec
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		var env struct {
			Shard *cluster.ShardSpec `json:"shard"`
		}
		if json.Unmarshal(body, &env) == nil && env.Shard != nil {
			mu.Lock()
			sent = append(sent, *env.Shard)
			mu.Unlock()
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	run := func(j *mapJournal) *cluster.Output {
		t.Helper()
		c, err := cluster.New(cluster.Config{Workers: []string{ts.URL}, ShardSize: size, Journal: j, HeartbeatInterval: -1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		out, err := c.Run(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	full := &mapJournal{m: map[string][]byte{}}
	clean := run(full)
	rows := make([]cluster.Row, 64)
	if err := grid.EvalBatch(context.Background(), grid.Points(), rows, cluster.EvalMetrics{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean.CSV, cluster.RenderCSV(rows)) {
		t.Fatal("clean cluster map differs from direct evaluation")
	}

	// Every shard but 1 is journaled whole and sealed; shard 1 keeps the
	// rows at 7 scattered positions and no done marker.
	fp, _, shards, err := cluster.PlanShards(grid, size)
	if err != nil {
		t.Fatal(err)
	}
	holes := &mapJournal{m: map[string][]byte{}}
	kept := map[int]bool{0: true, 1: true, 4: true, 5: true, 6: true, 11: true, 15: true}
	for _, sh := range shards {
		for i, key := range sh.Keys {
			if raw, ok := full.Lookup(key); ok && (sh.Index != 1 || kept[i]) {
				holes.Record(key, raw)
			}
		}
		if done := cluster.DoneKey(fp, sh.Index); sh.Index != 1 {
			raw, _ := full.Lookup(done)
			holes.Record(done, raw)
		}
	}
	mu.Lock()
	sent = nil
	mu.Unlock()
	resumed := run(holes)
	if !bytes.Equal(resumed.CSV, clean.CSV) {
		t.Error("resumed map differs from the clean run")
	}
	if resumed.Fresh != 9 || resumed.Replayed != 55 || resumed.OrphanShards != 1 {
		t.Errorf("resume = %d fresh, %d replayed, %d orphans; want 9, 55, 1", resumed.Fresh, resumed.Replayed, resumed.OrphanShards)
	}
	mu.Lock()
	defer mu.Unlock()
	want := [][2]int{{18, 20}, {23, 27}, {28, 31}}
	if len(sent) != 1 || sent[0].Index != 1 || !reflect.DeepEqual([][2]int(sent[0].Runs), want) {
		t.Fatalf("resume dispatched %+v, want only shard 1 with runs %v", sent, want)
	}
	if n := sent[0].Size(); n != 9 {
		t.Errorf("worker evaluated %d points, want the 9 missing", n)
	}
}
