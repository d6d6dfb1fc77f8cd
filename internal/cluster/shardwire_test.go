package cluster_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
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
	spec := &cluster.ShardSpec{Grid: grid, Index: index, Points: grid.Points()[:n]}
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
