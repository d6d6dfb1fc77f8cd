package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"bcnphase/internal/cluster"
)

func newBenchServer(b *testing.B, cfg Config) (*Server, *httptest.Server) {
	b.Helper()
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return s, ts
}

func marshalSpecB(b *testing.B, sp Spec) []byte {
	b.Helper()
	raw, err := json.Marshal(sp)
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

func postBytes(b *testing.B, base string, body []byte) int {
	b.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	// Drain the body before closing it so the connection returns to the
	// keep-alive pool; otherwise every iteration times a fresh TCP setup.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// BenchmarkSubmitCacheHit measures the full HTTP round trip for a job
// answered from the artifact store — the steady-state cost of a
// deduplicated resubmission.
func BenchmarkSubmitCacheHit(b *testing.B) {
	_, ts := newBenchServer(b, Config{Workers: 2})
	body := marshalSpecB(b, solveSpec())
	if code := postBytes(b, ts.URL, body); code != http.StatusOK {
		b.Fatalf("warm-up submit: status %d", code)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := postBytes(b, ts.URL, body); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkSubmitSolveJob measures a fresh solve job per iteration; the
// spec varies so the dedup cache never answers.
func BenchmarkSubmitSolveJob(b *testing.B) {
	_, ts := newBenchServer(b, Config{Workers: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := solveSpec()
		sp.Solve.Params.Gi = 0.1 + float64(i)*1e-6
		if code := postBytes(b, ts.URL, marshalSpecB(b, sp)); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkStatusSnapshot measures the /statusz aggregation, which
// reads every counter from the telemetry registry.
func BenchmarkStatusSnapshot(b *testing.B) {
	s, ts := newBenchServer(b, Config{Workers: 1})
	if code := postBytes(b, ts.URL, marshalSpecB(b, solveSpec())); code != http.StatusOK {
		b.Fatalf("warm-up submit: status %d", code)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := s.StatusSnapshot()
		if st.Accepted != 1 {
			b.Fatalf("accepted = %d", st.Accepted)
		}
	}
}

var requestSink string

// BenchmarkShardRequest times a shard job's request path at the
// default shard size: the coordinator encoding it (EncodeShardJob), the
// worker decoding and validating it (DecodeSpec) and deriving its dedup
// key (Spec.Key). Units follow the bench ladder: points/s, ns and
// allocs per point.
func BenchmarkShardRequest(b *testing.B) {
	grid := cluster.GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 12.8, GdLo: 1.0 / 1024, GdHi: 0.5, Steps: 32}
	shard := &cluster.ShardSpec{Grid: grid, Index: 3, Runs: [][2]int{{3 * cluster.DefaultShardSize, 4 * cluster.DefaultShardSize}}}
	points := shard.Size()
	op := func() {
		body, err := cluster.EncodeShardJob(shard, 27000)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := DecodeSpec(bytes.NewReader(body), DefaultMaxBodyBytes)
		if err != nil {
			b.Fatal(err)
		}
		if requestSink, err = sp.Key(); err != nil {
			b.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, op)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N*points)
	b.ReportMetric(1e9/ns, "points/s")
	b.ReportMetric(ns, "ns/point")
	b.ReportMetric(allocs/float64(points), "allocs/point")
}
