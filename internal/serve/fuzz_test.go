package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// FuzzDecodeSpec hammers the job-spec decoder with arbitrary bytes. The
// contract under fuzzing is the serving layer's 400-vs-500 boundary:
// every rejection must wrap ErrSpec (the handler's 400 path), never
// panic, and every accepted spec must be hashable, region-bucketable
// and stable under a re-encode round trip — otherwise a malformed
// request could reach a worker or split the dedup key space.
func FuzzDecodeSpec(f *testing.F) {
	seeds := []string{
		// Valid specs of each kind.
		`{"kind":"solve","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6}}}`,
		`{"kind":"sweep","sweep":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}}`,
		`{"kind":"netsim","netsim":{"n":4,"capacity":1e9,"buffer_bits":4e6,"q0":5e5,"duration_sec":0.002}}`,
		`{"kind":"shard","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":2},"index":0,"points":[{"gi":0.05,"gd":0.001},{"gi":0.05,"gd":0.1}]}}`,
		// Broken physics admissible only under an explicit checked policy.
		`{"kind":"solve","invariants":"strict","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":-1,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6}}}`,
		// Execution knobs and optional fields.
		`{"kind":"solve","timeout_ms":250,"invariants":"record","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6},"start":[-2.5e6,0],"max_arcs":10}}`,
		`{"kind":"netsim","netsim":{"n":4,"capacity":1e9,"buffer_bits":4e6,"q0":5e5,"duration_sec":0.002,"pause":true,"faults":{"Seed":7,"FeedbackLoss":0.3}}}`,
		// The classic rejects.
		``, `null`, `"solve"`, `[1,2,3]`, `{{{`,
		`{"kind":"dance"}`,
		`{"kind":"solve"}`,
		`{"kind":"solve","bogus":1}`,
		`{"kind":"solve","solve":{"params":{"N":-1}}}`,
		`{"kind":"solve","timeout_ms":-5,"solve":{}}`,
		`{"kind":"sweep","sweep":{"b_over_q0":5,"gi_lo":1e999,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}}`,
		`{"kind":"sweep","sweep":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":4096}}`,
		`{"kind":"netsim","netsim":{"n":4,"capacity":1e9,"buffer_bits":4e6,"q0":5e5,"duration_sec":3600}}`,
		`{"kind":"netsim","netsim":{"n":4,"capacity":1e9,"buffer_bits":4e6,"q0":5e5,"duration_sec":0.002,"faults":{"FeedbackLoss":2}}}`,
		`{"kind":"solve","solve":{"params":{"N":50}}} trailing`,
		// Shard rejects: spec-level policy (the grid carries it), bad index,
		// empty point list.
		`{"kind":"shard","invariants":"record","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":2},"index":0,"points":[{"gi":0.05,"gd":0.001}]}}`,
		`{"kind":"shard","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":2},"index":-1,"points":[{"gi":0.05,"gd":0.001}]}}`,
		`{"kind":"shard","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":2},"index":0,"points":[]}}`,
		// The shard wire format: canonical grid index runs, one for a fresh
		// shard, several for a resumed one with holes; then its rejects
		// (empty, unsorted, overlapping, adjacent, outside the grid) and a
		// run list next to a legacy point list.
		`{"kind":"shard","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":2},"index":0,"runs":[[0,4]]}}`,
		`{"kind":"shard","timeout_ms":900,"shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3,"invariants":"record"},"index":2,"runs":[[0,2],[3,4],[7,9]]}}`,
		`{"kind":"shard","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3},"index":0,"runs":[]}}`,
		`{"kind":"shard","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3},"index":0,"runs":[[0,2,9]]}}`,
		`{"kind":"shard","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3},"index":0,"runs":[[7]]}}`,
		`{"kind":"shard","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3},"index":0,"runs":[[4,5],[0,1]]}}`,
		`{"kind":"shard","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3},"index":0,"runs":[[0,3],[2,5]]}}`,
		`{"kind":"shard","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3},"index":0,"runs":[[0,2],[2,4]]}}`,
		`{"kind":"shard","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3},"index":0,"runs":[[-1,2],[8,10]]}}`,
		`{"kind":"shard","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":2},"index":0,"runs":[[0,1]],"points":[{"gi":0.05,"gd":0.001}]}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := DecodeSpec(bytes.NewReader(body), DefaultMaxBodyBytes)
		if err != nil {
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("rejection does not wrap ErrSpec (handler would 500, not 400): %v", err)
			}
			return
		}
		key, err := sp.Key()
		if err != nil || len(key) != 64 {
			t.Fatalf("accepted spec has no dedup key: %q, %v", key, err)
		}
		if sp.RegionKey() == "" {
			t.Fatal("accepted spec has empty breaker region")
		}
		if d := sp.Timeout(time.Second, time.Minute); d <= 0 || d > time.Minute {
			t.Fatalf("accepted spec resolves timeout %v outside (0, cap]", d)
		}
		// Round trip: the spec's own encoding must decode to the same
		// dedup key, or a resubmitted job would miss its cached artifact.
		again, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		sp2, err := DecodeSpec(bytes.NewReader(again), DefaultMaxBodyBytes)
		if err != nil {
			t.Fatalf("re-encoded accepted spec rejected: %v", err)
		}
		if key2, _ := sp2.Key(); key2 != key {
			t.Fatalf("dedup key unstable across re-encode: %s vs %s", key, key2)
		}
	})
}
