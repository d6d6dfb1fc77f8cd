package cluster

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeSweepRequest hammers the coordinator's grid-submission
// decoder with arbitrary bytes. The contract is the 400-vs-500
// boundary: every rejection wraps ErrWire, never panics, and every
// accepted grid must fingerprint, enumerate and shard-plan cleanly —
// otherwise a malformed submission could reach the dispatch loop.
func FuzzDecodeSweepRequest(f *testing.F) {
	seeds := []string{
		`{"b_over_q0":5,"gi_lo":0.05,"gi_hi":12.8,"gd_lo":0.0009765625,"gd_hi":0.5,"steps":10}`,
		`{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":2,"invariants":"record"}`,
		// The classic rejects.
		``, `null`, `[1]`, `{{{`,
		`{"steps":1}`,
		`{"b_over_q0":0.5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}`,
		`{"b_over_q0":5,"gi_lo":-1,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}`,
		`{"b_over_q0":5,"gi_lo":1e999,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}`,
		`{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":4096}`,
		`{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3,"invariants":"dance"}`,
		`{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3,"bogus":1}`,
		`{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3} trailing`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		g, err := DecodeSweepRequest(bytes.NewReader(body), MaxWireBytes)
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("rejection does not wrap ErrWire (handler would 500, not 400): %v", err)
			}
			return
		}
		fp, points, shards, err := PlanShards(g, DefaultShardSize)
		if err != nil {
			t.Fatalf("accepted grid does not plan: %v", err)
		}
		if len(fp) != 64 {
			t.Fatalf("accepted grid has malformed fingerprint %q", fp)
		}
		if len(points) != g.Steps*g.Steps {
			t.Fatalf("accepted grid enumerates %d points, want %d", len(points), g.Steps*g.Steps)
		}
		total := 0
		for _, sh := range shards {
			if len(sh.GridIdx) == 0 || len(sh.GridIdx) != len(sh.Keys) {
				t.Fatalf("malformed shard %d: %d keys, %d indices", sh.Index, len(sh.Keys), len(sh.GridIdx))
			}
			spec := &ShardSpec{Grid: g, Index: sh.Index, Runs: indexRuns(sh.GridIdx)}
			if err := spec.Validate(); err != nil {
				t.Fatalf("planned shard %d fails its own wire validation: %v", sh.Index, err)
			}
			total += len(sh.GridIdx)
		}
		if total != len(points) {
			t.Fatalf("shards cover %d of %d points", total, len(points))
		}
	})
}

// FuzzDecodeShardArtifact hammers the worker-artifact decoder: no
// panic, every rejection wraps ErrWire, and every accepted result
// matches the assignment it claims to answer.
func FuzzDecodeShardArtifact(f *testing.F) {
	seeds := []string{
		`{"key":"k","kind":"shard","shard":{"index":0,"rows":[{"CSV":"a"},{"CSV":"b"}]}}`,
		`{"kind":"shard","shard":{"index":0,"rows":[{"CSV":"a","Violations":3,"FirstPred":"q_in_range"},{"CSV":"b"}]}}`,
		// Rejects: wrong kind, index mismatch, row-count mismatch, empty
		// row, garbage.
		`{"kind":"solve","solve":{}}`,
		`{"kind":"shard","shard":{"index":7,"rows":[{"CSV":"a"},{"CSV":"b"}]}}`,
		`{"kind":"shard","shard":{"index":0,"rows":[{"CSV":"a"}]}}`,
		`{"kind":"shard","shard":{"index":0,"rows":[{"CSV":""},{"CSV":"b"}]}}`,
		`{"kind":"shard"}`, ``, `null`, `{{{`, `[]`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	want := &ShardSpec{
		Grid:  GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 1, GdLo: 0.001, GdHi: 0.1, Steps: 2},
		Index: 0,
		Runs:  [][2]int{{0, 2}},
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		res, err := DecodeShardArtifact(raw, want)
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("rejection does not wrap ErrWire: %v", err)
			}
			return
		}
		if res.Index != want.Index || len(res.Rows) != want.Size() {
			t.Fatalf("accepted result does not match assignment: %+v", res)
		}
		for i, r := range res.Rows {
			if r.CSV == "" {
				t.Fatalf("accepted result row %d is empty", i)
			}
		}
	})
}

// FuzzDecodeWorkerStatus hammers the heartbeat decoder: no panic, no
// accepted status with negative occupancy.
func FuzzDecodeWorkerStatus(f *testing.F) {
	seeds := []string{
		`{"draining":false,"workers":4,"queued":0,"in_flight":1,"active_jobs":1,"utilization":0.25}`,
		`{"draining":true}`,
		`{"unknown_future_field":1,"workers":2}`,
		`{"workers":-1}`, `{"queued":-3}`,
		``, `null`, `true`, `"status"`, `{{{`, `[]`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		st, err := DecodeWorkerStatus(raw)
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("rejection does not wrap ErrWire: %v", err)
			}
			return
		}
		if st.Workers < 0 || st.Queued < 0 || st.InFlight < 0 {
			t.Fatalf("accepted status with negative occupancy: %+v", st)
		}
	})
}
