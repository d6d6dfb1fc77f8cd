package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ErrWire wraps every coordinator wire-message validation failure;
// handlers map it to HTTP 400.
var ErrWire = errors.New("cluster: invalid wire message")

// MaxShardPoints caps the points one shard assignment may carry.
const MaxShardPoints = 512

// MaxWireBytes bounds any single coordinator wire message.
const MaxWireBytes = 4 << 20

// ShardSpec is one shard assignment: the coordinator → worker payload,
// carried as the "shard" body of an ordinary bcnd job spec, so a worker
// needs no cluster-specific endpoint — admission control, supervision
// and journal dedup all apply unchanged. Grid travels whole (not just
// the base parameters) so the shard's dedup key pins the full sweep
// identity, and Index makes two different chunks of the same grid
// distinct artifacts.
//
// The points travel as grid indices, not floats: Runs holds sorted,
// non-overlapping, non-adjacent half-open runs [lo, hi) of indices into
// the grid's row-major enumeration — the one canonical spelling of an
// index set. A fresh shard is one run; a resumed shard holding only
// its missing points may have several. The worker derives each point
// with the same code GainGrid.Points runs (ShardSpec.Points).
type ShardSpec struct {
	Grid  GainGrid     `json:"grid"`
	Index int          `json:"index"`
	Runs  indexRunList `json:"runs"`
	// LegacyPoints catches the float point list coordinators sent
	// before index runs, only so Validate can refuse it by name.
	LegacyPoints json.RawMessage `json:"points,omitempty"`
}

// indexRunList decodes like [][2]int but refuses a run that is not
// exactly a pair of integers: encoding/json would silently drop a third
// element or zero-fill a missing one.
type indexRunList [][2]int

// UnmarshalJSON reads a JSON array of [lo, hi) pairs. encoding/json
// has already checked b's syntax, so only the shape is checked here; a
// hand scan keeps the shard request path free of a second decode.
func (l *indexRunList) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*l = nil
		return nil
	}
	i := 0
	space := func() {
		for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
			i++
		}
	}
	next := func(c byte) bool {
		space()
		if i < len(b) && b[i] == c {
			i++
			return true
		}
		return false
	}
	integer := func() (int, bool) {
		space()
		j := i
		for i < len(b) && (b[i] == '-' || '0' <= b[i] && b[i] <= '9') {
			i++
		}
		n, err := strconv.Atoi(string(b[j:i]))
		return n, err == nil
	}
	runs := indexRunList{}
	if !next('[') {
		return errRunShape
	}
	for !next(']') {
		if len(runs) > 0 && !next(',') {
			return errRunShape
		}
		if !next('[') {
			return errRunShape
		}
		lo, ok := integer()
		if !ok || !next(',') {
			return errRunShape
		}
		hi, ok := integer()
		if !ok || !next(']') {
			return errRunShape
		}
		runs = append(runs, [2]int{lo, hi})
	}
	*l = runs
	return nil
}

var errRunShape = fmt.Errorf("%w: shard: runs must be an array of [lo, hi) integer pairs", ErrWire)

// Validate checks a shard assignment's feasibility.
func (s *ShardSpec) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: shard: %s", ErrWire, fmt.Sprintf(format, args...))
	}
	if s.LegacyPoints != nil {
		return fail(`legacy "points" list refused: the shard wire format carries grid index "runs"; upgrade coordinators and workers together`)
	}
	if err := s.Grid.Validate(); err != nil {
		return fmt.Errorf("%w: shard: %v", ErrWire, err)
	}
	if s.Grid.Steps > MaxClusterSteps {
		return fail("grid steps=%d exceeds cluster cap %d", s.Grid.Steps, MaxClusterSteps)
	}
	if s.Index < 0 {
		return fail("index=%d must be non-negative", s.Index)
	}
	if len(s.Runs) == 0 {
		return fail("no index runs")
	}
	// Each run must start past the previous run's end (sorted,
	// non-overlapping, non-adjacent) and end inside the grid.
	prev, n := -1, s.Grid.Steps*s.Grid.Steps
	for i, r := range s.Runs {
		if r[0] <= prev || r[0] >= r[1] || r[1] > n {
			return fail("run %d [%d, %d) is not a canonical index run of a %d-point grid", i, r[0], r[1], n)
		}
		prev = r[1]
	}
	if size := s.Size(); size > MaxShardPoints {
		return fail("%d points, want 1..%d", size, MaxShardPoints)
	}
	return nil
}

// Size is the number of points the shard's runs cover.
func (s *ShardSpec) Size() int {
	n := 0
	for _, r := range s.Runs {
		n += r[1] - r[0]
	}
	return n
}

// Points derives the shard's points in run order. The spec must have
// passed Validate.
func (s *ShardSpec) Points() []GainPoint {
	pts := make([]GainPoint, 0, s.Size())
	for _, r := range s.Runs {
		pts = s.Grid.appendPoints(pts, r[0], r[1])
	}
	return pts
}

// indexRuns spells a strictly increasing index list as its canonical
// runs.
func indexRuns(idx []int) [][2]int {
	var runs [][2]int
	for _, k := range idx {
		if n := len(runs); n > 0 && runs[n-1][1] == k {
			runs[n-1][1]++
		} else {
			runs = append(runs, [2]int{k, k + 1})
		}
	}
	return runs
}

// ShardResult is the worker → coordinator result envelope: one Row per
// assigned point, in assignment order, plus the integrity envelope the
// worker signs over them (digest.go). The integrity fields live only on
// the wire — journal point records stay plain Rows, so coordinator
// journals remain interchangeable with cmd/bcnsweep -resume journals.
type ShardResult struct {
	Index int   `json:"index"`
	Rows  []Row `json:"rows"`
	// RowSums[i] is RowSum(Rows[i]), computed by the evaluating worker.
	RowSums []string `json:"row_sums,omitempty"`
	// Digest is ShardDigest(Index, RowSums).
	Digest string `json:"digest,omitempty"`
}

// Shard is one planned unit of distribution: a grid-order chunk of
// global grid indices with their journal keys.
type Shard struct {
	Index int
	// GridIdx lists the shard's positions in the full grid enumeration,
	// strictly increasing.
	GridIdx []int
	// Keys[i] is the journal key of the point at GridIdx[i]; nil when
	// the coordinator runs without a journal.
	Keys []string
}

// DoneKey is the journal key of a shard's completion marker: the record
// the coordinator appends after every row of the shard is durable. A
// shard with rows but no done marker is an orphan — a worker or
// coordinator died mid-shard — and must be re-executed, not trusted.
func DoneKey(fingerprint string, index int) string {
	return fmt.Sprintf("shard-done:%s:%d", fingerprint, index)
}

// doneMarker is the done record's JSON value.
type doneMarker struct {
	Index  int `json:"index"`
	Points int `json:"points"`
}

// planShards enumerates the grid and chunks it into shards of at most
// size points, in grid order. The plan depends only on the grid and the
// shard size — never on the worker set — so shard composition (and with
// it every done-marker key) is stable across restarts and worker churn.
// With keys false it leaves every Shard.Keys nil, which is all a
// coordinator without a journal needs.
func planShards(grid GainGrid, size int, keys bool) (fingerprint string, points []GainPoint, shards []Shard, err error) {
	if err := grid.Validate(); err != nil {
		return "", nil, nil, err
	}
	if size <= 0 {
		size = DefaultShardSize
	}
	if size > MaxShardPoints {
		size = MaxShardPoints
	}
	fingerprint, err = grid.Fingerprint()
	if err != nil {
		return "", nil, nil, err
	}
	points = grid.Points()
	for lo := 0; lo < len(points); lo += size {
		hi := lo + size
		if hi > len(points) {
			hi = len(points)
		}
		sh := Shard{Index: len(shards), GridIdx: make([]int, 0, hi-lo)}
		if keys {
			sh.Keys = make([]string, 0, hi-lo)
		}
		for i := lo; i < hi; i++ {
			sh.GridIdx = append(sh.GridIdx, i)
			if keys {
				sh.Keys = append(sh.Keys, PointKey(fingerprint, points[i]))
			}
		}
		shards = append(shards, sh)
	}
	return fingerprint, points, shards, nil
}

// DecodeSweepRequest reads one grid submission from r (POST /v1/sweeps),
// rejecting unknown fields, trailing data, oversized bodies and
// anything that fails validation or exceeds the cluster resolution cap.
// It never panics on arbitrary input (fuzzed in fuzz_test.go); every
// failure wraps ErrWire.
func DecodeSweepRequest(r io.Reader, maxBytes int64) (GainGrid, error) {
	if maxBytes <= 0 {
		maxBytes = MaxWireBytes
	}
	// Limit to maxBytes+1 and double-wrap the decode failure so a typed
	// *http.MaxBytesError from a MaxBytesReader-wrapped body survives to
	// the handler (which maps it to 413); truncating exactly at the budget
	// would turn it into a generic unexpected-EOF 400.
	dec := json.NewDecoder(io.LimitReader(r, maxBytes+1))
	dec.DisallowUnknownFields()
	var g GainGrid
	if err := dec.Decode(&g); err != nil {
		return GainGrid{}, fmt.Errorf("%w: %w", ErrWire, err)
	}
	if dec.More() {
		return GainGrid{}, fmt.Errorf("%w: trailing data after sweep request", ErrWire)
	}
	if err := g.Validate(); err != nil {
		return GainGrid{}, fmt.Errorf("%w: %v", ErrWire, err)
	}
	if g.Steps > MaxClusterSteps {
		return GainGrid{}, fmt.Errorf("%w: grid steps=%d exceeds cluster cap %d", ErrWire, g.Steps, MaxClusterSteps)
	}
	return g, nil
}

// jobEnvelope is the bcnd job spec the coordinator posts to a worker's
// /v1/jobs. It mirrors serve.Spec's JSON shape for the shard kind;
// keeping a local copy here (instead of importing internal/serve) keeps
// the dependency arrow pointing serve → cluster.
type jobEnvelope struct {
	Kind      string     `json:"kind"`
	TimeoutMs int64      `json:"timeout_ms,omitempty"`
	Shard     *ShardSpec `json:"shard"`
}

// EncodeShardJob renders the bcnd job spec submitting sh as a shard job
// with the given wall-clock budget.
func EncodeShardJob(sh *ShardSpec, timeoutMs int64) ([]byte, error) {
	body, err := json.Marshal(jobEnvelope{Kind: "shard", TimeoutMs: timeoutMs, Shard: sh})
	if err != nil {
		return nil, fmt.Errorf("cluster: encode shard job: %w", err)
	}
	return body, nil
}

// shardArtifact is the coordinator's view of a worker's artifact JSON.
// Decoding is deliberately lenient about extra fields — the serving
// layer may grow its artifact envelope — but strict about the parts the
// merge depends on.
type shardArtifact struct {
	Key   string       `json:"key"`
	Kind  string       `json:"kind"`
	Shard *ShardResult `json:"shard"`
}

// DecodeShardArtifact parses a worker's job artifact into its
// ShardResult, validating it against the assignment it answers: same
// shard index, exactly one Row per assigned point, every row non-empty.
// The artifact shape workers write is read in one pass
// (readShardArtifact); anything else goes through json.Unmarshal. It
// never panics on arbitrary input (fuzzed in fuzz_test.go).
func DecodeShardArtifact(raw []byte, want *ShardSpec) (ShardResult, error) {
	if int64(len(raw)) > MaxWireBytes {
		return ShardResult{}, fmt.Errorf("%w: artifact of %d bytes exceeds cap", ErrWire, len(raw))
	}
	assigned := 0
	if want != nil {
		assigned = want.Size()
	}
	res, ok := readShardArtifact(raw, assigned)
	if !ok {
		var art shardArtifact
		if err := json.Unmarshal(raw, &art); err != nil {
			return ShardResult{}, fmt.Errorf("%w: %v", ErrWire, err)
		}
		if art.Kind != "shard" || art.Shard == nil {
			return ShardResult{}, fmt.Errorf("%w: artifact kind %q is not a shard result", ErrWire, art.Kind)
		}
		res = *art.Shard
	}
	if want != nil {
		if res.Index != want.Index {
			return ShardResult{}, fmt.Errorf("%w: shard result index %d answers assignment %d", ErrWire, res.Index, want.Index)
		}
		if len(res.Rows) != assigned {
			return ShardResult{}, fmt.Errorf("%w: shard result has %d rows for %d assigned points", ErrWire, len(res.Rows), assigned)
		}
	}
	for i := range res.Rows {
		if res.Rows[i].CSV == "" {
			return ShardResult{}, fmt.Errorf("%w: shard result row %d is empty", ErrWire, i)
		}
	}
	return res, nil
}

// readShardArtifact reads the exact artifact a worker writes for a
// shard job, json.Marshal of serve.Artifact:
//
//	{"key":"…","kind":"shard","invariants":"…","shard":{"index":0,
//	"rows":[{"CSV":"…","Violations":0,"FirstPred":"…"},…],
//	"row_sums":["…",…],"digest":"…"}}
//
// with no whitespace, row_sums and digest optional, unsigned integers
// without leading zeros, and every string made of bytes json.Marshal
// writes verbatim (printable ASCII other than the quote, the backslash,
// <, > and &), so nothing needs unescaping. It reads in one pass without
// reflection, and every string in the result is a substring of one copy
// of raw. ok is false for any other input; whenever ok is true, res is
// what json.Unmarshal decodes from raw (FuzzShardArtifactReader).
// rowsHint presizes the row slice.
func readShardArtifact(raw []byte, rowsHint int) (res ShardResult, ok bool) {
	r := wireReader{s: string(raw)}
	r.lit(`{"key":`)
	r.str()
	r.lit(`,"kind":"shard","invariants":`)
	r.str()
	r.lit(`,"shard":{"index":`)
	res.Index = int(r.uint(9))
	r.lit(`,"rows":[`)
	res.Rows = make([]Row, 0, rowsHint)
	for !r.bad && !r.opt(`]`) {
		if len(res.Rows) > 0 {
			r.lit(`,`)
		}
		var row Row
		r.lit(`{"CSV":`)
		row.CSV = r.str()
		r.lit(`,"Violations":`)
		row.Violations = r.uint(19)
		r.lit(`,"FirstPred":`)
		row.FirstPred = r.str()
		r.lit(`}`)
		res.Rows = append(res.Rows, row)
	}
	if r.opt(`,"row_sums":[`) {
		res.RowSums = make([]string, 0, len(res.Rows))
		for !r.bad && !r.opt(`]`) {
			if len(res.RowSums) > 0 {
				r.lit(`,`)
			}
			res.RowSums = append(res.RowSums, r.str())
		}
	}
	if r.opt(`,"digest":`) {
		res.Digest = r.str()
	}
	r.lit(`}}`)
	if r.bad || r.s != "" {
		return ShardResult{}, false
	}
	return res, true
}

// wireReader consumes a string front to back. The first mismatch sets
// bad, after which every read is a no-op returning the zero value.
type wireReader struct {
	s   string
	bad bool
}

// opt consumes lit if the input starts with it.
func (r *wireReader) opt(lit string) bool {
	if r.bad || !strings.HasPrefix(r.s, lit) {
		return false
	}
	r.s = r.s[len(lit):]
	return true
}

// lit consumes lit or marks the input bad.
func (r *wireReader) lit(lit string) {
	if !r.opt(lit) {
		r.bad = true
	}
}

// str consumes a quoted string whose bytes json.Marshal writes
// verbatim (jsonVerbatim), so it needs no unescaping.
func (r *wireReader) str() string {
	r.lit(`"`)
	i := 0
	for i < len(r.s) && jsonVerbatim[r.s[i]] {
		i++
	}
	if r.bad || i == len(r.s) || r.s[i] != '"' {
		r.bad = true
		return ""
	}
	v := r.s[:i]
	r.s = r.s[i+1:]
	return v
}

// uint consumes an unsigned decimal integer of at most maxDigits digits
// with no leading zero.
func (r *wireReader) uint(maxDigits int) uint64 {
	if r.bad {
		return 0
	}
	var v uint64
	n := 0
	for ; n < len(r.s) && n <= maxDigits && '0' <= r.s[n] && r.s[n] <= '9'; n++ {
		v = v*10 + uint64(r.s[n]-'0')
	}
	if n == 0 || n > maxDigits || (n > 1 && r.s[0] == '0') {
		r.bad = true
		return 0
	}
	r.s = r.s[n:]
	return v
}

// WorkerStatus is the heartbeat envelope: the slice of a worker's
// /statusz the coordinator acts on. Unknown fields are ignored (the
// serving layer adds fields over time); what is present must be typed
// correctly.
type WorkerStatus struct {
	Draining    bool    `json:"draining"`
	Workers     int     `json:"workers"`
	Queued      int     `json:"queued"`
	InFlight    int     `json:"in_flight"`
	ActiveJobs  int     `json:"active_jobs"`
	Utilization float64 `json:"utilization"`
}

// DecodeWorkerStatus parses one heartbeat response. It never panics on
// arbitrary input (fuzzed in fuzz_test.go).
func DecodeWorkerStatus(raw []byte) (WorkerStatus, error) {
	if int64(len(raw)) > MaxWireBytes {
		return WorkerStatus{}, fmt.Errorf("%w: status of %d bytes exceeds cap", ErrWire, len(raw))
	}
	var st WorkerStatus
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&st); err != nil {
		return WorkerStatus{}, fmt.Errorf("%w: %v", ErrWire, err)
	}
	if st.Workers < 0 || st.Queued < 0 || st.InFlight < 0 {
		return WorkerStatus{}, fmt.Errorf("%w: negative occupancy in worker status", ErrWire)
	}
	return st, nil
}
