package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"bcnphase/internal/runstate"
)

// ErrDigest wraps every shard-result integrity failure: absent or
// mismatched row checksums, or a shard digest that does not cover the
// rows it arrived with. The coordinator treats it as transient (the same
// worker can answer correctly on a retry after in-flight corruption),
// unlike ErrWire, which is a terminal verdict about the message shape.
var ErrDigest = errors.New("cluster: shard result failed integrity check")

// RowSum is the per-row content checksum: the hex SHA-256 of the row's
// JSON encoding (runstate.HashJSON of the row), computed by the worker
// that evaluated it. The coordinator recomputes it on receipt, so a row
// corrupted in flight (truncated or bit-flipped anywhere between
// evaluation and merge) is caught before it can reach the journal.
func RowSum(r Row) string {
	var hx [2 * sha256.Size]byte
	rowSum(&hx, r)
	return string(hx[:])
}

// rowSum writes RowSum(r) into hx, encoding the row in a stack buffer.
func rowSum(hx *[2 * sha256.Size]byte, r Row) {
	var buf [512]byte
	sum := sha256.Sum256(appendRow(buf[:0], r))
	hex.Encode(hx[:], sum[:])
}

// appendRow appends r's JSON encoding to dst: exactly the bytes
// json.Marshal(r) writes, which RowSum and the coordinator's journal
// row records both depend on. Rows whose strings json.Marshal copies
// verbatim (every row the evaluator renders) are encoded directly;
// any other row goes through json.Marshal.
func appendRow(dst []byte, r Row) []byte {
	if plainJSON(r.CSV) && plainJSON(r.FirstPred) {
		dst = append(dst, `{"CSV":"`...)
		dst = append(dst, r.CSV...)
		dst = append(dst, `","Violations":`...)
		dst = strconv.AppendUint(dst, r.Violations, 10)
		dst = append(dst, `,"FirstPred":"`...)
		dst = append(dst, r.FirstPred...)
		return append(dst, `"}`...)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		// Row is a flat struct of strings and integers; its JSON encoding
		// cannot fail. Make the impossible loud instead of threading an
		// error that no caller could act on.
		panic(fmt.Sprintf("cluster: encode row: %v", err))
	}
	return append(dst, raw...)
}

// plainJSON reports whether json.Marshal writes s between its quotes
// unchanged: printable ASCII other than the quote, the backslash and
// the HTML-escaped <, > and &.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		if !jsonVerbatim[s[i]] {
			return false
		}
	}
	return true
}

// jsonVerbatim[c] reports whether json.Marshal copies byte c into a
// JSON string unchanged. appendRow writes, and readShardArtifact reads,
// only strings made of such bytes.
var jsonVerbatim = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return t
}()

// ShardDigest chains a shard's index and its per-row checksums into the
// shard-level digest, via the same length-prefixed runstate hashing the
// journal keys use.
func ShardDigest(index int, rowSums []string) string {
	parts := make([]string, 0, len(rowSums)+1)
	parts = append(parts, "shard:"+strconv.Itoa(index))
	parts = append(parts, rowSums...)
	return runstate.HashChain(parts...)
}

// SignShardResult fills res.RowSums and res.Digest from its rows. The
// worker signs every shard result it evaluates; anything that rewrites
// rows afterwards must re-sign or fail verification at the coordinator.
func SignShardResult(res *ShardResult) {
	res.RowSums = make([]string, len(res.Rows))
	for i, r := range res.Rows {
		res.RowSums[i] = RowSum(r)
	}
	res.Digest = ShardDigest(res.Index, res.RowSums)
}

// VerifyShardResult checks a shard result's integrity envelope: a digest
// present, one checksum per row, every row matching its checksum and the
// digest matching the chained checksums. Every failure wraps ErrDigest.
// It never panics on arbitrary input (fuzzed in fuzz_test.go). Note what
// this does and does not prove: it catches transport corruption, but a
// worker that lies about its rows signs the lie consistently — only
// re-execution on an independent worker (the audit path) catches that.
func VerifyShardResult(res ShardResult) error {
	if res.Digest == "" {
		return fmt.Errorf("%w: shard %d carries no digest", ErrDigest, res.Index)
	}
	if len(res.RowSums) != len(res.Rows) {
		return fmt.Errorf("%w: shard %d has %d row checksums for %d rows", ErrDigest, res.Index, len(res.RowSums), len(res.Rows))
	}
	var hx [2 * sha256.Size]byte
	for i, r := range res.Rows {
		if rowSum(&hx, r); string(hx[:]) != res.RowSums[i] {
			return fmt.Errorf("%w: shard %d row %d does not match its checksum", ErrDigest, res.Index, i)
		}
	}
	if ShardDigest(res.Index, res.RowSums) != res.Digest {
		return fmt.Errorf("%w: shard %d digest does not cover its row checksums", ErrDigest, res.Index)
	}
	return nil
}

// rowsEqual reports whether two row slices are bit-exact: same length,
// every field identical. The audit comparison is exactly this — "close"
// is not a concept the merged map has.
func rowsEqual(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffRows counts positions where two equal-length row slices disagree
// (length mismatch counts every row of the longer slice).
func diffRows(a, b []Row) int {
	if len(a) != len(b) {
		if len(a) > len(b) {
			return len(a)
		}
		return len(b)
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
