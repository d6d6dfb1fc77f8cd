package cluster

import "testing"

// TestHash64Golden pins ring positions for worker names and replica
// suffixes: the FNV-1a hash plus splitmix64 finalizer decides which
// worker owns each shard key, so a change here reshuffles placement.
func TestHash64Golden(t *testing.T) {
	for _, c := range []struct {
		in   string
		want uint64
	}{
		{"http://127.0.0.1:8081", 0x15888cef743b77d1},
		{"http://127.0.0.1:8082", 0xedd623623b90b4dc},
		{"http://127.0.0.1:8081#0", 0x5bbf5fa0d1083629},
		{"http://127.0.0.1:8081#63", 0x1c14bceda43bc0b5},
		{"w0#1", 0x5509e9c60bc41401},
		{"", 0xf52a15e9a9b5e89b},
		{"gi=0:gd=0", 0xb8486ddac060ca2f},
	} {
		if got := hash64(c.in); got != c.want {
			t.Errorf("hash64(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
}
