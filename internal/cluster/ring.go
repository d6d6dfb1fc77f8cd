package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"

	"bcnphase/internal/seeded"
)

// ring is a consistent-hash ring over worker indices. Each worker owns
// ringReplicas virtual nodes, so shard keys spread evenly and the death
// of one worker moves only that worker's keys — the other assignments
// stay put, which keeps worker-loss re-assignment from reshuffling the
// whole sweep (re-assignment storms are exactly what the coordinator
// must damp).
type ring struct {
	nodes []ringNode // sorted by pos
}

type ringNode struct {
	pos    uint64
	worker int
}

const ringReplicas = 64

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	// Splitmix64 finalizer: FNV alone leaves the positions of short,
	// near-identical inputs (worker URLs differing in one port digit,
	// replica suffixes "#0".."#63", sequential shard keys) correlated
	// enough that one worker can end up owning almost no arc. The
	// avalanche decorrelates them; nothing durable depends on these
	// positions, so the mix is free to change the placement.
	return seeded.Mix(h.Sum64())
}

// newRing places n workers (identified by their stable names, typically
// URLs) on the ring. Names, not indices, are hashed, so the assignment
// of a given shard key is stable across runs with the same worker set.
func newRing(names []string) *ring {
	r := &ring{nodes: make([]ringNode, 0, len(names)*ringReplicas)}
	for w, name := range names {
		for i := 0; i < ringReplicas; i++ {
			r.nodes = append(r.nodes, ringNode{pos: hash64(fmt.Sprintf("%s#%d", name, i)), worker: w})
		}
	}
	sort.Slice(r.nodes, func(i, j int) bool {
		if r.nodes[i].pos != r.nodes[j].pos {
			return r.nodes[i].pos < r.nodes[j].pos
		}
		return r.nodes[i].worker < r.nodes[j].worker
	})
	return r
}

// owner returns the worker owning key: the first clockwise virtual node
// whose worker passes the eligible filter (nil means all are eligible).
// Returns -1 when no worker is eligible.
func (r *ring) owner(key string, eligible func(worker int) bool) int {
	if len(r.nodes) == 0 {
		return -1
	}
	pos := hash64(key)
	start := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].pos >= pos })
	for i := 0; i < len(r.nodes); i++ {
		n := r.nodes[(start+i)%len(r.nodes)]
		if eligible == nil || eligible(n.worker) {
			return n.worker
		}
	}
	return -1
}
