// Package seeded holds the repo's one copy of seeded randomness: the
// splitmix64 finalizer, the (seed, id) stream derivation the fault
// injectors use, and a mutex-guarded rand.Rand for a source that
// several goroutines share. Seeded runs replay byte for byte only while
// every layer derives its streams the same way, which is why there is
// exactly one of each.
package seeded

import (
	"math/rand"
	"sync"
)

// Mix is the splitmix64 finalizer: a bijective avalanche over 64 bits,
// so inputs that differ in one low bit land far apart.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Seed derives the seed of stream id from a run's seed, so each fault
// dimension draws from its own sequence and tuning one dimension never
// shifts another's draws. The result may be 0, and stays deterministic.
func Seed(seed, id int64) int64 {
	return int64(Mix(uint64(seed) + uint64(id)*0x9e3779b97f4a7c15))
}

// Stream returns the rand.Rand of stream id under seed, for a single
// goroutine.
func Stream(seed, id int64) *rand.Rand { return rand.New(rand.NewSource(Seed(seed, id))) }

// Locked is a mutex-guarded rand.Rand: goroutines share one
// deterministic source without a data race.
type Locked struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewLocked returns a shared source seeded with seed as given.
func NewLocked(seed int64) *Locked { return &Locked{rng: rand.New(rand.NewSource(seed))} }

// Float64 returns a draw in [0, 1).
func (l *Locked) Float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64()
}

// Int63n returns a draw in [0, n), or 0 when n <= 0.
func (l *Locked) Int63n(n int64) int64 {
	if n <= 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Int63n(n)
}

// Intn returns a draw in [0, n), or 0 when n <= 0.
func (l *Locked) Intn(n int) int { return int(l.Int63n(int64(n))) }
