package qos

import (
	"sync"
	"time"
)

// Breaker is a keyed circuit breaker over job outcomes. A key that
// fails threshold times in a row is opened: Allow refuses it with the
// remaining cooldown instead of letting it occupy capacity just to
// fail again. After the cooldown the key goes half-open and admits
// exactly one probe; the probe's outcome closes or re-opens it.
// internal/serve keys it by parameter region, internal/cluster by
// worker index. All methods are safe for concurrent use.
type Breaker[K comparable] struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	keys      map[K]*breakerKey
	// onChange observes every state change by destination state
	// ("open", "half-open", "closed"). It runs under the breaker's lock,
	// so changes reach it in order.
	onChange func(key K, to string)
}

type breakerKey struct {
	consecutive int       // consecutive qualifying failures while closed
	openUntil   time.Time // nonzero while open
	probing     bool      // a half-open probe is in flight
	trips       uint64    // times this key has been opened
}

// BreakerStatus is one key's snapshot for /statusz.
type BreakerStatus struct {
	State       string `json:"state"` // "closed", "open", "half-open"
	Consecutive int    `json:"consecutive_failures"`
	Trips       uint64 `json:"trips"`
	// RetryAfterSec is the remaining cooldown for an open key.
	RetryAfterSec int64 `json:"retry_after_sec,omitempty"`
}

// NewBreaker builds a breaker that opens a key after threshold
// consecutive failures for the given cooldown. threshold <= 0 disables
// tripping entirely (Allow always true); now == nil uses time.Now.
func NewBreaker[K comparable](threshold int, cooldown time.Duration, now func() time.Time, onChange func(key K, to string)) *Breaker[K] {
	if now == nil {
		now = time.Now
	}
	return &Breaker[K]{
		threshold: threshold,
		cooldown:  cooldown,
		now:       now,
		keys:      make(map[K]*breakerKey),
		onChange:  onChange,
	}
}

// Allow reports whether work for key may run now. For an open key it
// returns false with the remaining cooldown; for a key whose cooldown
// has elapsed it admits one half-open probe and refuses further work
// until the probe resolves via Success, Failure or Release.
func (b *Breaker[K]) Allow(key K) (ok bool, retryAfter time.Duration) {
	if b.threshold <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	k := b.keys[key]
	if k == nil || k.openUntil.IsZero() {
		return true, 0
	}
	if rem := k.openUntil.Sub(b.now()); rem > 0 {
		return false, rem
	}
	// Cooldown over: half-open. One probe runs; everyone else waits for
	// its verdict (a short, bounded retry hint).
	if k.probing {
		return false, b.cooldown / 4
	}
	k.probing = true
	b.onChange(key, "half-open")
	return true, 0
}

// Success records completed work for key, closing it.
func (b *Breaker[K]) Success(key K) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if k := b.keys[key]; k != nil {
		if !k.openUntil.IsZero() || k.probing {
			b.onChange(key, "closed")
		}
		*k = breakerKey{trips: k.trips}
	}
}

// Failure records a qualifying failure for key, opening it once the
// consecutive count reaches the threshold — and immediately re-opening
// a half-open key whose probe failed.
func (b *Breaker[K]) Failure(key K) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	k := b.keys[key]
	if k == nil {
		k = &breakerKey{}
		b.keys[key] = k
	}
	k.consecutive++
	if k.probing || k.consecutive >= b.threshold {
		k.openUntil = b.now().Add(b.cooldown)
		k.probing = false
		k.trips++
		b.onChange(key, "open")
	}
}

// Release resolves a half-open probe without a verdict: the work failed
// for reasons that say nothing about the key (deadline, cancellation,
// panic), so the key stays half-open for the next probe instead of
// being closed on no evidence or locked forever behind a probe that
// never reported back. It reports whether a probe was abandoned.
func (b *Breaker[K]) Release(key K) bool {
	if b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	k := b.keys[key]
	if k == nil || !k.probing {
		return false
	}
	k.probing = false
	return true
}

// Open reports whether key is currently barred from new work: open and
// cooling down, or half-open with its probe in flight.
func (b *Breaker[K]) Open(key K) bool {
	if b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	k := b.keys[key]
	if k == nil || k.openUntil.IsZero() {
		return false
	}
	return k.openUntil.Sub(b.now()) > 0 || k.probing
}

// Status reports key's state; a key never seen is closed.
func (b *Breaker[K]) Status(key K) BreakerStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.status(b.keys[key])
}

// Snapshot reports every key that has failed at least once.
func (b *Breaker[K]) Snapshot() map[K]BreakerStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[K]BreakerStatus, len(b.keys))
	for key, k := range b.keys {
		out[key] = b.status(k)
	}
	return out
}

func (b *Breaker[K]) status(k *breakerKey) BreakerStatus {
	st := BreakerStatus{State: "closed"}
	if k == nil {
		return st
	}
	st.Consecutive, st.Trips = k.consecutive, k.trips
	if !k.openUntil.IsZero() {
		if rem := k.openUntil.Sub(b.now()); rem > 0 {
			st.State = "open"
			st.RetryAfterSec = int64(rem/time.Second) + 1
		} else {
			st.State = "half-open"
		}
	}
	return st
}
