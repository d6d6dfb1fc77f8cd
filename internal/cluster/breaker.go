package cluster

import (
	"sync"
	"time"

	"bcnphase/internal/qos"
)

// Breaker state encoding for the cluster_worker_breaker_state gauge.
const (
	breakerClosed      = 0.0
	breakerHalfOpen    = 1.0
	breakerOpen        = 2.0
	breakerQuarantined = 3.0
)

var breakerGauge = map[string]float64{"closed": breakerClosed, "half-open": breakerHalfOpen, "open": breakerOpen}

// workerBreaker is the per-worker circuit breaker over shard dispatch
// outcomes: qos.Breaker keyed by worker index, plus quarantine. A
// flapping worker is opened: the coordinator stops routing shards to
// it, lets the other workers steal its queue, and probes it once per
// cooldown instead of hammering a node that is already failing —
// damping, not amplifying, the retry loop.
type workerBreaker struct {
	// mu orders quarantine against the breaker's own transitions, so a
	// quarantined worker's gauge is never overwritten by a late probe.
	mu          sync.Mutex
	br          *qos.Breaker[int]
	names       []string
	quarantined []bool
	m           *Metrics
}

// WorkerBreakerStatus is one worker's breaker snapshot for /statusz.
// State is "closed", "open", "half-open" or "quarantined".
type WorkerBreakerStatus struct {
	Worker string `json:"worker"`
	qos.BreakerStatus
}

// newWorkerBreaker builds a breaker for the named workers. threshold
// <= 0 disables tripping (Allow always true) but not quarantine;
// now == nil uses time.Now.
func newWorkerBreaker(names []string, threshold int, cooldown time.Duration, now func() time.Time, m *Metrics) *workerBreaker {
	b := &workerBreaker{names: names, quarantined: make([]bool, len(names)), m: m}
	b.br = qos.NewBreaker(threshold, cooldown, now, func(w int, to string) {
		m.BreakerTransitions.With(to).Inc()
		m.BreakerState.With(names[w]).Set(breakerGauge[to])
	})
	// Every worker's state series exists from startup, so a dashboard
	// sees "closed" rather than an absent series before the first trip.
	for _, name := range names {
		m.BreakerState.With(name).Set(breakerClosed)
	}
	return b
}

// Allow reports whether a shard may be dispatched to worker w now. An
// open worker rejects with its remaining cooldown; once the cooldown
// elapses exactly one probe dispatch is admitted.
func (b *workerBreaker) Allow(w int) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.quarantined[w] {
		// Quarantine outranks everything, including a disabled breaker:
		// it is an integrity verdict, not load management.
		return false, time.Hour
	}
	return b.br.Allow(w)
}

// Success records a completed dispatch on worker w, closing it. A
// quarantined worker stays quarantined: answering *something* is not
// evidence of answering *correctly*.
func (b *workerBreaker) Success(w int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.quarantined[w] {
		b.br.Success(w)
	}
}

// Failure records a failed dispatch on worker w.
func (b *workerBreaker) Failure(w int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.quarantined[w] {
		b.br.Failure(w)
	}
}

// Release abandons a half-open probe on worker w without a verdict
// (the dispatch was cancelled, not failed): the probe slot reopens so
// the next Allow can claim it.
func (b *workerBreaker) Release(w int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.quarantined[w] && b.br.Release(w) {
		b.m.BreakerState.With(b.names[w]).Set(breakerOpen)
	}
}

// Open reports whether worker w is currently barred from new dispatches
// (no probe admissible right now).
func (b *workerBreaker) Open(w int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.quarantined[w] || b.br.Open(w)
}

// Quarantine places worker w in the terminal quarantined state: the
// audit verdict that it was outvoted in a result-integrity quorum.
// Unlike an open breaker it never half-opens — wrong answers are a
// correctness problem, not a load problem, and only an operator restart
// clears it. Allow and Open bar w permanently and Success, Failure and
// Release are no-ops. Returns false when w was already quarantined, so
// callers can make the quorum verdict idempotent.
func (b *workerBreaker) Quarantine(w int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.quarantined[w] {
		return false
	}
	b.quarantined[w] = true
	b.m.BreakerTransitions.With("quarantined").Inc()
	b.m.BreakerState.With(b.names[w]).Set(breakerQuarantined)
	return true
}

// Quarantined reports whether worker w has been quarantined.
func (b *workerBreaker) Quarantined(w int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.quarantined[w]
}

// Snapshot lists every worker's breaker state for /statusz. A
// quarantine counts as one more trip.
func (b *workerBreaker) Snapshot() []WorkerBreakerStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]WorkerBreakerStatus, len(b.names))
	for w, name := range b.names {
		st := b.br.Status(w)
		if b.quarantined[w] {
			st = qos.BreakerStatus{State: "quarantined", Consecutive: st.Consecutive, Trips: st.Trips + 1}
		}
		out[w] = WorkerBreakerStatus{Worker: name, BreakerStatus: st}
	}
	return out
}
