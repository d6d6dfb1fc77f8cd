package cluster

import (
	"net/http"
	"strconv"
	"time"

	"bcnphase/internal/seeded"
)

// RetryPacer paces retries: exponential growth with full jitter,
// capped, and overridden by the server's explicit Retry-After feedback
// when present. It is the one retry schedule in the repo: coordinator
// shard dispatch, bcnd -post and bcnsweep -cluster all use it. Jitter
// matters as much as the exponent — N clients that shed together and
// retry on the same schedule re-collide forever (the oscillation the
// related work warns about); randomizing within the window
// decorrelates them. A pacer serves one retry loop.
type RetryPacer struct {
	base, cap time.Duration
	attempt   int
	rng       *seeded.Locked
}

// NewRetryPacer builds a pacer with the given base and cap (zeros get
// 200ms and 10s). seed 0 seeds from the clock; a fixed seed makes the
// jitter sequence reproducible for tests.
func NewRetryPacer(base, cap time.Duration, seed int64) *RetryPacer {
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	if cap <= 0 {
		cap = 10 * time.Second
	}
	return &RetryPacer{base: base, cap: cap, rng: newJitterRand(seed)}
}

// Next returns the wait before the next attempt. retryAfter is the
// server's Retry-After hint (0 when absent): an explicit hint is
// honored — capped, with a small jitter so simultaneous retriers still
// spread — while absent hints fall back to jittered exponential growth.
func (p *RetryPacer) Next(retryAfter time.Duration) time.Duration {
	defer func() { p.attempt++ }()
	if retryAfter > 0 {
		if retryAfter > p.cap {
			retryAfter = p.cap
		}
		// Up to +25% jitter on top of the hint, never below it.
		return retryAfter + time.Duration(p.rng.Int63n(int64(retryAfter)/4+1))
	}
	d := p.base << p.attempt
	if d > p.cap || d <= 0 {
		d = p.cap
	}
	// Full jitter in [d/2, d].
	return d/2 + time.Duration(p.rng.Int63n(int64(d)/2+1))
}

// RetryableStatus reports whether an HTTP status from a server is worth
// retrying: overload shed (429), gateway failures (502, 504) and
// unavailability (503, e.g. a draining worker) are transient; anything
// else is a verdict about the request itself.
func RetryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// ParseRetryAfterHeader reads a Retry-After header as delay seconds (the only
// form the serving layer emits); malformed or HTTP-date values yield 0.
func ParseRetryAfterHeader(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.ParseInt(v, 10, 64)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// newJitterRand returns the jitter source the dispatch goroutines
// share. Seed 0 seeds from the clock, so independent processes (retrying
// clients, HA replicas) never jitter in lockstep; a fixed seed makes
// the sequence reproducible for tests.
func newJitterRand(seed int64) *seeded.Locked {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return seeded.NewLocked(seed)
}
