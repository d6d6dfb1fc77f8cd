package qos

import (
	"reflect"
	"testing"
	"time"
)

// TestBreakerConformance runs one table of breaker behaviours with the
// key types the repo uses: parameter-region strings (internal/serve)
// and worker indices (internal/cluster).
func TestBreakerConformance(t *testing.T) {
	t.Run("string", func(t *testing.T) {
		testBreakerConformance(t, "solve:gi=2:gd=-8:n=50", "netsim:gi=0:gd=0:n=4")
	})
	t.Run("int", func(t *testing.T) { testBreakerConformance(t, 0, 1) })
}

func testBreakerConformance[K comparable](t *testing.T, key, other K) {
	type rig struct {
		b       *Breaker[K]
		clk     *fakeClock
		changes []string // destination states reported to the hook
	}
	newRig := func(threshold int) *rig {
		r := &rig{clk: newFakeClock()}
		r.b = NewBreaker(threshold, 30*time.Second, r.clk.now, func(_ K, to string) {
			r.changes = append(r.changes, to)
		})
		return r
	}
	trip := func(r *rig) {
		for i := 0; i < 3; i++ {
			r.b.Failure(key)
		}
	}
	for _, c := range []struct {
		name string
		run  func(t *testing.T, r *rig)
	}{
		{"threshold", func(t *testing.T, r *rig) {
			for i := 0; i < 2; i++ {
				r.b.Failure(key)
				if ok, _ := r.b.Allow(key); !ok {
					t.Fatalf("opened after %d failures, threshold is 3", i+1)
				}
			}
			r.b.Failure(key)
			ok, retry := r.b.Allow(key)
			if ok {
				t.Fatal("key still admitting after threshold failures")
			}
			if retry <= 0 || retry > 30*time.Second {
				t.Errorf("retry hint %v outside (0, cooldown]", retry)
			}
			if !r.b.Open(key) {
				t.Error("tripped key not Open")
			}
			if ok, _ := r.b.Allow(other); !ok || r.b.Open(other) {
				t.Error("unrelated key barred")
			}
		}},
		{"success resets count", func(t *testing.T, r *rig) {
			r.b.Failure(key)
			r.b.Failure(key)
			r.b.Success(key)
			r.b.Failure(key)
			r.b.Failure(key)
			if ok, _ := r.b.Allow(key); !ok {
				t.Error("non-consecutive failures tripped the breaker")
			}
			if len(r.changes) != 0 {
				t.Errorf("closed-key success reported changes %v", r.changes)
			}
		}},
		{"half-open probe", func(t *testing.T, r *rig) {
			trip(r)
			if ok, _ := r.b.Allow(key); ok {
				t.Fatal("open key admitted")
			}
			r.clk.advance(31 * time.Second)
			// First caller becomes the probe; the second waits.
			if ok, _ := r.b.Allow(key); !ok {
				t.Fatal("half-open key refused its probe")
			}
			if ok, retry := r.b.Allow(key); ok {
				t.Fatal("second caller admitted during probe")
			} else if retry <= 0 {
				t.Error("probe-blocked caller got no retry hint")
			}
			if !r.b.Open(key) {
				t.Error("key with a probe in flight not Open")
			}
			// Probe success closes the key.
			r.b.Success(key)
			if ok, _ := r.b.Allow(key); !ok || r.b.Open(key) {
				t.Error("closed key refused work")
			}
			if want := []string{"open", "half-open", "closed"}; !reflect.DeepEqual(r.changes, want) {
				t.Errorf("changes %v, want %v", r.changes, want)
			}
		}},
		{"probe failure re-opens", func(t *testing.T, r *rig) {
			trip(r)
			r.clk.advance(31 * time.Second)
			if ok, _ := r.b.Allow(key); !ok {
				t.Fatal("probe refused")
			}
			r.b.Failure(key) // probe failed → immediate reopen
			if ok, _ := r.b.Allow(key); ok {
				t.Error("key closed after failed probe")
			}
			if st := r.b.Status(key); st.Trips != 2 || st.State != "open" {
				t.Errorf("status %+v, want open with 2 trips", st)
			}
		}},
		{"release keeps half-open", func(t *testing.T, r *rig) {
			trip(r)
			r.clk.advance(31 * time.Second)
			if ok, _ := r.b.Allow(key); !ok {
				t.Fatal("probe refused")
			}
			// The probe died for unrelated reasons (deadline); the next
			// caller must get to probe again rather than the key closing
			// or jamming.
			if !r.b.Release(key) {
				t.Error("Release did not report the abandoned probe")
			}
			if r.b.Release(key) {
				t.Error("second Release reported a probe")
			}
			if st := r.b.Status(key); st.State != "half-open" {
				t.Errorf("released key state %s", st.State)
			}
			if ok, _ := r.b.Allow(key); !ok {
				t.Error("key jammed after released probe")
			}
			if want := []string{"open", "half-open", "half-open"}; !reflect.DeepEqual(r.changes, want) {
				t.Errorf("changes %v, want %v", r.changes, want)
			}
		}},
		{"snapshot states", func(t *testing.T, r *rig) {
			r.b.Failure(other)
			trip(r)
			snap := r.b.Snapshot()
			if len(snap) != 2 || snap[other].State != "closed" || snap[key].State != "open" {
				t.Errorf("snapshot %v", snap)
			}
			if st := snap[key]; st.Consecutive != 3 || st.Trips != 1 || st.RetryAfterSec != 31 {
				t.Errorf("open key status %+v", st)
			}
			r.clk.advance(31 * time.Second)
			if st := r.b.Snapshot()[key]; st.State != "half-open" || st.RetryAfterSec != 0 {
				t.Errorf("cooled key status %+v", st)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) { c.run(t, newRig(3)) })
	}
	t.Run("disabled", func(t *testing.T) {
		r := newRig(0)
		for i := 0; i < 100; i++ {
			r.b.Failure(key)
		}
		if ok, _ := r.b.Allow(key); !ok || r.b.Open(key) {
			t.Error("disabled breaker tripped")
		}
		if len(r.b.Snapshot()) != 0 || len(r.changes) != 0 {
			t.Error("disabled breaker recorded state")
		}
	})
}
