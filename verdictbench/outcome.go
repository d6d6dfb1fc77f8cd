package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	points, jobs      int
	window            time.Duration   // measured wall time; runs stop once it reaches the budget
	latencies         []time.Duration // one per attempted op, in run order
	stolen            []bool          // latencies[i]'s job saw the steal clock advance
	sessions          []session       // the measured part of each set-up's lifetime
	failures          []string        // the first few failures, for the report
	guard             error           // keep-alive guard verdict
	props             map[string]any  // workload property report
	layer             map[string]float64
}

func newOutcome() *outcome {
	return &outcome{props: map[string]any{}, layer: map[string]float64{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// observe records one job's latency, and whether the machine's steal
// clock advanced while it ran. Workloads whose jobs take milliseconds
// read the clock around each job; job-mix's take about 100 µs, against
// some 20 µs to read it, so it passes false.
func (o *outcome) observe(lat time.Duration, stolen bool) {
	o.latencies = append(o.latencies, lat)
	o.stolen = append(o.stolen, stolen)
}

// session is what one set-up measured: its set-up time, its verified
// jobs and points, its measured wall time, its latencies
// (latencies[lo:hi]) and the CPU time the hypervisor stole from the
// machine while it ran. Every session of a workload gets the same mix
// of inputs.
type session struct {
	setup        time.Duration
	jobs, points int
	window       time.Duration
	lo, hi       int
	steal        int64 // clock ticks
}

// mark is the outcome's totals when a session's measured part began.
type mark struct {
	setup        time.Duration
	jobs, points int
	window       time.Duration
	lat          int
	steal        int64
}

func (o *outcome) begin(setup time.Duration) mark {
	return mark{setup, o.jobs, o.points, o.window, len(o.latencies), stealTicks()}
}

// end closes the session begun at m; steal is the steal clock read when
// its measured part ended.
func (o *outcome) end(m mark, steal int64) {
	if o.window <= m.window {
		return
	}
	o.sessions = append(o.sessions, session{
		setup: m.setup, jobs: o.jobs - m.jobs, points: o.points - m.points, window: o.window - m.window,
		lo: m.lat, hi: len(o.latencies), steal: steal - m.steal,
	})
}

// clockTicks is USER_HZ, the unit of /proc/stat.
const clockTicks = 100

// stealTicks reads the machine's total steal time from /proc/stat: CPU
// time the hypervisor gave to other guests while this one wanted to
// run. It reads 0 where there is no such file.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// machineCPUs is how many CPUs the steal total of /proc/stat sums over.
var machineCPUs = func() int {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return runtime.NumCPU()
	}
	n := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if len(line) > 3 && strings.HasPrefix(line, "cpu") && line[3] >= '0' && line[3] <= '9' {
			n++
		}
	}
	return max(n, 1)
}()

// stealShare is the share of the machine's CPU time stolen during s,
// at most maxStealShare.
func (s session) stealShare() float64 {
	return min(maxStealShare, float64(s.steal)/clockTicks/(float64(machineCPUs)*s.window.Seconds()))
}

// maxStealShare caps the steal correction.
const maxStealShare = 0.9

// unstolen scales a wall time measured during s to the host's unstolen
// time: the share the hypervisor gave to other guests is taken out.
func (s session) unstolen(d time.Duration) float64 {
	return d.Seconds() * (1 - s.stealShare())
}

// quietSessions returns, in run order, the half of the sessions (at
// least one) during which the hypervisor stole the least CPU time. On a
// shared VM, steal slows whole stretches of a run by tens of percent;
// it is the host's load, not the program's cost. Every end-to-end
// metric but set-up time and memory is taken from these sessions only,
// on the unstolen clock. The report states how many sessions were set
// aside, how much was stolen, and the metrics before the correction.
func quietSessions(all []session) []session {
	s := append([]session(nil), all...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].stealShare() < s[j].stealShare() })
	s = s[:(len(s)+1)/2]
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	return s
}

// endToEnd computes the user-visible metrics of an untraced run from its
// quiet sessions.
func endToEnd(o *outcome) (map[string]float64, map[string]any) {
	quiet := quietSessions(o.sessions)
	var jobRates, pointRates, setups, lat, clean, rawRates, rawLat []float64
	for _, s := range quiet {
		jobRates = append(jobRates, float64(s.jobs)/s.unstolen(s.window))
		pointRates = append(pointRates, float64(s.points)/s.unstolen(s.window))
		rawRates = append(rawRates, float64(s.jobs)/s.window.Seconds())
		setups = append(setups, s.setup.Seconds())
		for i := s.lo; i < s.hi; i++ {
			d := o.latencies[i]
			lat = append(lat, 1e3*s.unstolen(d))
			if !o.stolen[i] {
				clean = append(clean, 1e3*s.unstolen(d))
			}
			rawLat = append(rawLat, float64(d)/1e6)
		}
	}
	// A job the hypervisor stole from sits in the tail however the
	// session is scaled; the percentiles leave such jobs out, unless
	// they are the majority.
	stolenJobs := len(lat) - len(clean)
	if 2*len(clean) >= len(lat) {
		lat = clean
	}
	metrics := map[string]float64{
		"points_per_s": quantile(pointRates, 0.5),
		"jobs_per_s":   quantile(jobRates, 0.5),
		"job_p50_ms":   quantile(lat, 0.50),
		"job_p99_ms":   blockP99(lat),
		"setup_s":      quantile(setups, 0.5),
		"peak_rss_mb":  peakRSSMB(),
	}

	rep := map[string]any{"samples": len(lat), "stolen_jobs": stolenJobs, "sessions": len(o.sessions), "quiet_sessions": len(quiet),
		"uncorrected": map[string]float64{
			"jobs_per_s": quantile(rawRates, 0.5), "job_p50_ms": quantile(rawLat, 0.5), "job_p99_ms": blockP99(rawLat),
		}}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1} {
		rep[fmt.Sprintf("p%g_ms", 100*q)] = quantile(lat, q)
	}
	var rates, steal []float64
	for _, s := range o.sessions {
		rates = append(rates, float64(s.jobs)/s.window.Seconds())
		steal = append(steal, s.stealShare())
	}
	rep["session_jobs_per_s"] = rates
	rep["session_steal_share"] = steal
	return metrics, rep
}

// p99Block is how many consecutive jobs one p99 is taken over: the
// fewest that leave ten samples beyond it.
const p99Block = 1000

// blockP99 is the median, over consecutive blocks of p99Block jobs, of
// each block's 99th percentile (the whole run is one block when it has
// fewer than two). A burst of load from outside the benchmark then
// moves the p99 of one block, not the reported value.
func blockP99(lat []float64) float64 {
	if len(lat) < 2*p99Block {
		return quantile(lat, 0.99)
	}
	var p99s []float64
	for lo := 0; lo+p99Block <= len(lat); lo += p99Block {
		p99s = append(p99s, quantile(lat[lo:lo+p99Block], 0.99))
	}
	return quantile(p99s, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	var kb float64
	for _, line := range strings.Split(string(raw), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
