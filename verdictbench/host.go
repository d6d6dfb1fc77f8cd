package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// host identifies the machine and toolchain a result was measured on.
// Results from different hosts are not comparable.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
}

// runIdentity names what was measured: the code, the workload and its
// inputs.
type runIdentity struct {
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        int     `json:"trace"`
	Started      string  `json:"started"`
}

func hostInfo() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range splitLines(string(raw)) {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func splitLines(s string) []string { return strings.Split(s, "\n") }

// runInfo records the run's identity. The commit comes from the
// checkout's .git when there is one; the source digest covers the Go
// sources and module files of the checkout either way.
func runInfo(workload string, seed int64, seconds float64, trace int) runIdentity {
	return runIdentity{
		Commit:       gitCommit("."),
		SourceSHA256: sourceDigest("."),
		Workload:     workload,
		Seed:         seed,
		Seconds:      seconds,
		Trace:        trace,
		Started:      time.Now().UTC().Format(time.RFC3339),
	}
}

func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if raw, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(raw))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range splitLines(string(packed)) {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// compareReports prints the per-metric change between two result files,
// or "not comparable" when they come from different hosts or measure
// different things. It exits 0 on a comparison, 3 when not comparable.
func compareReports(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "verdictbench: -compare wants two result files")
		return 2
	}
	var reps [2]report
	for i, path := range args {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "verdictbench:", err)
			return 2
		}
		if err := json.Unmarshal(bytes.TrimSpace(raw), &reps[i]); err != nil {
			fmt.Fprintf(stderr, "verdictbench: %s: %v\n", path, err)
			return 2
		}
	}
	if why := incomparable(reps[0], reps[1]); why != "" {
		fmt.Fprintf(stdout, "not comparable: %s\n", why)
		return 3
	}
	var names []string
	for k := range reps[0].Result.Metrics {
		if _, ok := reps[1].Result.Metrics[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		a, b := reps[0].Result.Metrics[k], reps[1].Result.Metrics[k]
		delta := "n/a"
		if a.Value != 0 {
			delta = fmt.Sprintf("%+.2f%%", 100*(b.Value-a.Value)/a.Value)
		}
		fmt.Fprintf(stdout, "%-40s %14.6g -> %14.6g %s  %s\n", k, a.Value, b.Value, a.Unit, delta)
	}
	return 0
}

// incomparable names the first identity field two reports disagree on.
func incomparable(a, b report) string {
	switch {
	case a.Host != b.Host:
		return fmt.Sprintf("hosts differ (%+v vs %+v)", a.Host, b.Host)
	case a.Run.Workload != b.Run.Workload:
		return fmt.Sprintf("workloads differ (%s vs %s)", a.Run.Workload, b.Run.Workload)
	case a.Run.Trace != b.Run.Trace:
		return "one run is traced and the other is not"
	case a.Run.Seconds != b.Run.Seconds:
		return fmt.Sprintf("run lengths differ (%gs vs %gs)", a.Run.Seconds, b.Run.Seconds)
	}
	return ""
}
