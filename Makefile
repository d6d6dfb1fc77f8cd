GO ?= go

.PHONY: all build test vet race fuzz-seeds fuzz-short metamorphic bench-selftest check bench bench-compare smoke-resume soak soak-cluster soak-chaos soak-overload soak-failover clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run every fuzz target against its seed corpus only (no fuzzing time);
# catches regressions in the checked-in interesting inputs.
fuzz-seeds:
	$(GO) test -run='^Fuzz' ./...

# Short coverage-guided fuzz burst: every Fuzz target in the repo runs
# for FUZZTIME (default 10s) of actual fuzzing, one target per
# invocation as the Go fuzzer requires. Catches quick-to-find decode,
# digest and chaos-rewrite regressions the seed corpora alone miss.
fuzz-short:
	./scripts/fuzz_short.sh

# Metamorphic relations of the model (scaling/exchange symmetries the
# solver must honor exactly, and guard-passivity checks).
metamorphic:
	$(GO) test -run='Metamorphic' ./...

# Vet and test the benchmark module (verdictbench/, its own Go module
# with `replace bcnphase => ../`) in the offline environment its run.sh
# builds in, so a change to an API the benchmark imports fails here
# instead of at benchmark time. Caches go under .bench_build/, as with
# run.sh.
BENCH_ENV = GOCACHE=$(CURDIR)/.bench_build/gocache GOMODCACHE=$(CURDIR)/.bench_build/gomodcache \
	GOPATH=$(CURDIR)/.bench_build/gopath GOTMPDIR=$(CURDIR)/.bench_build/tmp \
	XDG_CONFIG_HOME=$(CURDIR)/.bench_build/config XDG_CACHE_HOME=$(CURDIR)/.bench_build/cache \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
bench-selftest:
	mkdir -p .bench_build/tmp
	cd verdictbench && $(BENCH_ENV) $(GO) vet ./... && $(BENCH_ENV) $(GO) test ./...

# The full pre-merge gate: static checks, build, race-enabled tests,
# the fuzz seed corpora, the metamorphic relations and the benchmark
# module's self-tests.
check: vet build race fuzz-seeds metamorphic bench-selftest

# Run every benchmark once (override BENCHTIME for real measurements,
# e.g. BENCHTIME=2s) and parse the stream into machine-readable
# BENCH.json alongside the human-readable log.
BENCHTIME ?= 1x
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) ./... | $(GO) run ./scripts/benchjson -o BENCH.json

# Compare the BENCH.json from `make bench` against the newest committed
# trajectory point (BENCH_<n>.json). Prints per-metric deltas; exits
# nonzero when a higher-is-better gauge (points/s) drops more than 10%.
bench-compare: bench
	$(GO) run ./scripts/benchjson -current BENCH.json -against "$$(ls BENCH_*.json | sort -t_ -k2 -n | tail -1)"

# Kill-and-resume smoke: SIGINT a real bcnsweep run partway, resume it
# from the journal, and require byte-identical artifacts vs an
# uninterrupted baseline.
smoke-resume:
	./scripts/resume_smoke.sh

# Chaos soak for the bcnd serving layer: the in-process concurrent
# soak under the race detector, then a real-binary SIGTERM drain and
# restart cycle asserting exit 0 and byte-identical cached resubmits.
soak:
	./scripts/soak.sh

# Cluster chaos soak: the in-process coordinator/worker fault-tolerance
# test under the race detector, then a real-binary fleet (3 workers +
# coordinator) with a kill -9 mid-sweep, byte-identical merged output
# vs a local run, and journal replay across a coordinator restart.
soak-cluster:
	./scripts/cluster_soak.sh

# Byzantine chaos soak: one of three workers rewrites result rows
# behind a deterministic chaos proxy (latency/truncation on the honest
# two); the audit layer must quarantine the liar and keep the merged
# map byte-identical to a clean run, under the race detector.
soak-chaos:
	./scripts/chaos_soak.sh

# Coordinator failover soak: the in-process HA election/replication
# test under the race detector, then a real-process replica group
# (3 bcnd HA coordinators over 3 workers behind partitionable chaos
# proxies) with a kill -9 of the leader mid-sweep and a network
# partition of its successor — gating on a byte-identical merged map,
# a pure journal replay on resubmit, and a single surviving leader.
soak-failover:
	./scripts/failover_soak.sh

# Overload soak for the closed-loop QoS tier: the in-process gating
# soak (4x offered load, one greedy tenant) under the race detector,
# then a real-binary run against bcnd -qos gating on zero accepted-job
# losses, per-tenant fairness within 1.5x, and monotonic qos_* series.
soak-overload:
	./scripts/overload_soak.sh

clean:
	rm -rf out
	$(GO) clean -testcache
