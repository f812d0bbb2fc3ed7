# Tier-1 gates, experiment shortcuts and profiling. `make race` is the
# correctness gate for the parallel trial harness and `make bench-micro`
# tracks the hot paths. The simulator's end-to-end benchmark is the
# perfbench/ module (see perfbench/README.md).

GO ?= go

.PHONY: all build test race fuzz vet staticcheck perfbench-check noise stash slo sched bench-micro audit profile profile-cpu cover ci

# Pinned staticcheck release; CI installs exactly this version so lint
# results are reproducible.
STATICCHECK_VERSION ?= 2023.1.7

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race gate for the worker-pool trial runner and the single-threaded
# engine invariant beneath it: the engine's hand-off between driver and
# process goroutines, under every package that drives an engine.
race:
	$(GO) test -race ./internal/sim/... ./internal/experiments/... \
		./internal/simos/... ./internal/workload/... ./internal/priorart/...

# Fuzz the engine's event order against its linear-scan reference
# queue. Plain `go test` replays only the seeds (f.Add and the corpus
# in internal/sim/testdata/fuzz); this target searches for new inputs.
fuzz:
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEngineOrder -fuzztime 30s

vet:
	$(GO) vet ./...

# perfbench/ is its own module (it imports this one through a replace
# directive), so `go test ./...` at the root never builds it.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Lint with the pinned staticcheck when the binary is available; skip
# with a warning otherwise (offline dev boxes don't install tools, CI
# does — see .github/workflows/ci.yml).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "warning: staticcheck not installed, skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi

# Contention sweep: ICL accuracy under competing workload traffic.
# WORKLOADS selects the generators, e.g. make noise WORKLOADS=scan,hog
WORKLOADS ?= scan,zipf,hog,web
noise: build
	$(GO) run ./cmd/gb-experiments -scale quick -workload $(WORKLOADS) noise

# Second-level stash tier sweep: gray-box vs naive admission over quota
# x workload intensity, with the degraded-mode (offline source) replay.
stash: build
	$(GO) run ./cmd/gb-experiments -scale quick stash

# SLO violation ramp: offered load vs tail latency, MAC gray-box
# admission against a naive static cap, scored by the request-tracing
# subsystem (p50/p99/p999, violations, critical-path split).
slo: build
	$(GO) run ./cmd/gb-experiments -scale quick slo

# SMP scheduler sweep: the noise and slo experiments re-run across
# simulated-processor counts (0 = the uncontended infinite-core model,
# the default everywhere else). CPUS selects the counts, e.g.
# make sched CPUS=0,1,4
CPUS ?= 0,2
sched: build
	$(GO) run ./cmd/gb-experiments -scale quick -cpus $(CPUS) noise slo

# Every micro-benchmark in the hot-path packages, with -benchmem; CI
# archives the output as BENCH_micro.txt. The AllocsPerRun guard tests
# fail `make test` if a 0-allocs/op path starts allocating; this target
# records ns/op and B/op per revision. -p 1 keeps packages from
# benchmarking concurrently.
bench-micro:
	$(GO) test -p 1 -run NONE -bench . -benchmem \
		./internal/sim ./internal/ring ./internal/cache ./internal/vm \
		./internal/stash ./internal/simos ./internal/core/fccd ./internal/telemetry

# Oracle-grounded inference audit of the quick suite: every ICL
# prediction scored against simulator ground truth.
audit: build
	$(GO) run ./cmd/gb-experiments -scale quick -o /dev/null -audit AUDIT_experiments.json

# Virtual-time profile of the quick suite: folded stacks for
# flamegraph.pl / speedscope, plus a top-span table on stderr.
profile: build
	$(GO) run ./cmd/gb-experiments -scale quick -o /dev/null -profile PROFILE_experiments.folded

# Real-CPU + heap profile of the quick suite: where the simulator itself
# spends cycles and allocations. Inspect with
#   go tool pprof CPU_experiments.pprof
#   go tool pprof MEM_experiments.pprof
profile-cpu: build
	$(GO) run ./cmd/gb-experiments -scale quick -o /dev/null \
		-cpuprofile CPU_experiments.pprof -memprofile MEM_experiments.pprof

# Per-package statement coverage.
cover:
	$(GO) test -cover ./...

ci: build vet staticcheck test perfbench-check race fuzz bench-micro
