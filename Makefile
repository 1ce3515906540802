GO ?= go

.PHONY: build test vet lint lint-self race obs-serve kernels-race chaos latency warmstart watch check bench bench-compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet -all ./...

# Project-specific invariants: the intraprocedural checks (float
# comparisons, division guards, map-order determinism, context plumbing,
# telemetry nil-safety, dropped kernel errors; DESIGN.md §7) plus the
# interprocedural call-graph analyzers (hot-path allocation, lock
# discipline, goroutine leaks, determinism taint; DESIGN.md §12).
# -strict-suppress turns stale //sorallint:ignore directives into errors so
# suppressions cannot outlive the findings they justified.
lint:
	$(GO) run ./cmd/sorallint -strict-suppress ./...

# The linter linting itself: the analysis package is ordinary module code,
# so the same invariants apply to it (and the run doubles as a smoke test
# that the call-graph engine handles its own AST-heavy, closure-dense code).
lint-self:
	$(GO) run ./cmd/sorallint -strict-suppress ./internal/analysis/... ./cmd/sorallint

# -shuffle=on randomizes test order so accidental inter-test coupling (the
# dynamic cousin of the maporder lint) fails loudly instead of silently.
race:
	$(GO) test -race -shuffle=on ./...

# The telemetry and flight-recorder surfaces: the registry and trace sinks
# are hammered from many goroutines (parallel kernels, LCP-M prefix solves),
# the journal sink is written from the solve path while the /runs feed
# streams it to subscribers, and replay re-runs a recorded config
# concurrently with validation. Shuffled double runs under the race detector
# cover the registry/sink stress tests, the serve handlers, the feed's
# drop-oldest ring, and the record/replay round trip.
obs-serve:
	$(GO) test -race -shuffle=on -count=2 ./internal/obs/... ./internal/resilience/... ./internal/eval/...

# The parallel structured kernels and their callers (linalg worker pools,
# lp workspaces, staircase block assembly, AFHC phase fan-out) run twice
# under the race detector: the determinism tests in these packages spawn
# goroutine counts above GOMAXPROCS, which is where partition bugs surface.
kernels-race:
	$(GO) test -race -shuffle=on -count=2 ./internal/linalg/... ./internal/lp/... ./internal/staircase/... ./internal/control/...

# The chaos harness drives the seeded crash/recovery fault schedules
# (process kills, torn writes, transient solver faults) and asserts every
# recovery path is bit-identical to the uninterrupted run; it runs under the
# race detector because recovery interleaves the resume solve loop with the
# journal writer and the supervisor's retry bookkeeping. See DESIGN.md §10.
chaos:
	$(GO) run -race ./cmd/soralbench -exp chaos

# The latency experiment drives the span → log-bucketed-histogram → report
# pipeline end to end (assemble/factorize/solve/commit phases over repeated
# online runs) under the race detector: the histograms are recorded from the
# solver's worker goroutines while the slot loop reads counters, which is
# exactly the interleaving the atomic record path must survive.
latency:
	$(GO) run -race ./cmd/soralbench -exp latency -q

# The warm-start experiment enforces the incremental re-solve contracts end
# to end: WarmStart-off runs bit-identical to the baseline, warm steady-state
# slots ≥5× faster at p50 with strictly fewer IPM iterations, and the
# digest-keyed decision cache engaging on repeated inputs. It runs under the
# race detector because the warm path threads SolveState through the same
# solver goroutines the latency experiment exercises. See DESIGN.md §13.
warmstart:
	$(GO) run -race ./cmd/soralbench -exp warmstart -q

# The watchdog experiment drives the self-monitoring stack end to end under
# the race detector: seeded fault traces (a latency spike for the SLO
# burn-rate detector, an adversarial thrashing trace for the
# competitive-ratio detector) must fire and journal reproducibly while the
# tsdb record path stays allocation-free and the sampler tick inside 1% of
# the slot p50. The race detector matters because the store's seqlock-style
# Series ring is written by the sampler goroutine while queries read it, and
# the engine's Status is served concurrently with Eval. See DESIGN.md §14.
watch:
	$(GO) run -race ./cmd/soralbench -exp watch -q

# The gate used before merging: static checks (vet plus the sorallint
# invariants) and the full suite under the race detector (the parallel
# kernels and the fault-injection trip counter are the concurrency-sensitive
# paths), plus the focused telemetry and parallel-kernel race passes and the
# crash/recovery chaos schedules.
check: vet lint lint-self race obs-serve kernels-race chaos latency warmstart watch

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# Smoke test for the regression differ: a snapshot compared against itself
# must report zero regressions and exit 0. Catches schema drift between the
# bench writers and the compare loader before a real baseline comparison
# depends on them (TestCommittedBenchFilesLoad runs the same check in go test).
bench-compare:
	for f in results/BENCH_*.json; do $(GO) run ./cmd/soralbench -compare $$f $$f || exit 1; done
