GO ?= go

.PHONY: build test vet lint lint-self race obs-serve kernels-race chaos latency warmstart watch fuzz perfbench-check check bench bench-compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet -all ./...

# Project-specific invariants: the seven per-package checks (float
# comparisons, division guards, map-order determinism, context plumbing,
# telemetry nil-safety, dropped kernel errors, metric names; DESIGN.md §7). Whole-program contracts (allocation-free hot
# loops, goroutine exit, lock copies, determinism) are pinned by tests and
# vet instead (DESIGN.md §12). A stale //sorallint:ignore directive fails
# like a finding, so suppressions cannot outlive the findings they justified.
lint:
	$(GO) run ./cmd/sorallint ./...

# The linter linting itself: internal/analysis and cmd/sorallint are
# ordinary module code, so the same invariants apply to them, reported for
# those packages alone; a stale suppression there fails too.
lint-self:
	$(GO) run ./cmd/sorallint ./internal/analysis/... ./cmd/sorallint

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
# (process kills, torn writes, resume edge cases) and asserts every
# recovery path is bit-identical to the uninterrupted run; it runs under the
# race detector because recovery interleaves the resume solve loop with the
# journal writer. See DESIGN.md §10.
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
# to end: runs bit-identical from repeat to repeat, warm steady-state slots
# taking at most half the cold path's mean Newton steps (a deterministic
# count) and strictly fewer on every warm slot, warm p50 below cold p50, and
# the digest-keyed decision cache engaging on repeated inputs. It runs under the
# race detector because the warm path threads its warm-start state through the same
# solver goroutines the latency experiment exercises. See DESIGN.md §13.
warmstart:
	$(GO) run -race ./cmd/soralbench -exp warmstart -q

# The watchdog experiment drives the self-monitoring stack end to end under
# the race detector: seeded fault traces (a latency spike for the SLO
# burn-rate detector, an adversarial thrashing trace for the
# competitive-ratio detector) must fire and journal reproducibly while the
# runtime collector stays allocation-free and the watchdog tick (runtime
# collection plus one evaluation of soral's rules) inside 1% of the slot
# p50. The race detector matters because the rules read registry metrics
# that the solve path writes, and the engine's Status is served
# concurrently with Eval. See DESIGN.md §14.
# It is not part of check: TestWatchExperiment runs the same eval.Watch,
# with stricter assertions, under -race in both the race and obs-serve
# passes.
watch:
	$(GO) run -race ./cmd/soralbench -exp watch -q

# Time-boxed fuzzing, 9.6 s over six targets of 1.6 s each: the structured
# Newton step against the dense one (random block maps with in-block rows,
# cross-block rows and cross-block entropic groups, each solved with its
# block map and with the map cleared; both must converge to the same
# objective), the primal–dual loop from a start outside G·x ≤ h against
# the barrier from a strictly feasible one on the same random problems (both
# converge, to the same objective), the line search's one-logarithm barrier
# change against a sum of log1p terms on slack pairs from subnormal to huge
# (DESIGN.md §15), the journal's hand-written slot and state encoders
# against json.Marshal, byte for byte, its reflection-free slot and state
# decoders against json.Unmarshal, and Recover on arbitrary bytes (never a
# panic; an accepted prefix re-reads to the same journal; DESIGN.md §10).
# Plain `go test` replays the committed seed corpora under
# internal/convex/testdata/fuzz and internal/obs/journal/testdata/fuzz; this
# target searches beyond them. Each target gets a fresh, deleted-afterwards
# fuzz cache, so its 1.6 s are not spent re-running the inputs earlier runs
# cached, and a target whose output never reaches "now fuzzing" fails.
# -fuzzminimizetime=0 turns off the minimization of each input that finds
# new coverage: with it on, a worker could spend a target's whole window
# minimizing its first such input (FuzzJournalRecover ran 14 inputs in
# 1.6 s, and ~23k without it). A failing input is still written to
# testdata/fuzz, unminimized.
FUZZ_TARGETS = \
	convex:FuzzNewtonBlockVsDense convex:FuzzPrimalDualVsBarrier convex:FuzzBarrierLog \
	obs/journal:FuzzJournalRecordEncoding obs/journal:FuzzCanonicalDecode obs/journal:FuzzJournalRecover

fuzz:
	@for t in $(FUZZ_TARGETS); do \
		pkg=./internal/$${t%%:*}; name=$${t##*:}; cache=$$(mktemp -d); \
		out=$$($(GO) test $$pkg -run='^$$' -fuzz="^$$name\$$" -fuzztime=1600ms -fuzzminimizetime=0 -test.fuzzcachedir=$$cache 2>&1); status=$$?; \
		rm -rf $$cache; echo "$$out"; \
		[ $$status -eq 0 ] || exit $$status; \
		echo "$$out" | grep -q 'now fuzzing' || { echo "$$name: never reached 'now fuzzing'"; exit 1; }; \
	done

# The benchmark harness is a nested module (perfbench/go.mod) that imports
# core, eval and journal, so `go build ./...` here never compiles it. Vetting
# and testing it from its own directory makes an API change that breaks the
# benchmark's build fail locally.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The gate used before merging: static checks (vet plus the sorallint
# invariants) and the full suite under the race detector (the parallel
# kernels and the fault-injection trip counter are the concurrency-sensitive
# paths), plus the focused telemetry and parallel-kernel race passes and the
# crash/recovery chaos schedules, the six fuzz targets, and the nested
# benchmark module's build and tests.
check: vet lint lint-self race obs-serve kernels-race chaos latency warmstart fuzz perfbench-check

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# Smoke test for the regression differ: a snapshot compared against itself
# must report zero regressions and exit 0. Catches schema drift between the
# bench writers and the compare loader before a real baseline comparison
# depends on them (TestCommittedBenchFilesLoad runs the same check in go test).
bench-compare:
	for f in results/BENCH_*.json; do $(GO) run ./cmd/soralbench -compare $$f $$f || exit 1; done
