package linalg

import (
	"runtime"
	"sync"
)

// ResolveWorkers normalizes a worker-count knob: values ≤ 0 mean "use every
// processor Go will schedule" (GOMAXPROCS), anything else is taken as given.
// Callers that must reject negative values (package lp's Options validation)
// do so before resolving.
func ResolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// parallelGrain is the minimum number of index units each worker must
// receive before a kernel bothers spawning goroutines: below it the
// startup/join cost exceeds the arithmetic being split.
const parallelGrain = 8

// ParallelRanges partitions [0, n) into at most `workers` fixed contiguous
// ranges and runs fn on each range, one goroutine per non-empty range,
// waiting for all of them.
//
// The partition is a pure function of (workers, n): range r covers
// [r·⌈n/w⌉, min((r+1)·⌈n/w⌉, n)). It never depends on scheduling, load, or
// completion order, which is what makes every kernel built on it
// deterministic: each output element is owned by exactly one range and is
// computed there in the same statement order as the serial loop, so the
// parallel result is bit-identical to the serial one (see DESIGN.md §8).
//
// workers ≤ 1, n ≤ parallelGrain, or a partition that would leave workers
// idle all collapse to a single inline call fn(0, n) on the caller's
// goroutine — the serial path is literally the parallel path with one range.
//
// The goroutine spawns are the bounded price of the parallel branch,
// amortized over ≥parallelGrain work units per worker; the serial collapse
// spawns nothing. Kernels with a strict zero-allocation contract branch on
// EffectiveWorkers before building the closure they would pass here.
func ParallelRanges(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = boundWorkers(workers, n)
	if workers == 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ParallelStrided partitions [0, n) round-robin: worker r handles the
// indices r, r+stride, r+2·stride, … where stride is the resolved worker
// count. Use it instead of ParallelRanges when per-index cost grows with the
// index (the triangular trailing update of a factorization), where
// contiguous ranges would pile the heavy tail onto the last worker.
//
// Like ParallelRanges the partition is a pure function of (workers, n), and
// every index is processed by exactly one worker, so kernels whose per-index
// work is self-contained stay bit-identical to serial. workers ≤ 1 or tiny n
// collapse to an inline fn(0, 1) call.
func ParallelStrided(workers, n int, fn func(start, stride int)) {
	if n <= 0 {
		return
	}
	workers = boundWorkers(workers, n)
	if workers == 1 {
		fn(0, 1)
		return
	}
	var wg sync.WaitGroup
	for r := 0; r < workers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(r, workers)
		}(r)
	}
	wg.Wait()
}

// EffectiveWorkers reports how many goroutines ParallelRanges and
// ParallelStrided would actually use for n units of work. Kernels with a
// zero-allocation contract branch on it: when it returns 1 they run their
// loop bodies directly instead of wrapping them in closures, because a
// closure literal passed to a goroutine-spawning function is heap-allocated
// at its creation site even on the collapsed serial path (escape analysis is
// not path-sensitive).
func EffectiveWorkers(workers, n int) int { return boundWorkers(workers, n) }

// boundWorkers clamps the worker count to the useful range for n units of
// work: at least 1, and never so many that a worker's share drops below
// parallelGrain. An explicit count above GOMAXPROCS is honored rather than
// clamped — the partition stays a pure function of the requested count, so a
// single-processor machine still exercises (and can test) the exact
// multi-goroutine decomposition a larger machine would run.
func boundWorkers(workers, n int) int {
	workers = ResolveWorkers(workers)
	if maxUseful := n / parallelGrain; workers > maxUseful {
		workers = maxUseful
	}
	if workers < 1 {
		return 1
	}
	return workers
}
