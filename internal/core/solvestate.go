package core

import (
	"math"

	"soral/internal/convex"
	"soral/internal/model"
	"soral/internal/obs/journal"
)

// decisionCacheCap bounds the digest-keyed decision cache. Eviction is FIFO
// in insertion order, so the cache contents — and therefore the run's
// latency profile, though never its decisions — are deterministic.
const decisionCacheCap = 64

// solveState is the per-run incremental re-solve state of the warm-start
// layer (DESIGN.md §13). It carries three kinds of reuse across slots (the
// P2 skeleton, which every run reuses, lives on Online):
//
//   - a warm interior point derived from the previously committed decision,
//     which the warm rung solves from with the primal–dual loop
//     (convex.SolvePrimalDual) before the barrier's structured cold start;
//   - the exit duals of the solve that committed the previous slot, from
//     which that warm solve starts its multipliers;
//   - a digest-keyed decision cache short-circuiting slots whose
//     (inputs, previous decision, incoming duals) triple already committed
//     — the key reuses the journal's SHA-256 digests for the first two and
//     a hash of the duals, which a hit confirms bitwise, so a hit is
//     bit-identical to re-solving.
//
// The duals are part of the restartable state: the journal checkpoints
// them with the decision (journal.StateRecord.Duals) and Online.Restore
// hands them back. Everything else is an accelerator, never an input: the
// committed decision and outgoing duals of every slot remain a pure
// function of (previous decision, incoming duals, slot inputs, config),
// which is why Restore can discard the rest and a resumed run still
// reproduces an uninterrupted one bit-for-bit.
//
// A solveState must not be shared by concurrent solves.
type solveState struct {
	x0 []float64 // warm-point buffer, reused across slots

	// Capacity-headroom scratch for warmPoint's shift-and-repair passes,
	// reused across slots so the warm path stays allocation-free.
	headX, headY, headZ []float64

	// prevDigest is the decision digest of the previously committed slot
	// ("" until the first commit; computed lazily from prev on first use).
	prevDigest string

	// duals are the exit duals the next slot's warm solve may start from
	// (nil before the first commit, after a degraded slot and on a
	// Restore without them), dualsSlot the slot whose P2 they were solved
	// at, and dualsHash their hash (hashDuals), computed once when they
	// are set. The slice is never written to once set: cache entries share
	// it.
	duals     []float64
	dualsSlot int
	dualsHash uint64

	cache map[cacheKey]cacheEntry
	order []cacheKey // insertion order, for deterministic FIFO eviction

	// lastColdIters is the Newton-iteration count of the run's most recent
	// cold (structured-start) solve: the per-slot reference the journal's
	// warm-vs-cold iteration delta is measured against.
	lastColdIters int
}

// cacheKey is the decision-cache key of one slot: the journal's inputs
// digest of the slot, the digest of the decision it starts from and the
// hash of the duals its warm solve starts from (0 for none).
type cacheKey struct {
	inputs, prev string
	duals        uint64
}

// cacheEntry is what one cached slot started from and committed: its
// incoming duals (nil for none), which a hit compares bitwise, since the
// key holds only their hash; its decision and digest; and its outgoing
// duals. A snapped slot carried its incoming duals on (carried); any other
// entry holds the fresh duals its solve exited with.
type cacheEntry struct {
	in      []float64
	dec     *model.Decision
	digest  string
	carried bool
	duals   []float64
}

// newSolveState returns an empty warm-start state. Online creates one per
// run when Options.WarmStart is on, and a fresh one on Restore.
func newSolveState() *solveState {
	return &solveState{cache: make(map[cacheKey]cacheEntry, decisionCacheCap)}
}

// setDuals makes duals, solved at P2(slot), the ones the next slot starts
// from. Nil duals clear them.
func (st *solveState) setDuals(duals []float64, slot int) {
	st.duals, st.dualsSlot, st.dualsHash = duals, slot, hashDuals(duals)
}

// hashDuals is FNV-1a over the bit patterns of v, one 64-bit word an
// element: the duals' part of a decision-cache key, 0 for nil. It costs a
// multiply an element, where a SHA-256 digest of ~70 duals cost about a
// microsecond a slot; a hit compares the duals themselves, so a collision
// can only cost a miss.
func hashDuals(v []float64) uint64 {
	if v == nil {
		return 0
	}
	h := uint64(14695981039346656037)
	for _, x := range v {
		h ^= math.Float64bits(x)
		h *= 1099511628211
	}
	return h
}

// startDuals returns the duals P2(t)'s warm solve starts from: the
// carried ones when the slot they were solved at has slot t's (3d)/(3e)
// covering activity, and so the same rows, and nil otherwise. The test
// reads the inputs alone, never whether the skeleton patched, which a
// Restore resets.
func (st *solveState) startDuals(n *model.Network, in *model.Inputs, t int) []float64 {
	if st.duals == nil || !sameCovering(n, in, t, st.dualsSlot) {
		return nil
	}
	return st.duals
}

// cacheKey derives the decision-cache key for slot t, whose warm solve
// starts from z0 (startDuals; nil for none): the journal input digest
// (workload row plus every operating-price row — tier-1 included on tier-1
// networks), the previous decision's digest and the hash of z0. Keying on
// the full triple, and confirming z0 on a hit (lookup), is what makes a
// hit bit-identical to a re-solve — P2(t) and its warm solve depend on
// exactly those inputs and nothing else. The key's inputs digest is the
// one the slot's journal record carries.
func (st *solveState) cacheKey(in *model.Inputs, t int, prev *model.Decision, z0 []float64) cacheKey {
	if st.prevDigest == "" {
		st.prevDigest = journal.Digest(prev.X, prev.Y, prev.Z)
	}
	k := cacheKey{inputs: InputsDigest(in, t), prev: st.prevDigest}
	if z0 != nil {
		k.duals = st.dualsHash
	}
	return k
}

// lookup returns the cache entry for key whose incoming duals are z0 bit
// for bit, if any. The entry's decision is shared (it was committed once
// already) and must be treated as immutable — committed decisions never
// are mutated.
func (st *solveState) lookup(key cacheKey, z0 []float64) (cacheEntry, bool) {
	e, ok := st.cache[key]
	if !ok || (e.in == nil) != (z0 == nil) || !sameBits(e.in, z0) {
		return cacheEntry{}, false
	}
	return e, true
}

// sameBits reports whether a and b hold the same float64 bit patterns. At
// a fixed point the entry's incoming duals are the state's own slice, which
// the first test settles without a scan.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// hit carries a cache hit's outgoing duals into the state, as the slot's
// re-solve would: a snapped entry keeps the incoming duals bitwise, any
// other one hands over its fresh duals, solved at slot t.
func (st *solveState) hit(e cacheEntry, t int) {
	if !e.carried {
		st.setDuals(e.duals, t)
	}
}

// store caches a cleanly committed decision under key, with z0, the duals
// the slot started from, and the state's current (outgoing) duals,
// evicting the oldest entry once the cache is full. carried marks a
// snapped slot, whose outgoing duals are its incoming ones.
func (st *solveState) store(key cacheKey, z0 []float64, dec *model.Decision, digest string, carried bool) {
	if _, ok := st.cache[key]; ok {
		return
	}
	if len(st.order) >= decisionCacheCap {
		delete(st.cache, st.order[0])
		st.order = st.order[1:]
	}
	st.cache[key] = cacheEntry{in: z0, dec: dec, digest: digest, carried: carried, duals: st.duals}
	st.order = append(st.order, key)
}

// size returns the decision cache's population (the warmstart.cache_size
// gauge).
func (st *solveState) size() int { return len(st.cache) }

// warmCapMargin is the relative interior margin the warm point keeps from
// every capacity. The previous optimum routinely sits ON a capacity boundary
// (the cheapest tier-2 cloud saturates). The primal–dual loop would take
// the boundary point, but it would reset that row's slack and close the
// residual the reset opens in extra Newton steps (EXPERIMENTS.md). So
// saturated resources are shifted this fraction inside.
const warmCapMargin = 1e-6

// warmPoint derives a start for P2(t) from the previously committed
// decision: the previous routing shape, rescaled per tier-1 cloud to cover
// the realized demand λ_t with the same safety margins the structured cold
// start uses, then shifted off any saturated capacity and repaired back to
// demand coverage out of the remaining headroom. A deficit the headroom
// cannot absorb stays in the point: the primal–dual loop takes a start
// outside G·x ≤ h as it is. Returns nil — a warm miss, meaning cold start,
// never failure — when P2 carries no entropic groups (then the subproblem
// is independent of prev and there is nothing worth carrying) or when a
// non-finite previous decision leaves no shape to rescale.
// A pure function of (p2, in, t, prev), so the warm point survives the
// resume contract of DESIGN.md §10. Once the
// buffers have grown to the instance size it allocates nothing (pinned by
// TestWarmPointZeroAlloc).
func (st *solveState) warmPoint(p2 *P2, in *model.Inputs, t int, prev *model.Decision) []float64 {
	if len(p2.groups) == 0 {
		return nil
	}
	n := p2.Net
	if cap(st.x0) < p2.NumVars {
		st.x0 = make([]float64, p2.NumVars)
	}
	v := st.x0[:p2.NumVars]
	for i := range v {
		v[i] = 0
	}
	lam := in.Workload[t]
	for j := 0; j < n.NumTier1; j++ {
		pairs := n.PairsOfJ(j)
		if len(pairs) == 0 {
			continue // no SLA pairs to route this cloud's demand over
		}
		share := lam[j] / float64(len(pairs))
		// Strictly positive per-pair mass proportional to the previous
		// slot's effective service level, then rescaled so the cloud's total
		// matches the structured start's demand margin exactly.
		var sum float64
		for _, p := range pairs {
			m := math.Min(prev.X[p], prev.Y[p])
			if n.Tier1 {
				m = math.Min(m, prev.Z[p])
			}
			if m < 0 {
				m = 0
			}
			v[p2.SOff+p] = m + 1e-6 + 1e-6*share
			sum += v[p2.SOff+p]
		}
		target := lam[j] + float64(len(pairs))*1e-6 + 1e-6*lam[j]
		if !(sum > 0) || !(target > 0) {
			return nil
		}
		scale := target / sum
		for _, p := range pairs {
			s := v[p2.SOff+p] * scale
			v[p2.SOff+p] = s
			hi := s * 1.01
			v[p2.XOff+p] = math.Max(prev.X[p], hi)
			v[p2.YOff+p] = math.Max(prev.Y[p], hi)
			if n.Tier1 {
				v[p2.ZOff+p] = math.Max(prev.Z[p], hi)
			}
		}
	}

	// Shift off saturated capacities: shrink every over-the-margin resource
	// to warmCapMargin inside its cap, pulling s below x/1.01 where needed,
	// and track each resource's remaining headroom for the repair pass.
	if cap(st.headX) < n.NumTier2 {
		st.headX = make([]float64, n.NumTier2)
	}
	headX := st.headX[:n.NumTier2]
	for i := 0; i < n.NumTier2; i++ {
		pairs := n.PairsOfI(i)
		var sum float64
		for _, p := range pairs {
			sum += v[p2.XOff+p]
		}
		lim := n.CapT2[i] * (1 - warmCapMargin)
		if sum > lim {
			sig := lim / sum
			for _, p := range pairs {
				x := v[p2.XOff+p] * sig
				v[p2.XOff+p] = x
				if s := x / 1.01; v[p2.SOff+p] > s {
					v[p2.SOff+p] = s
				}
			}
			sum = lim
		}
		headX[i] = lim - sum
	}
	if cap(st.headY) < n.NumPairs() {
		st.headY = make([]float64, n.NumPairs())
	}
	headY := st.headY[:n.NumPairs()]
	for p := 0; p < n.NumPairs(); p++ {
		lim := n.CapNet[p] * (1 - warmCapMargin)
		if v[p2.YOff+p] > lim {
			v[p2.YOff+p] = lim
			if s := lim / 1.01; v[p2.SOff+p] > s {
				v[p2.SOff+p] = s
			}
		}
		headY[p] = lim - v[p2.YOff+p]
	}
	var headZ []float64
	if n.Tier1 {
		if cap(st.headZ) < n.NumTier1 {
			st.headZ = make([]float64, n.NumTier1)
		}
		headZ = st.headZ[:n.NumTier1]
		for j := 0; j < n.NumTier1; j++ {
			pairs := n.PairsOfJ(j)
			var sum float64
			for _, p := range pairs {
				sum += v[p2.ZOff+p]
			}
			lim := n.CapT1[j] * (1 - warmCapMargin)
			if sum > lim {
				sig := lim / sum
				for _, p := range pairs {
					z := v[p2.ZOff+p] * sig
					v[p2.ZOff+p] = z
					if s := z / 1.01; v[p2.SOff+p] > s {
						v[p2.SOff+p] = s
					}
				}
				sum = lim
			}
			headZ[j] = lim - sum
		}
	}

	// Repair demand coverage: the shrink may have opened a deficit on (3c).
	// Raise s — and x/y/z with it — on pairs that still have capacity
	// headroom, consuming the trackers deterministically in pair order. A
	// deficit the headroom cannot absorb is left to the solve.
	for j := 0; j < n.NumTier1; j++ {
		pairs := n.PairsOfJ(j)
		if len(pairs) == 0 {
			continue
		}
		target := lam[j] + float64(len(pairs))*1e-6 + 1e-6*lam[j]
		var sum float64
		for _, p := range pairs {
			sum += v[p2.SOff+p]
		}
		deficit := target - sum
		if deficit <= 0 {
			continue
		}
		for _, p := range pairs {
			i := n.Pairs[p].I
			s := v[p2.SOff+p]
			give := (v[p2.XOff+p] + headX[i]) / 1.01
			if g := (v[p2.YOff+p] + headY[p]) / 1.01; g < give {
				give = g
			}
			if n.Tier1 {
				if g := (v[p2.ZOff+p] + headZ[j]) / 1.01; g < give {
					give = g
				}
			}
			give -= s // largest admissible s-raise on this pair
			if give <= 0 {
				continue
			}
			if give > deficit {
				give = deficit
			}
			s += give
			v[p2.SOff+p] = s
			hi := s * 1.01
			if v[p2.XOff+p] < hi {
				headX[i] -= hi - v[p2.XOff+p]
				v[p2.XOff+p] = hi
			}
			if v[p2.YOff+p] < hi {
				headY[p] -= hi - v[p2.YOff+p]
				v[p2.YOff+p] = hi
			}
			if n.Tier1 && v[p2.ZOff+p] < hi {
				headZ[j] -= hi - v[p2.ZOff+p]
				v[p2.ZOff+p] = hi
			}
			deficit -= give
			if deficit <= 0 {
				break
			}
		}
	}
	return v
}

// warmSnapEps is the relative componentwise tolerance of the fixed-point
// snap: on WarmStart runs, a solved decision landing this close to the
// previous decision commits the previous decision bitwise, whichever ladder
// rung produced it. Stationary instances converge to a fixed point
// up to solver jitter (~1e-14 at unit scale, measured) but never bit-exactly,
// so without the snap the digest-keyed decision cache could never see a
// repeated (inputs, previous decision, duals) triple. 1e-9 sits far above the jitter
// and far below any economically meaningful reallocation.
const warmSnapEps = 1e-9

// snapToPrev reports whether dec is within solver jitter of prev on every
// coordinate. A pure function of the two decisions, so snapped runs replay
// and resume deterministically.
func snapToPrev(dec, prev *model.Decision) bool {
	for p := range dec.X {
		if math.Abs(dec.X[p]-prev.X[p]) > warmSnapEps*(1+math.Abs(prev.X[p])) {
			return false
		}
		if math.Abs(dec.Y[p]-prev.Y[p]) > warmSnapEps*(1+math.Abs(prev.Y[p])) {
			return false
		}
	}
	for p := range dec.Z {
		if math.Abs(dec.Z[p]-prev.Z[p]) > warmSnapEps*(1+math.Abs(prev.Z[p])) {
			return false
		}
	}
	return true
}

// warmGap is the absolute duality-gap target sᵀz of the warm rung's
// primal–dual solve, two orders below the certification tolerance. The
// carried point already sits within the demand drift of the new optimum,
// and from it Mehrotra's loop closes this gap in about six Newton steps;
// the cold path's tighter 1e-7 would add steps for digits nothing reads.
// Warm decisions therefore agree with cold to the certification tolerance
// rather than to ulps, which is why WarmStart lives in the replay/resume
// config.
const warmGap = 1e-5

// warmOptions derives the warm rung's solver options: the warm duality gap,
// never tighter than the configured tolerance. A pure function of the base
// options, never of solve history, so warm runs replay and resume
// deterministically.
func warmOptions(solver convex.Options) convex.Options {
	w := solver
	if w.Tol <= 0 {
		w.Tol = 1e-7
	}
	if w.Tol < warmGap {
		w.Tol = warmGap
	}
	return w
}
