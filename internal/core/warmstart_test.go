package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"soral/internal/model"
	"soral/internal/obs/journal"
)

// TestWarmColdCostAgreementProperty is the warm-start quality contract: over
// randomized instances, the warm-started run's per-slot costs agree with the
// cold run's to the certification tolerance, and every warm decision is
// feasible. Warm decisions are allowed to differ from cold beyond ulps (the
// warm rung solves to warmGap, not the cold tolerance), so the comparison is
// on cost, not coordinates — within-group splits are not unique.
func TestWarmColdCostAgreementProperty(t *testing.T) {
	const (
		instances = 13
		T         = 5 // 4 consecutive-slot pairs each → 52 pairs total
		relTol    = 1e-4
	)
	pairs := 0
	for trial := 0; trial < instances; trial++ {
		rng := rand.New(rand.NewSource(900 + int64(trial)))
		n := model.RandomNetwork(rng, 3, 4, 2, 5)
		in := model.RandomInputs(rng, n, T)

		coldOpts := DefaultOptions()
		coldSeq, coldRep, err := RunOnlineReport(n, in, coldOpts)
		if err != nil {
			t.Fatalf("trial %d: cold run: %v", trial, err)
		}
		warmOpts := DefaultOptions()
		warmOpts.WarmStart = true
		warmSeq, warmRep, err := RunOnlineReport(n, in, warmOpts)
		if err != nil {
			t.Fatalf("trial %d: warm run: %v", trial, err)
		}
		if !coldRep.Clean() || !warmRep.Clean() {
			t.Fatalf("trial %d: unclean run (cold %v, warm %v)", trial, coldRep.Clean(), warmRep.Clean())
		}

		acct := &model.Accountant{Net: n, In: in}
		coldCum := acct.SequenceCost(coldSeq, nil).Total()
		warmCum := acct.SequenceCost(warmSeq, nil).Total()
		if d := math.Abs(warmCum - coldCum); d > relTol*(1+math.Abs(coldCum)) {
			t.Errorf("trial %d: cumulative cost diverged: warm %v vs cold %v (Δ %v)",
				trial, warmCum, coldCum, d)
		}
		prevC, prevW := model.NewZeroDecision(n), model.NewZeroDecision(n)
		for tt := 0; tt < T; tt++ {
			cc := acct.SlotCost(tt, prevC, coldSeq[tt]).Total()
			wc := acct.SlotCost(tt, prevW, warmSeq[tt]).Total()
			if d := math.Abs(wc - cc); d > relTol*(1+math.Abs(cc)) {
				t.Errorf("trial %d slot %d: warm cost %v vs cold %v (Δ %v)", trial, tt, wc, cc, d)
			}
			if ok, v := warmSeq[tt].FeasibleAt(n, in.Workload[tt], 1e-4); !ok {
				t.Errorf("trial %d slot %d: warm decision infeasible by %v", trial, tt, v)
			}
			prevC, prevW = coldSeq[tt], warmSeq[tt]
			if tt > 0 {
				pairs++
			}
		}
	}
	if pairs < 50 {
		t.Fatalf("property exercised only %d consecutive-slot pairs, want ≥ 50", pairs)
	}
}

// TestWarmStartRunsDeterministic pins both halves of the determinism
// contract at the core level: with WarmStart off, two runs commit
// bit-identical decisions (the off path is untouched by the layer), and with
// WarmStart on, two runs also agree bit-for-bit with each other (warm
// acceleration is deterministic, even though it may differ from cold).
func TestWarmStartRunsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(901))
	n := model.RandomNetwork(rng, 3, 4, 2, 8)
	in := model.RandomInputs(rng, n, 6)
	for _, warm := range []bool{false, true} {
		var ref []string
		for rep := 0; rep < 2; rep++ {
			opts := DefaultOptions()
			opts.WarmStart = warm
			seq, _, err := RunOnlineReport(n, in, opts)
			if err != nil {
				t.Fatalf("warm=%v rep %d: %v", warm, rep, err)
			}
			digests := make([]string, len(seq))
			for tt, d := range seq {
				digests[tt] = journal.Digest(d.X, d.Y, d.Z)
			}
			if rep == 0 {
				ref = digests
				continue
			}
			for tt := range digests {
				if digests[tt] != ref[tt] {
					t.Fatalf("warm=%v: slot %d digest differs across identical runs", warm, tt)
				}
			}
		}
	}
}

// TestWarmReportMarksWarmSlots checks the per-slot bookkeeping the journal,
// /runs records, and the warmstart benchmark all consume: slot 0 is always
// cold (only the all-zero decision to carry), later clean slots of a
// warm-started run commit warm with their solve iteration counts recorded.
func TestWarmReportMarksWarmSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(902))
	n := model.RandomNetwork(rng, 3, 4, 2, 8)
	in := model.RandomInputs(rng, n, 5)
	opts := DefaultOptions()
	opts.WarmStart = true
	_, rep, err := RunOnlineReport(n, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slots[0].Warm {
		t.Errorf("slot 0 reported warm; it has no previous decision to carry")
	}
	warmSlots := 0
	for _, sr := range rep.Slots[1:] {
		if sr.Warm {
			warmSlots++
			if sr.SolveIters <= 0 {
				t.Errorf("slot %d warm but SolveIters = %d", sr.Slot, sr.SolveIters)
			}
		}
	}
	if warmSlots == 0 {
		t.Fatalf("no slot of a warm-started run committed warm: %+v", rep.Slots)
	}
}

// TestWarmPointZeroAlloc pins the steady-state allocation contract of the
// warm path: once the solveState buffers have grown to the instance size,
// deriving the carried interior point allocates nothing.
func TestWarmPointZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(903))
	n := model.RandomNetwork(rng, 3, 4, 2, 8)
	in := model.RandomInputs(rng, n, 3)
	opts := DefaultOptions()
	prev, _, err := SolveP2Resilient(n, in, 0, model.NewZeroDecision(n), opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := BuildP2(n, in, 1, prev, opts.Params)
	if err != nil {
		t.Fatal(err)
	}
	st := newSolveState()
	if st.warmPoint(p2, in, 1, prev) == nil {
		t.Fatal("no warm point for a clean previous decision")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if st.warmPoint(p2, in, 1, prev) == nil {
			t.Fatal("warm point disappeared on reuse")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state warmPoint allocated %.0f times per call, want 0", allocs)
	}
}

// TestWarmSnapToPrev pins the fixed-point snap threshold: solver jitter
// snaps, economically meaningful movement does not.
func TestWarmSnapToPrev(t *testing.T) {
	prev := &model.Decision{X: []float64{10, 0.5}, Y: []float64{10, 0.5}}
	jitter := &model.Decision{X: []float64{10 + 1e-12, 0.5}, Y: []float64{10, 0.5 - 1e-12}}
	moved := &model.Decision{X: []float64{10.001, 0.5}, Y: []float64{10, 0.5}}
	if !snapToPrev(prev, prev) {
		t.Error("identical decision did not snap")
	}
	if !snapToPrev(jitter, prev) {
		t.Error("jitter-level difference did not snap")
	}
	if snapToPrev(moved, prev) {
		t.Error("real movement snapped to the previous decision")
	}
}

// TestWarmCacheKeyCoversTier1Prices pins the decision-cache key contract on
// tier-1 networks: P2's objective reads PriceT1 (the z-column costs), so two
// slots identical in workload, tier-2 prices, and previous decision but with
// different tier-1 prices must never share a key — a collision would commit
// a decision optimized for the wrong tier-1 prices and poison every
// downstream slot through prev. Tier-2-only inputs must keep the legacy
// two-row digest, so existing journals and cache keys are unchanged there.
func TestWarmCacheKeyCoversTier1Prices(t *testing.T) {
	n := oneByOne(t, 5, 5, 1)
	if err := n.EnableTier1([]float64{10}, []float64{5}); err != nil {
		t.Fatal(err)
	}
	in := inputsFor([]float64{4, 4}, []float64{1, 1})
	in.PriceT1 = [][]float64{{1}, {3}}
	prev := model.NewZeroDecision(n)
	st := newSolveState()
	if k0, k1 := st.cacheKey(in, 0, prev, nil), st.cacheKey(in, 1, prev, nil); k0 == k1 {
		t.Fatalf("cache key ignores tier-1 prices: slots 0 and 1 collide on %+v", k0)
	}
	flat := inputsFor([]float64{4}, []float64{1})
	if got, want := InputsDigest(flat, 0), journal.Digest(flat.Workload[0], flat.PriceT2[0]); got != want {
		t.Fatalf("tier-2-only inputs digest changed: %s, want legacy %s", got, want)
	}
}

// TestWarmCacheMissesOnTier1PriceChange is the end-to-end half of the same
// contract: a stationary tier-1 instance long enough for the fixed-point
// snap to make the cache hit, with a sharp tier-1 price change on the final
// slot. The final slot repeats the cached (workload, tier-2 prices, prev)
// triple exactly, so a key that omits PriceT1 would short-circuit it through
// the cache; the slot must instead re-solve.
func TestWarmCacheMissesOnTier1PriceChange(t *testing.T) {
	// A light reconfiguration weight lets the smoothed trajectory reach the
	// fixed-point snap well inside the horizon, so the cache actually primes.
	rng := rand.New(rand.NewSource(905))
	n := model.RandomNetwork(rng, 3, 4, 2, 0.5)
	capT1 := make([]float64, n.NumTier1)
	reconfT1 := make([]float64, n.NumTier1)
	for j := range capT1 {
		capT1[j] = 50
		reconfT1[j] = 0.5
	}
	if err := n.EnableTier1(capT1, reconfT1); err != nil {
		t.Fatal(err)
	}
	in := model.RandomInputs(rng, n, 60)
	for tt := 1; tt < in.T; tt++ {
		copy(in.Workload[tt], in.Workload[0])
		copy(in.PriceT2[tt], in.PriceT2[0])
		copy(in.PriceT1[tt], in.PriceT1[0])
	}
	last := in.T - 1
	for j := range in.PriceT1[last] {
		in.PriceT1[last][j] *= 4
	}
	opts := DefaultOptions()
	opts.WarmStart = true
	_, rep, err := RunOnlineReport(n, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, sr := range rep.Slots[:last] {
		if sr.Rung == RungCache {
			hits++
		}
	}
	if hits == 0 {
		t.Fatalf("stationary tier-1 prefix produced no cache hits; the final-slot check would be vacuous: %+v", rep.Slots)
	}
	if rep.Slots[last].Rung == RungCache {
		t.Fatalf("final slot hit the decision cache although its tier-1 prices differ from every cached slot")
	}
}

// stationaryCase is a two-tier instance whose inputs repeat slot 0's on
// all 60 slots.
func stationaryCase() (*model.Network, *model.Inputs) {
	rng := rand.New(rand.NewSource(904))
	n := model.RandomNetwork(rng, 3, 4, 2, 8)
	in := model.RandomInputs(rng, n, 60)
	for tt := 1; tt < in.T; tt++ {
		copy(in.Workload[tt], in.Workload[0])
		copy(in.PriceT2[tt], in.PriceT2[0])
	}
	return n, in
}

// TestWarmDecisionCacheHitsOnStationaryPair drives solveState's cache
// through Online on a stationary two-tier instance. Under reconfiguration
// smoothing the decision approaches the stationary optimum geometrically
// (that is the algorithm working as designed), so the horizon is long enough
// for the trajectory to land within the fixed-point snap; from there the
// digest-keyed cache short-circuits every remaining slot bit-identically.
func TestWarmDecisionCacheHitsOnStationaryPair(t *testing.T) {
	n, in := stationaryCase()
	opts := DefaultOptions()
	opts.WarmStart = true
	seq, rep, err := RunOnlineReport(n, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	cacheSlots := 0
	for _, sr := range rep.Slots {
		if sr.Rung == RungCache {
			cacheSlots++
		}
	}
	if cacheSlots == 0 {
		t.Fatalf("stationary instance produced no cache hits: %+v", rep.Slots)
	}
	last := journal.Digest(seq[in.T-1].X, seq[in.T-1].Y, seq[in.T-1].Z)
	prev := journal.Digest(seq[in.T-2].X, seq[in.T-2].Y, seq[in.T-2].Z)
	if last != prev {
		t.Errorf("cached stationary decisions not bit-identical across slots")
	}
}

// checkpoint is what a journal state record carries for one slot: the
// committed decision and the duals the next slot starts from.
type checkpoint struct {
	dec       *model.Decision
	duals     []float64
	dualsSlot int
}

// warmCheckpoints runs a WarmStart run over the whole horizon and returns
// each slot's checkpoint and the run report.
func warmCheckpoints(t *testing.T, n *model.Network, in *model.Inputs) ([]checkpoint, *Report) {
	t.Helper()
	opts := DefaultOptions()
	opts.WarmStart = true
	o, err := NewOnline(n, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	var cks []checkpoint
	for o.Slot() < in.T {
		d, err := o.Step()
		if err != nil {
			t.Fatal(err)
		}
		cks = append(cks, checkpoint{d, o.state.duals, o.state.dualsSlot})
	}
	return cks, o.Report()
}

// restored returns a WarmStart run restored from ck to decide slot t.
func restored(t *testing.T, n *model.Network, in *model.Inputs, slot int, ck checkpoint) *Online {
	t.Helper()
	opts := DefaultOptions()
	opts.WarmStart = true
	o, err := NewOnline(n, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Restore(slot, ck.dec.Clone(), slices.Clone(ck.duals), ck.dualsSlot); err != nil {
		t.Fatal(err)
	}
	return o
}

// sameCheckpoint reports whether two checkpoints hold the same decision
// and duals bit for bit, and the same duals slot.
func sameCheckpoint(a, b checkpoint) bool {
	return journal.Digest(a.dec.X, a.dec.Y, a.dec.Z) == journal.Digest(b.dec.X, b.dec.Y, b.dec.Z) &&
		journal.Digest(a.duals) == journal.Digest(b.duals) && len(a.duals) == len(b.duals) &&
		a.dualsSlot == b.dualsSlot
}

// TestWarmCacheResumeInsideHitStretch holds the decision cache to the
// carried duals on the stationary instance: hits still happen once the
// decision and its duals repeat, and a run restored from a checkpoint
// inside the stretch of hits re-solves its first slot, lands on the same
// fixed point and commits the uninterrupted run's decisions and duals bit
// for bit, hitting the cache again.
func TestWarmCacheResumeInsideHitStretch(t *testing.T) {
	n, in := stationaryCase()
	want, rep := warmCheckpoints(t, n, in)
	first := -1
	for _, sr := range rep.Slots {
		if sr.Rung == RungCache {
			first = sr.Slot
			break
		}
	}
	if first < 0 || first > in.T-4 {
		t.Fatalf("first cache hit at slot %d of %d", first, in.T)
	}
	for _, r := range []int{first, first + 1, in.T - 3} {
		if rep.Slots[r].Rung != RungCache {
			t.Fatalf("slot %d inside the stretch of hits is %q", r, rep.Slots[r].Rung)
		}
		o := restored(t, n, in, r+1, want[r])
		hits := 0
		for o.Slot() < in.T {
			s := o.Slot()
			d, err := o.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !sameCheckpoint(checkpoint{d, o.state.duals, o.state.dualsSlot}, want[s]) {
				t.Fatalf("resumed after slot %d: slot %d differs from the uninterrupted run", r, s)
			}
			if o.Report().Slots[len(o.Report().Slots)-1].Rung == RungCache {
				hits++
			}
		}
		if hits == 0 && in.T-r > 2 {
			t.Errorf("resumed after slot %d: no cache hit in %d slots", r, in.T-r-1)
		}
	}
}

// TestWarmCoveringSwitchStartsFromDefaultDuals pins when carried duals are
// a dual start: only where the slot's (3d)/(3e) covering activity equals
// that of the slot they were solved at. On a network whose workload
// switches covering rows on at slot 2 and off at slot 4, the warm solve of
// those slots starts from the default z — a run restored there with the
// checkpointed duals and one restored with none commit the same bits, and
// both the uninterrupted run's — while slots 1 and 3, whose rows repeat,
// start from the duals.
func TestWarmCoveringSwitchStartsFromDefaultDuals(t *testing.T) {
	n, in := coveringSwitchCase(t)
	in.Workload = [][]float64{{3, 3}, {3.2, 3}, {7, 3}, {7.1, 3}, {3, 3.1}}
	want, _ := warmCheckpoints(t, n, in)
	for s := 1; s < in.T; s++ {
		switched := !sameCovering(n, in, s, want[s-1].dualsSlot)
		if switched != (s == 2 || s == 4) {
			t.Fatalf("slot %d: covering switch %v", s, switched)
		}
		withDuals := restored(t, n, in, s, want[s-1])
		if got := withDuals.state.startDuals(n, in, s); (got == nil) != switched {
			t.Fatalf("slot %d: restored start duals %v with a covering switch %v", s, got != nil, switched)
		}
		none := restored(t, n, in, s, checkpoint{dec: want[s-1].dec})
		a, err := withDuals.Step()
		if err != nil {
			t.Fatal(err)
		}
		b, err := none.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !sameCheckpoint(checkpoint{a, withDuals.state.duals, withDuals.state.dualsSlot}, want[s]) {
			t.Errorf("slot %d: restored run differs from the uninterrupted one", s)
		}
		same := journal.Digest(a.X, a.Y, a.Z) == journal.Digest(b.X, b.Y, b.Z)
		if same != switched {
			t.Errorf("slot %d: with and without carried duals the decisions agree %v, covering switch %v", s, same, switched)
		}
	}
}
