package journal

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// benchNets are the network sizes (tier-2 clouds × tier-1 groups) the
// journal benchmarks sweep. With two tier-2 routes per group, a decision
// holds 2·J pairs in each of X, Y and Z: 36 floats on the paper-sized 3×6
// network (perfbench's steady-cache and warm-bursty), 72 on cold-dense's
// 4×12, and 288 on 4×48.
var benchNets = []struct{ i, j int }{{3, 6}, {4, 12}, {4, 48}}

// benchCommit returns slot t's records on an i×j network. A repeating
// stream commits the same decision every slot, as the decision cache and
// the fixed-point snap do; a changing stream perturbs every value.
func benchCommit(i, j, t int, repeat bool) (SlotRecord, StateRecord) {
	v := func(k int) float64 {
		x := 24.999999999995644 - 3.1*float64(k%7) + 1e-9*float64(k)
		if !repeat {
			x += 1e-6 * float64(t)
		}
		return x
	}
	vec := func(n, off int) []float64 {
		out := make([]float64, n)
		for k := range out {
			out[k] = v(k + off)
		}
		return out
	}
	pairs := 2 * j
	x, y, z := vec(pairs, 0), vec(pairs, pairs), vec(pairs, 2*pairs)
	d := Digest(x, y, z)
	slot := SlotRecord{
		Slot: t, InputsDigest: sampleDigest(1), DecisionDigest: d,
		AllocCost: v(1), ReconfCost: v(2), Status: StatusOK, Rung: "cache", Warm: true,
		Attr: &CostAttr{AllocT2: v(3), AllocNet: v(4), ReconfT2: v(5), ReconfNet: v(6),
			PerTier2: vec(i, 7), PerTier1: vec(j, 11), OperLB: v(9)},
	}
	return slot, StateRecord{Slot: t, X: x, Y: y, Z: z, DecisionDigest: d}
}

// benchJournal writes a header and n committed slots.
func benchJournal(i, j, n int, repeat bool) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
	for t := 0; t < n; t++ {
		w.Commit(benchCommit(i, j, t, repeat))
	}
	if err := w.Err(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// BenchmarkJournalCommit reports ns per Writer.Commit (one slot and its
// checkpoint) into io.Discard, for repeating and changing decisions.
func BenchmarkJournalCommit(b *testing.B) {
	for _, net := range benchNets {
		for _, repeat := range []bool{true, false} {
			b.Run(fmt.Sprintf("%dx%d/%s", net.i, net.j, streamName(repeat)), func(b *testing.B) {
				const cycle = 64
				var recs [cycle]struct {
					slot  SlotRecord
					state StateRecord
				}
				for t := range recs {
					recs[t].slot, recs[t].state = benchCommit(net.i, net.j, t, repeat)
				}
				w := NewWriter(io.Discard)
				w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					r := &recs[n%cycle]
					r.slot.Slot, r.state.Slot = n, n
					w.Commit(r.slot, r.state)
				}
				if err := w.Err(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkJournalRecover reports ns per slot for Recover on a 4096-slot
// journal: the re-read a resumed run or a checker does.
func BenchmarkJournalRecover(b *testing.B) {
	const slots = 4096
	for _, net := range benchNets {
		for _, repeat := range []bool{true, false} {
			b.Run(fmt.Sprintf("%dx%d/%s", net.i, net.j, streamName(repeat)), func(b *testing.B) {
				data := benchJournal(net.i, net.j, slots, repeat)
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					j, _, err := Recover(bytes.NewReader(data))
					if err != nil {
						b.Fatal(err)
					}
					if len(j.Slots) != slots {
						b.Fatalf("recovered %d slots, want %d", len(j.Slots), slots)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/slots, "ns/slot")
			})
		}
	}
}

func streamName(repeat bool) string {
	if repeat {
		return "repeat"
	}
	return "change"
}
