package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"soral/internal/core"
	"soral/internal/model"
	"soral/internal/obs/attr"
	"soral/internal/obs/journal"
)

// feasTol is the absolute slot-feasibility tolerance core's fallback
// ladder accepts a decision at; the check holds decisions to the same.
const feasTol = 1e-4

// costRelTol bounds the disagreement between the journal's per-slot cost
// terms and the Accountant's recomputation: the two sum the same terms in
// different orders.
const costRelTol = 1e-9

// episodeCheck is what checkEpisode found in one episode.
type episodeCheck struct {
	failed   int // slots that failed at least one check
	problems []string
	// digest fingerprints every decision of the episode, in slot order.
	digest string
	// cost is the Accountant's whole-horizon cost and lowerBound the sum of
	// the per-slot operating lower bounds.
	cost, lowerBound float64
}

// checkEpisode checks a finished episode: every decision is feasible for
// its slot and not degraded, the journal at path re-reads through
// journal.RecoverFile with no torn tail and exactly one slot record per
// decision, each record carries its decision's digest, and the records'
// allocation and reconfiguration costs sum to the Accountant's cost.
func checkEpisode(net *model.Network, in *model.Inputs, decs []*model.Decision, report []core.SlotReport, path string) episodeCheck {
	var c episodeCheck
	bad := make([]bool, len(decs))
	fail := func(t int, format string, args ...any) {
		if !bad[t] {
			bad[t] = true
			c.failed++
		}
		if len(c.problems) < 10 {
			c.problems = append(c.problems, fmt.Sprintf("slot %d: ", t)+fmt.Sprintf(format, args...))
		}
	}
	failAll := func(format string, args ...any) {
		for t := range bad {
			if !bad[t] {
				bad[t] = true
				c.failed++
			}
		}
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}

	acc := model.Accountant{Net: net, In: in}
	digests := make([]string, len(decs))
	h := sha256.New()
	prev := model.NewZeroDecision(net)
	for t, dec := range decs {
		if ok, v := dec.FeasibleAt(net, in.Workload[t], feasTol); !ok {
			fail(t, "decision violates the slot constraints by %g", v)
		}
		if t < len(report) && report[t].Status == core.SlotDegraded {
			fail(t, "degraded: %v", report[t].Err)
		}
		c.cost += acc.SlotCost(t, prev, dec).Total()
		c.lowerBound += attr.OperatingLowerBound(net, in, t)
		digests[t] = journal.Digest(dec.X, dec.Y, dec.Z)
		h.Write([]byte(digests[t]))
		prev = dec
	}
	c.digest = "sha256:" + hex.EncodeToString(h.Sum(nil))

	j, info, err := journal.RecoverFile(path)
	switch {
	case err != nil:
		failAll("journal does not re-read: %v", err)
		return c
	case info.Torn:
		failAll("journal has a torn tail at line %d", info.TornLine)
		return c
	case len(j.Slots) != len(decs):
		failAll("journal holds %d slot records for %d decided slots", len(j.Slots), len(decs))
		return c
	}
	var journaled float64
	for t, rec := range j.Slots {
		if rec.Slot != t {
			fail(t, "journal record %d is for slot %d", t, rec.Slot)
		}
		if rec.DecisionDigest != digests[t] {
			fail(t, "journal digest %s, decision digest %s", rec.DecisionDigest, digests[t])
		}
		journaled += rec.AllocCost + rec.ReconfCost
	}
	if math.Abs(journaled-c.cost) > costRelTol*math.Abs(c.cost) {
		failAll("journal costs sum to %.12g, Accountant cost %.12g", journaled, c.cost)
	}
	return c
}
