package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"soral/internal/core"
	"soral/internal/obs/journal"
)

func replaySpec() ScenarioSpec {
	return ScenarioSpec{NumTier2: 2, NumTier1: 3, K: 1, T: 6, Trace: TraceWikipedia, Seed: 3, ReconfWeight: 10}
}

// TestRecordReplayRoundTrip is the tentpole acceptance check: a recorded run
// replays bit-identically from nothing but its own journal.
func TestRecordReplayRoundTrip(t *testing.T) {
	for _, alg := range []string{"online", "greedy", "rfhc"} {
		cfg := RunConfig{Spec: replaySpec(), Algorithm: alg, Window: 2, PredictSeed: 11}
		var buf bytes.Buffer
		w := journal.NewWriter(&buf)
		run, _, err := Record(context.Background(), cfg, w)
		if err != nil {
			t.Fatalf("%s: record: %v", alg, err)
		}
		j, err := journal.Read(&buf)
		if err != nil {
			t.Fatalf("%s: recorded journal invalid: %v", alg, err)
		}
		if !j.Replayable() {
			t.Fatalf("%s: recorded journal not replayable", alg)
		}
		if len(j.Slots) != cfg.Spec.T {
			t.Fatalf("%s: journal has %d slots, want %d", alg, len(j.Slots), cfg.Spec.T)
		}
		if j.Footer == nil || j.Footer.TotalCost != run.Cost.Total() {
			t.Fatalf("%s: footer %+v does not carry the run objective %g", alg, j.Footer, run.Cost.Total())
		}
		res, err := Replay(context.Background(), j)
		if err != nil {
			t.Fatalf("%s: replay: %v", alg, err)
		}
		if !res.Clean() {
			t.Fatalf("%s: replay diverged: %+v", alg, res.Mismatches)
		}
		if res.Slots != cfg.Spec.T {
			t.Fatalf("%s: replay compared %d slots, want %d", alg, res.Slots, cfg.Spec.T)
		}
	}
}

// TestReplayReportsSolverMismatch rewrites a recorded online journal's
// header to the identity journals had before they named their solver (no
// solver field) and checks replay reports one solver mismatch instead of a
// digest divergence on every slot.
func TestReplayReportsSolverMismatch(t *testing.T) {
	cfg := RunConfig{Spec: replaySpec(), Algorithm: "online"}
	var buf bytes.Buffer
	if _, _, err := Record(context.Background(), cfg, journal.NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	var h journal.Header
	if err := json.Unmarshal(lines[0], &h); err != nil {
		t.Fatal(err)
	}
	if h.Solver != core.SolverID {
		t.Fatalf("recorded header names solver %q, want %q", h.Solver, core.SolverID)
	}
	h.Solver = ""
	var old bytes.Buffer
	journal.NewWriter(&old).Begin(h)
	if bytes.Contains(old.Bytes(), []byte(`"solver"`)) {
		t.Fatalf("rewritten header still names a solver: %s", old.Bytes())
	}
	old.Write(bytes.Join(lines[1:], nil))
	j, err := journal.Read(&old)
	if err != nil {
		t.Fatalf("rewritten journal invalid: %v", err)
	}
	res, err := Replay(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mismatches) != 1 || res.Mismatches[0].Field != "solver" || res.Mismatches[0].Got != core.SolverID {
		t.Fatalf("want exactly one solver mismatch, got %+v", res.Mismatches)
	}
}

// TestReplayDetectsTamper flips one digest in a recorded journal and checks
// replay reports exactly that slot.
func TestReplayDetectsTamper(t *testing.T) {
	cfg := RunConfig{Spec: replaySpec(), Algorithm: "online"}
	var buf bytes.Buffer
	if _, _, err := Record(context.Background(), cfg, journal.NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	j, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	j.Slots[2].DecisionDigest = journal.Digest([]float64{42})
	res, err := Replay(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Fatal("tampered digest replayed clean")
	}
	if len(res.Mismatches) != 1 || res.Mismatches[0].Slot != 2 || res.Mismatches[0].Field != "decision" {
		t.Fatalf("mismatches = %+v, want one decision mismatch at slot 2", res.Mismatches)
	}
}

// TestReplayReconcilesAttribution tampers with the recorded cost attribution
// and the footer objective; replay must flag each with its own field while
// the decisions themselves still verify.
func TestReplayReconcilesAttribution(t *testing.T) {
	cfg := RunConfig{Spec: replaySpec(), Algorithm: "online"}
	var buf bytes.Buffer
	if _, _, err := Record(context.Background(), cfg, journal.NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	read := func() *journal.Journal {
		t.Helper()
		j, err := journal.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	fields := func(j *journal.Journal) []string {
		t.Helper()
		res, err := Replay(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		var fs []string
		for _, m := range res.Mismatches {
			fs = append(fs, m.Field)
		}
		return fs
	}

	if j := read(); j.Slots[1].Attr == nil {
		t.Fatal("recorded journal carries no attribution; nothing to reconcile")
	}

	// A perturbed component no longer matches the recomputed attribution and
	// no longer sums to the recorded alloc+reconf totals.
	j := read()
	j.Slots[1].Attr.AllocT2 += 0.5
	fs := fields(j)
	if len(fs) != 2 || fs[0] != "attr" || fs[1] != "attr-sum" {
		t.Fatalf("tampered attr component: fields = %v, want [attr attr-sum]", fs)
	}

	// A tampered footer objective must be caught by the footer-vs-slot-sum
	// reconciliation, attributed to the pseudo-slot -1.
	j = read()
	j.Footer.TotalCost += 1
	res, err := Replay(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mismatches) != 1 || res.Mismatches[0].Field != "objective" || res.Mismatches[0].Slot != -1 {
		t.Fatalf("tampered footer: mismatches = %+v, want one objective mismatch at slot -1", res.Mismatches)
	}
}

func TestReplayRejectsConfiglessJournal(t *testing.T) {
	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
	w.Begin(journal.Header{Algorithm: "online"})
	w.End(journal.Footer{})
	j, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(context.Background(), j); err == nil || !strings.Contains(err.Error(), "no config") {
		t.Fatalf("err = %v, want not-replayable", err)
	}
}

// TestRecordInstanceHeader pins the journal of an external-instance run
// (soral -instance): the same header and footer as Record, naming the
// solver and carrying the iteration total and wall time, but with no
// embedded config, so it is auditable and not replayable. The run records
// no telemetry, and every slot record still carries its wall time and
// iteration count.
func TestRecordInstanceHeader(t *testing.T) {
	scen, err := Build(replaySpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	run, err := RecordInstance(context.Background(), &Scenario{Net: scen.Net, In: scen.In},
		RunConfig{Algorithm: "online"}, journal.NewWriter(&buf))
	if err != nil {
		t.Fatal(err)
	}
	j, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := j.Header
	if h.Solver != core.SolverID || h.Algorithm != "online" {
		t.Fatalf("header algorithm %q solver %q, want online and %q", h.Algorithm, h.Solver, core.SolverID)
	}
	if len(h.Config) != 0 || h.ConfigDigest != "" || j.Replayable() {
		t.Fatalf("instance header embeds a config: digest %q config %s", h.ConfigDigest, h.Config)
	}
	if len(j.Slots) != scen.In.T {
		t.Fatalf("journal has %d slots, want %d", len(j.Slots), scen.In.T)
	}
	for _, rec := range j.Slots {
		if rec.DurNS <= 0 || rec.Iters <= 0 {
			t.Fatalf("slot %d journals dur_ns %d and iters %d, want both > 0", rec.Slot, rec.DurNS, rec.Iters)
		}
	}
	f := j.Footer
	if f == nil || f.TotalCost != run.Cost.Total() || f.DurNS <= 0 ||
		f.TotalIters <= 0 || f.TotalIters != run.Report.TotalIterations() {
		t.Fatalf("footer %+v, want total cost %g, total_iters %d and dur_ns > 0",
			f, run.Cost.Total(), run.Report.TotalIterations())
	}
}

// TestRecordCancellation: a canceled context aborts the run and leaves the
// journal footerless — the reader must still accept the prefix.
func TestRecordCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := RunConfig{Spec: replaySpec(), Algorithm: "online"}
	var buf bytes.Buffer
	if _, _, err := Record(ctx, cfg, journal.NewWriter(&buf)); err == nil {
		t.Fatal("canceled record did not error")
	}
	j, err := journal.Read(&buf)
	if err != nil {
		t.Fatalf("mid-flight journal rejected: %v", err)
	}
	if j.Footer != nil {
		t.Fatal("aborted run wrote a footer")
	}
}

// TestConfigDigestCanonical: spelling out default knobs or leaving them zero
// must yield the same embedded config, so journal digests pair up across
// sloppy and explicit invocations.
func TestConfigDigestCanonical(t *testing.T) {
	implicit := RunConfig{Spec: ScenarioSpec{NumTier2: 2, NumTier1: 3, K: 1, T: 4}, Algorithm: "online"}
	explicit := implicit
	explicit.Eps = 1e-2
	explicit.Spec.Trace = TraceWikipedia
	explicit.Spec.Seed = 1
	explicit.Spec.PeakLoad = 40
	explicit.Spec.ElecScale = 0.01

	record := func(cfg RunConfig) string {
		var buf bytes.Buffer
		if _, _, err := Record(context.Background(), cfg, journal.NewWriter(&buf)); err != nil {
			t.Fatal(err)
		}
		j, err := journal.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return j.Header.ConfigDigest
	}
	if a, b := record(implicit), record(explicit); a != b {
		t.Fatalf("config digest differs between implicit (%s) and explicit (%s) defaults", a, b)
	}
}
