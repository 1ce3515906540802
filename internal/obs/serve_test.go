package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"soral/internal/obs/journal"
)

type fakeHealth struct {
	State    string `json:"state"`
	Degraded int    `json:"degraded"`
}

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestServeMetricsAndHealthz(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	reg := promRegistry()
	healthy := true
	srv, err := Serve(ctx, "127.0.0.1:0", ServeOptions{
		Registry: reg,
		Health: func() (bool, any) {
			return healthy, fakeHealth{State: map[bool]string{true: "ok", false: "degraded"}[healthy], Degraded: 1}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	code, body, ctype := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content-type %q", ctype)
	}
	if !strings.Contains(body, "soral_solver_iterations 42") ||
		!strings.Contains(body, `soral_latency_core_slot_seconds_bucket{le="+Inf"} 10`) {
		t.Errorf("/metrics body missing expected lines:\n%s", body)
	}

	code, body, _ = get(t, base+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"state":"ok"`) {
		t.Fatalf("healthy /healthz = %d %q", code, body)
	}
	healthy = false
	code, body, _ = get(t, base+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"state":"degraded"`) {
		t.Fatalf("degraded /healthz = %d %q, want 503 + degraded", code, body)
	}

	// /runs with no feed answers 404.
	code, _, _ = get(t, base+"/runs")
	if code != http.StatusNotFound {
		t.Fatalf("/runs without a feed = %d, want 404", code)
	}

	cancel()
	select {
	case <-srv.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down on ctx cancel")
	}
}

// TestRegistryWritePrometheusMatchesMetrics pins that the -metrics file and
// the /metrics body are one format: for a registry with no feed attached,
// WritePrometheus writes exactly the bytes a scrape returns.
func TestRegistryWritePrometheusMatchesMetrics(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	reg := promRegistry()
	srv, err := Serve(ctx, "127.0.0.1:0", ServeOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	var dump strings.Builder
	if err := reg.WritePrometheus(&dump); err != nil {
		t.Fatal(err)
	}
	code, body, _ := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if body != dump.String() {
		t.Fatalf("/metrics body differs from WritePrometheus.\nbody:\n%s\ndump:\n%s", body, dump.String())
	}
}

// TestServeRunsStreams exercises the live journal tail: a subscriber sees
// the retained prefix immediately and subsequently appended slot records as
// they commit, and the stream ends when the journal closes.
func TestServeRunsStreams(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	feed := journal.NewFeed(0)
	jw := journal.NewWriter(nil).Attach(feed)
	jw.Begin(journal.Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
	dig := journal.Digest([]float64{1})
	jw.Slot(journal.SlotRecord{Slot: 0, InputsDigest: dig, DecisionDigest: dig, Status: journal.StatusOK})

	srv, err := Serve(ctx, "127.0.0.1:0", ServeOptions{Runs: feed})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	resp, err := http.Get("http://" + srv.Addr() + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("/runs content-type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	lines := make(chan string, 16)
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	next := func(what string) string {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatalf("stream ended while waiting for %s", what)
			}
			return l
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
		panic("unreachable")
	}

	var kind struct {
		Kind string `json:"kind"`
		Slot int    `json:"slot"`
	}
	if err := json.Unmarshal([]byte(next("header")), &kind); err != nil || kind.Kind != journal.KindHeader {
		t.Fatalf("first streamed line = %v / %+v, want header", err, kind)
	}
	if err := json.Unmarshal([]byte(next("retained slot")), &kind); err != nil || kind.Kind != journal.KindSlot || kind.Slot != 0 {
		t.Fatalf("second streamed line = %v / %+v, want slot 0", err, kind)
	}

	// Records appended while the client is connected arrive live.
	for i := 1; i <= 3; i++ {
		jw.Slot(journal.SlotRecord{Slot: i, InputsDigest: dig, DecisionDigest: dig, Status: journal.StatusOK})
		if err := json.Unmarshal([]byte(next(fmt.Sprintf("live slot %d", i))), &kind); err != nil || kind.Slot != i {
			t.Fatalf("live record %d = %v / %+v", i, err, kind)
		}
	}

	// Closing the journal ends the stream cleanly.
	jw.End(journal.Footer{})
	if err := json.Unmarshal([]byte(next("footer")), &kind); err != nil || kind.Kind != journal.KindFooter {
		t.Fatalf("footer line = %v / %+v", err, kind)
	}
	select {
	case _, open := <-lines:
		if open {
			t.Fatal("stream kept going after the footer")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after journal close")
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestServeFeedCounters covers the scrape-time mirrors: the feed's drop
// counter and subscriber gauge appear on /metrics. (The human-readable 503
// reason is rendered by resilience.HealthSnapshot and tested there; the
// handler serializes whatever detail the Health func returns.)
func TestServeFeedCounters(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	reg := NewRegistry()
	feed := journal.NewFeed(0)
	srv, err := Serve(ctx, "127.0.0.1:0", ServeOptions{
		Registry: reg,
		Runs:     feed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := "http://" + srv.Addr()

	_, _, cancelSub := feed.Subscribe()
	defer cancelSub()
	_, body, _ := get(t, base+"/metrics")
	if !strings.Contains(body, "soral_journal_feed_dropped_lines 0") {
		t.Errorf("/metrics missing feed drop counter:\n%s", body)
	}
	if !strings.Contains(body, "soral_journal_feed_subscribers 1") {
		t.Errorf("/metrics missing subscriber gauge:\n%s", body)
	}
}

func TestServeRejectsTakenPort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a, err := Serve(ctx, "127.0.0.1:0", ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Shutdown(context.Background())
	if _, err := Serve(ctx, a.Addr(), ServeOptions{}); err == nil {
		t.Fatal("second bind on the same address succeeded")
	}
}

// TestServeShutdownLeavesNoGoroutines pins Serve's goroutine contract: the
// serve loop and the context watcher have both exited once Shutdown
// returns, even though the Serve context is never canceled. Connections
// left by earlier tests are closed and the count settled first, so none of
// them exiting mid-test can hide a leak; the final count is polled briefly
// because closed connections wind down asynchronously.
func TestServeShutdownLeavesNoGoroutines(t *testing.T) {
	http.DefaultClient.CloseIdleConnections()
	before := settledGoroutines()
	srv, err := Serve(context.Background(), "127.0.0.1:0", ServeOptions{Registry: promRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{}}
	resp, err := client.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	client.CloseIdleConnections()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, %d before Serve", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// settledGoroutines returns the goroutine count once it has held still for
// 50ms, or after 2s.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for start, still := time.Now(), time.Now(); time.Since(start) < 2*time.Second; {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, time.Now()
		} else if time.Since(still) >= 50*time.Millisecond {
			break
		}
	}
	return n
}

// TestServeRunsHeartbeat pins the idle-stream keepalive: a subscriber on a
// quiet run receives comment lines on the configured cadence, and real
// records still interleave correctly.
func TestServeRunsHeartbeat(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	feed := journal.NewFeed(0)
	jw := journal.NewWriter(nil).Attach(feed)
	jw.Begin(journal.Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})

	srv, err := Serve(ctx, "127.0.0.1:0", ServeOptions{
		Runs:           feed,
		HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	resp, err := http.Get("http://" + srv.Addr() + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	next := func(what string) string {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatalf("stream ended while waiting for %s", what)
			}
			return l
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
		panic("unreachable")
	}

	if l := next("header"); !strings.Contains(l, `"kind":"header"`) {
		t.Fatalf("first line = %q, want header", l)
	}
	// The run is now idle: heartbeats must arrive without any record traffic.
	hb := next("first heartbeat")
	if !strings.HasPrefix(hb, "# heartbeat t_ns=") {
		t.Fatalf("idle line = %q, want heartbeat comment", hb)
	}
	var tns int64
	if _, err := fmt.Sscanf(hb, "# heartbeat t_ns=%d", &tns); err != nil || tns <= 0 {
		t.Fatalf("heartbeat timestamp unparseable: %q (%v)", hb, err)
	}
	if hb2 := next("second heartbeat"); !strings.HasPrefix(hb2, "# heartbeat t_ns=") {
		t.Fatalf("second idle line = %q, want heartbeat comment", hb2)
	}

	// A live record still comes through between heartbeats.
	dig := journal.Digest([]float64{1})
	jw.Slot(journal.SlotRecord{Slot: 0, InputsDigest: dig, DecisionDigest: dig, Status: journal.StatusOK})
	deadline := time.After(5 * time.Second)
	for {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatal("stream ended before the slot record arrived")
			}
			if strings.HasPrefix(l, "#") {
				continue // heartbeats may interleave
			}
			if !strings.Contains(l, `"kind":"slot"`) {
				t.Fatalf("record line = %q, want slot", l)
			}
			return
		case <-deadline:
			t.Fatal("timed out waiting for the slot record")
		}
	}
}

// TestServeAlertsAndTimeseries covers the watchdog surface: /alerts
// serializes the snapshot function's value and 404s when unconfigured, and
// /timeseries answers 404 whatever is configured, because /metrics is the
// registry's one way out.
func TestServeAlertsAndTimeseries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type alertBody struct {
		Firing []string `json:"firing"`
	}
	srv, err := Serve(ctx, "127.0.0.1:0", ServeOptions{
		Registry: NewRegistry(),
		Alerts:   func() any { return alertBody{Firing: []string{"slo-burn-rate"}} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := "http://" + srv.Addr()

	code, body, ctype := get(t, base+"/alerts")
	if code != http.StatusOK || ctype != "application/json" {
		t.Fatalf("/alerts = %d %q", code, ctype)
	}
	var ab alertBody
	if err := json.Unmarshal([]byte(body), &ab); err != nil || len(ab.Firing) != 1 || ab.Firing[0] != "slo-burn-rate" {
		t.Fatalf("/alerts body = %q (%v)", body, err)
	}
	for _, path := range []string{"/timeseries", "/timeseries?metric=solver.iterations&since=150"} {
		if code, _, _ = get(t, base+path); code != http.StatusNotFound {
			t.Fatalf("%s = %d, want 404", path, code)
		}
	}

	// Unconfigured /alerts 404s.
	bare, err := Serve(ctx, "127.0.0.1:0", ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Shutdown(context.Background())
	if code, _, _ = get(t, "http://"+bare.Addr()+"/alerts"); code != http.StatusNotFound {
		t.Fatalf("unconfigured /alerts = %d", code)
	}
}
