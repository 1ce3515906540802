package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"soral/internal/obs/journal"
)

// ServeOptions selects what the exposition server exposes. Every field is
// optional; an endpoint whose source is missing answers 404.
type ServeOptions struct {
	// Registry backs /metrics (Prometheus text exposition of its snapshot).
	Registry *Registry
	// Health backs /healthz: it returns whether the run is currently healthy
	// and a JSON-marshalable detail body (e.g. a resilience.HealthSnapshot).
	// Unhealthy answers 503 so load balancers and probes need no body
	// parsing. The function must be safe for concurrent calls.
	Health func() (healthy bool, detail any)
	// Runs backs /runs: the journal feed streamed as newline-delimited JSON,
	// retained lines first, then live records as slots commit.
	Runs *journal.Feed
	// HeartbeatEvery paces the /runs idle heartbeat: when no record arrives
	// for this long, the stream emits a `# heartbeat t_ns=<now>` comment line
	// so subscribers can tell a quiet run from a stalled connection. Zero
	// selects the 5s default; negative disables heartbeats.
	HeartbeatEvery time.Duration
	// Alerts backs /alerts: a snapshot function returning the JSON body
	// (e.g. a watch.Engine's Status, current firing alerts plus history).
	Alerts func() any
}

// defaultHeartbeat is the /runs idle heartbeat period when unset.
const defaultHeartbeat = 5 * time.Second

// Server is a running exposition server. Shut it down by canceling the
// Serve context or calling Shutdown.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Serve starts the opt-in observability endpoint on addr (":9090",
// "127.0.0.1:0", ...). It binds synchronously — a taken port fails here,
// not later — then serves in the background until ctx is canceled or
// Shutdown is called. The ctx also caps every /runs stream: cancellation
// ends live tails so shutdown is prompt.
func Serve(ctx context.Context, addr string, opts ServeOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: serve %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if opts.Registry == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// The feed's backpressure state lives on the feed, not the registry;
		// mirror it at scrape time so /metrics always reports the current
		// drop count and subscriber fan-out.
		if opts.Runs != nil {
			opts.Registry.SetCounter("journal.feed.dropped_lines", opts.Runs.Dropped())
			opts.Registry.SetGauge("journal.feed.subscribers", float64(opts.Runs.Subscribers()))
		}
		// Past the first byte there is no way to signal failure; a broken
		// client connection is its own problem.
		_ = opts.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if opts.Health == nil {
			http.NotFound(w, r)
			return
		}
		healthy, detail := opts.Health()
		w.Header().Set("Content-Type", "application/json")
		if !healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(detail)
	})
	mux.HandleFunc("/runs", func(w http.ResponseWriter, r *http.Request) {
		if opts.Runs == nil {
			http.NotFound(w, r)
			return
		}
		flusher, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		recent, live, cancel := opts.Runs.Subscribe()
		defer cancel()
		for _, line := range recent {
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		flusher.Flush()
		every := opts.HeartbeatEvery
		if every == 0 {
			every = defaultHeartbeat
		}
		var beat <-chan time.Time
		if every > 0 {
			t := time.NewTicker(every)
			defer t.Stop()
			beat = t.C
		}
		for {
			select {
			case line, open := <-live:
				if !open {
					return // run finished: the journal is complete
				}
				if _, err := w.Write(line); err != nil {
					return
				}
				flusher.Flush()
			case now := <-beat:
				// A quiet run still proves the stream is alive: comment
				// lines (leading '#') are skipped by NDJSON consumers.
				if _, err := fmt.Fprintf(w, "# heartbeat t_ns=%d\n", now.UnixNano()); err != nil {
					return
				}
				flusher.Flush()
			case <-r.Context().Done():
				return
			case <-ctx.Done():
				return
			}
		}
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		if opts.Alerts == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(opts.Alerts())
	})

	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		// ErrServerClosed is the normal shutdown signal, not a failure.
		_ = s.srv.Serve(ln)
	}()
	go func() {
		select {
		case <-ctx.Done():
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = s.srv.Shutdown(shutdownCtx)
		case <-s.done:
		}
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown stops the server, waiting for in-flight requests up to ctx's
// deadline, and returns once the serve loop has exited.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

// Done is closed when the serve loop has exited.
func (s *Server) Done() <-chan struct{} { return s.done }
