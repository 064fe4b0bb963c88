// Package obsrv is the live introspection server: an embeddable,
// stdlib-only HTTP endpoint that exposes a running simulation's
// telemetry (/metrics, Prometheus text), decision stream (/events,
// Server-Sent Events), canonical scheduler state (/state), wait
// attribution (/blame), health and readiness probes, and the standard
// pprof handlers.
//
// The design constraint that shapes everything here is that the
// simulation is single-threaded and deterministic: HTTP handlers run on
// their own goroutines and must never call into the engine, and nothing
// a reader does (connect, stall, disconnect) may change what the run
// computes. The package therefore only ever serves published
// snapshots — the engine goroutine pushes copies out through atomic
// pointers (MaybePublish, from the sim.Engine step hook) and the Hub
// fans events out through bounded rings that drop rather than block.
package obsrv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"rdasched/internal/core"
	"rdasched/internal/telemetry"
	"rdasched/internal/telemetry/blame"
	"rdasched/internal/version"
)

// Introspection metric names, registered in the scrape-time mini
// registry appended to every /metrics response.
const (
	MetricDroppedEvents = "rda_obsrv_dropped_events_total"
	MetricScrapes       = "rda_obsrv_scrapes_total"
	MetricSubscribers   = "rda_obsrv_subscribers"
)

// Config configures a Server.
type Config struct {
	// Addr is the listen address (e.g. ":8080", "127.0.0.1:0").
	Addr string
	// StatePeriod is the minimum wall-clock interval between state/blame
	// publications from MaybePublish; 0 means DefaultStatePeriod.
	StatePeriod time.Duration
}

// DefaultEventBuffer is the capacity of each /events subscriber's ring.
const DefaultEventBuffer = 1024

// DefaultStatePeriod is the MaybePublish wall-clock gate.
const DefaultStatePeriod = 250 * time.Millisecond

// Server is one live introspection endpoint. All exported methods are
// safe for concurrent use; the publish methods are expected to be
// called from the engine goroutine and the HTTP handlers read only
// atomically-published copies.
type Server struct {
	hub         *Hub
	ln          net.Listener
	srv         *http.Server
	statePeriod time.Duration

	registry atomic.Pointer[telemetry.Registry]
	state    atomic.Pointer[[]byte] // canonical core.State JSON
	blame    atomic.Pointer[[]byte] // blame.Report JSON

	ready   atomic.Bool
	stop    atomic.Bool
	scrapes atomic.Uint64
	lastPub atomic.Int64 // wall unixnano of the last MaybePublish

	done     chan struct{} // closed by Close; unblocks SSE handlers
	serveErr chan error
}

// Serve binds cfg.Addr and starts serving in a background goroutine.
// The returned server is live immediately (Addr reports the bound
// address, which matters for ":0"); the caller must Close it.
func Serve(cfg Config) (*Server, error) {
	if cfg.StatePeriod <= 0 {
		cfg.StatePeriod = DefaultStatePeriod
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obsrv: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		hub:         NewHub(),
		ln:          ln,
		statePeriod: cfg.StatePeriod,
		done:        make(chan struct{}),
		serveErr:    make(chan error, 1),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/state", s.handleState)
	mux.HandleFunc("/blame", s.handleBlame)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Hub returns the event fan-out; attach it to the scheduler with
// AddSink so /events receives the decision stream.
func (s *Server) Hub() *Hub { return s.hub }

// SetRegistry publishes the registry /metrics scrapes from. The
// registry stays live — scrapes snapshot it — so this is called once
// per run, not per update.
func (s *Server) SetRegistry(r *telemetry.Registry) { s.registry.Store(r) }

// PublishState publishes a state snapshot for /state. Called on the
// engine goroutine; the encoding happens there so handlers only copy
// bytes.
func (s *Server) PublishState(st core.State) error {
	buf, err := st.Canonical()
	if err != nil {
		return err
	}
	s.state.Store(&buf)
	return nil
}

// PublishBlame publishes a wait-attribution report for /blame.
func (s *Server) PublishBlame(rpt *blame.Report) error {
	if rpt == nil {
		return nil
	}
	buf, err := json.Marshal(rpt)
	if err != nil {
		return err
	}
	s.blame.Store(&buf)
	return nil
}

// SetReady flips the /readyz gate: false while restoring a checkpoint
// or before the run starts, true once the run is live.
func (s *Server) SetReady(ok bool) { s.ready.Store(ok) }

// RequestStop asks the run to halt at the next event boundary. Safe
// from any goroutine (it is called from signal handlers); the engine
// goroutine observes it via StopRequested in its step hook.
func (s *Server) RequestStop() { s.stop.Store(true) }

// StopRequested reports whether RequestStop has been called.
func (s *Server) StopRequested() bool { return s.stop.Load() }

// MaybePublish publishes state (and blame, when rpt is non-nil) if at
// least the configured StatePeriod of wall time has passed since the
// last publication. It is designed to be called from the engine step
// hook after every event: the atomic gate makes the common case one
// clock read, so pacing-off runs are not slowed by snapshot encoding.
func (s *Server) MaybePublish(state func() core.State, rpt func() *blame.Report) {
	now := time.Now().UnixNano()
	last := s.lastPub.Load()
	if now-last < int64(s.statePeriod) {
		return
	}
	if !s.lastPub.CompareAndSwap(last, now) {
		return
	}
	if state != nil {
		_ = s.PublishState(state())
	}
	if rpt != nil {
		_ = s.PublishBlame(rpt())
	}
}

// Close shuts the server down: SSE streams are released, in-flight
// requests get until ctx's deadline to finish, and the listener is
// closed. Idempotent enough for defer (second call returns the shutdown
// error state).
func (s *Server) Close(ctx context.Context) error {
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	err := s.srv.Shutdown(ctx)
	if serr := <-s.serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.serveErr <- nil // keep later Close calls from blocking
	return err
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%s — live introspection\n\n", version.String())
	fmt.Fprintln(w, "GET /metrics       Prometheus text exposition (live scrape)")
	fmt.Fprintln(w, "GET /events        decision stream (Server-Sent Events)")
	fmt.Fprintln(w, "GET /state         canonical scheduler state (JSON)")
	fmt.Fprintln(w, "GET /blame         wait-attribution report (JSON)")
	fmt.Fprintln(w, "GET /healthz       liveness + build info")
	fmt.Fprintln(w, "GET /readyz        readiness gate")
	fmt.Fprintln(w, "GET /debug/pprof/  Go runtime profiles")
}

// handleMetrics scrapes the run registry live (via its race-free
// Snapshot path) and appends the server's own instruments, rendered
// through a throwaway telemetry.Registry so both halves share one
// encoder and the whole exposition stays Lint-clean.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.scrapes.Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if reg := s.registry.Load(); reg != nil {
		if err := reg.WritePrometheus(w); err != nil {
			return
		}
	}
	own := telemetry.NewRegistry()
	own.Counter(MetricDroppedEvents).Add(s.hub.Dropped())
	own.Counter(MetricScrapes).Add(s.scrapes.Load())
	own.Gauge(MetricSubscribers).Set(float64(s.hub.Subscribers()))
	_ = own.WritePrometheus(w)
}

// wireEvent is the /events JSON payload for one scheduling decision.
type wireEvent struct {
	AtS             float64 `json:"at_s"`
	Kind            string  `json:"kind"`
	ID              uint64  `json:"id"`
	Proc            int     `json:"proc"`
	Phase           int     `json:"phase"`
	WorkingSetBytes int64   `json:"working_set_bytes"`
	LoadBytes       int64   `json:"load_bytes"`
	WaitS           float64 `json:"wait_s"`
	Domain          int     `json:"domain"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// Subscribe before the response headers go out: a client that has
	// seen the 200 is guaranteed to be in the fan-out, so "connect, then
	// start the run" observes the run's first event.
	sub := s.hub.Subscribe(DefaultEventBuffer)
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	var seq uint64
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			// Server shutting down: drain what the ring already holds so a
			// reader sees every event the engine managed to hand off, then
			// end the stream so Shutdown can complete.
			for {
				select {
				case e := <-sub.Events():
					seq++
					if writeSSE(w, seq, e) != nil {
						return
					}
				default:
					fl.Flush()
					return
				}
			}
		case e := <-sub.Events():
			seq++
			if err := writeSSE(w, seq, e); err != nil {
				return
			}
			// Flush per event: the stream is for live watching, and paced
			// runs emit slowly enough that batching buys nothing.
			fl.Flush()
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

func writeSSE(w http.ResponseWriter, seq uint64, e core.Event) error {
	data, err := json.Marshal(wireEvent{
		AtS:             e.At.Seconds(),
		Kind:            e.Kind.String(),
		ID:              uint64(e.ID),
		Proc:            e.Proc,
		Phase:           e.Phase,
		WorkingSetBytes: int64(e.Demand.WorkingSet),
		LoadBytes:       int64(e.Load),
		WaitS:           e.Wait.Seconds(),
		Domain:          e.Domain,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: sched\ndata: %s\n\n", seq, data)
	return err
}

// serveJSON writes a published snapshot, or 503 while none exists yet
// (the run has not reached its first publication gate).
func serveJSON(w http.ResponseWriter, p *atomic.Pointer[[]byte], what string) {
	buf := p.Load()
	if buf == nil {
		http.Error(w, what+" not yet published", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(*buf)
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	serveJSON(w, &s.state, "state")
}

func (s *Server) handleBlame(w http.ResponseWriter, r *http.Request) {
	serveJSON(w, &s.blame, "blame report")
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Status      string `json:"status"`
		Version     string `json:"version"`
		Recorded    uint64 `json:"events_recorded"`
		Dropped     uint64 `json:"events_dropped"`
		Subscribers int    `json:"subscribers"`
	}{"ok", version.String(), s.hub.Recorded(), s.hub.Dropped(), s.hub.Subscribers()})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}
