// Package introspect is the runtime introspection plane: an embedded,
// stdlib-only debug HTTP server attachable to a core.Runtime. It is
// the operational face of the paper's Open Implementation principle —
// every critical internal decision the ORB makes (protocol selection,
// breaker state, drain, batching) is observable over plain HTTP while
// an experiment runs:
//
//	/metrics  Prometheus text exposition of the runtime registry
//	/statusz  JSON: contexts, GPs with health-annotated protocol
//	          tables, endpoint breakers, async depth, recent events
//	/tracez   recent spans from the span store, grouped into trace
//	          trees, filterable by kind / error / min-latency
//	/varz     flight-recorder rate windows (1s/10s/60s)
//	/healthz  liveness probe
//	/debug/pprof/…  the stdlib profiler
//
// Attachment is strictly additive: a runtime without an attached server
// pays nothing (the gauges it feeds are nil-safe atomics), and every
// method on a nil *Server is a no-op, so call sites need no guards.
package introspect

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/obs"
)

// Options configures Attach. The zero value works: loopback listener on
// an ephemeral port, default flight-recorder cadence, and a
// keep-everything span store installed if the runtime has no recorder
// yet.
type Options struct {
	// Addr is the listen address (default "127.0.0.1:0"). The plane is
	// a debug surface: bind loopback unless you mean to expose it.
	Addr string
	// FlightInterval is the flight-recorder sampling period (default
	// DefaultFlightInterval).
	FlightInterval time.Duration
	// FlightDepth is how many snapshots the recorder retains (default
	// DefaultFlightDepth).
	FlightDepth int
	// Clock drives the flight recorder (default: the runtime's clock).
	Clock clock.Clock
}

// Server is one attached introspection plane. All methods are safe on
// a nil receiver, so "introspection off" is a nil handle, not a branch
// at every call site.
type Server struct {
	rt     *core.Runtime
	flight *Flight
	store  *obs.Store // /tracez source; nil under a foreign recorder
	mux    *http.ServeMux
	l      net.Listener
	hs     *http.Server
}

// Attach builds the introspection plane for rt and starts serving it.
// It installs a keep-everything span store on the runtime's tracer when
// none is present, mirrors the store's accounting into the runtime's
// registry, starts the flight recorder, and listens on opts.Addr.
func Attach(rt *core.Runtime, opts Options) (*Server, error) {
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.Clock == nil {
		opts.Clock = rt.Clock()
	}
	s := &Server{rt: rt}

	// /tracez source: reuse an installed store — one a -trace flag
	// installed, or a tail store a caller configured — else install a
	// keep-everything one. A foreign recorder (e.g. a test collector)
	// stays installed, and /tracez reports itself unavailable.
	switch rec := rt.Tracer().Recorder().(type) {
	case *obs.Store:
		s.store = rec
	case nil:
		s.store = obs.NewStore(obs.StoreOptions{})
		rt.Tracer().SetRecorder(s.store)
	}
	if s.store != nil {
		s.store.SetMetrics(rt.Metrics())
	}

	s.flight = NewFlight(rt.MetricsSnapshot, opts.Clock, opts.FlightInterval, opts.FlightDepth)
	s.flight.Start()

	s.mux = http.NewServeMux()
	s.routes()

	l, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		s.flight.Close()
		return nil, errs.Wrapf(errs.CodeOf(err), err, "introspect: listen %s", opts.Addr)
	}
	s.l = l
	s.hs = &http.Server{Handler: s.mux}
	go func() {
		// ErrServerClosed (and listener teardown races) are the normal
		// end of life for a debug server; nothing to surface.
		_ = s.hs.Serve(l)
	}()
	return s, nil
}

// Addr returns the bound listen address ("" on a nil server).
func (s *Server) Addr() string {
	if s == nil || s.l == nil {
		return ""
	}
	return s.l.Addr().String()
}

// Flight returns the flight recorder (nil on a nil server; *Flight is
// itself nil-safe).
func (s *Server) Flight() *Flight {
	if s == nil {
		return nil
	}
	return s.flight
}

// Store returns the span store /tracez reads (nil when a foreign
// recorder was already installed, or on a nil server).
func (s *Server) Store() *obs.Store {
	if s == nil {
		return nil
	}
	return s.store
}

// Handler exposes the plane's routes without the listener — tests mount
// it on httptest servers.
func (s *Server) Handler() http.Handler {
	if s == nil {
		return http.NotFoundHandler()
	}
	return s.mux
}

// Close stops the HTTP server and the flight recorder. Nil-safe and
// idempotent.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.flight.Close()
	if s.hs == nil {
		return nil
	}
	// Hard close: a debug plane has no in-flight work worth draining.
	return s.hs.Close()
}

func (s *Server) routes() {
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/varz", s.handleVarz)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.HandleFunc("/tracez", s.handleTracez)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "openhpcxx introspection plane (process %s)\n\n", s.rt.Process())
	fmt.Fprint(w, "/metrics   Prometheus text exposition\n")
	fmt.Fprint(w, "/statusz   contexts, GPs, protocol tables, breakers (JSON)\n")
	fmt.Fprint(w, "/tracez    recent trace trees (JSON; ?kind= ?error=1 ?min_us= ?slow=1 ?trace=<hex> ?limit= ?cursor=)\n")
	fmt.Fprint(w, "/varz      flight-recorder rate windows (JSON)\n")
	fmt.Fprint(w, "/healthz   liveness\n")
	fmt.Fprint(w, "/debug/pprof/  profiler\n")
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok %s\n", s.rt.Process())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.rt.MetricsSnapshot()
	// Scrapers that understand OpenMetrics negotiate it via Accept and
	// get histogram exemplars; everyone else gets the classic 0.0.4
	// exposition, whose grammar has no room for them. A failed write
	// either way means the header is already out; all we can do is let
	// the scraper see the truncated body.
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_ = snap.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = snap.WriteProm(w)
}

func (s *Server) handleVarz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.flight.Varz())
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.rt.Status())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// A failed write means the client went away mid-response; there is
	// no one left to report it to.
	_ = enc.Encode(v)
}
