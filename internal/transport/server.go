package transport

import (
	"net"
	"sync"
	"sync/atomic"

	"openhpcxx/internal/obs"
	"openhpcxx/internal/stats"
	"openhpcxx/internal/wire"
)

// Handler processes one inbound frame and returns the reply frame. A nil
// reply means "no reply" (one-way control traffic). Handlers must be safe
// for concurrent use; the server invokes them from per-request
// goroutines so a slow method cannot head-of-line block a connection.
//
// The request (its Body, its envelope data) is lent: valid until the
// reply has been written or the handler returned nil, when the server
// releases it and the frame is reused; writing the reply releases the
// reply's own loan (wire.Write). A reply may alias the request; a handler
// that keeps any of it past its return copies it.
type Handler func(*wire.Message) *wire.Message

// Server accepts connections from a listener and runs the frame loop on
// each. One Server typically backs one protocol class (the server-side
// half of a protocol object in the paper's terminology).
type Server struct {
	l       net.Listener
	h       Handler
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
	maxPerC int

	// tracer, when set, records a server-side "decode" span for every
	// traced inbound frame (atomic so SetTracer may race with traffic).
	tracer atomic.Pointer[obs.Tracer]

	// connsGauge / inflightGauge mirror live-connection and in-flight
	// handler counts for the introspection plane (a nil Gauge is a
	// no-op, so unwired servers pay nothing). Atomic pointers because
	// SetGauges may race with accept/handle traffic.
	connsGauge    atomic.Pointer[stats.Gauge]
	inflightGauge atomic.Pointer[stats.Gauge]
}

// Serve starts accepting on l, dispatching frames to h. Requests are read
// into pooled frames and released once answered: see Handler.
func Serve(l net.Listener, h Handler) *Server {
	s := &Server{l: l, h: h, conns: make(map[net.Conn]struct{}), maxPerC: 256}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// SetTracer installs (or with nil removes) the tracer used for
// server-side "decode" spans: one per traced inbound frame, recording
// the decoded frame's body size before it enters the dispatcher.
func (s *Server) SetTracer(tr *obs.Tracer) { s.tracer.Store(tr) }

// SetGauges installs introspection gauges: conns mirrors the live
// connection count, inflight the handler invocations currently running.
// Either may be nil (skipped). Call before traffic for exact counts;
// installing mid-traffic only tracks deltas from that point.
func (s *Server) SetGauges(conns, inflight *stats.Gauge) {
	if conns != nil {
		s.connsGauge.Store(conns)
		s.mu.Lock()
		conns.Set(int64(len(s.conns)))
		s.mu.Unlock()
	}
	if inflight != nil {
		s.inflightGauge.Store(inflight)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			// Raced with Close: shed the late accept, nothing to report.
			_ = c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connsGauge.Load().Inc()
		s.wg.Add(1)
		go s.connLoop(c)
	}
}

func (s *Server) connLoop(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.connsGauge.Load().Dec()
		// The loop exits only on read error or server close; the
		// connection is already dead either way.
		_ = c.Close()
	}()
	var wmu sync.Mutex
	sem := make(chan struct{}, s.maxPerC)
	for {
		msg, err := wire.ReadLent(c)
		if err != nil {
			return
		}
		if tr := s.tracer.Load(); tr.Enabled() && msg.TraceID != 0 {
			sp := tr.StartChild(obs.TraceID(msg.TraceID), obs.SpanID(msg.SpanID), obs.KindServer, "decode")
			sp.SetHint(msg.KeepHint())
			sp.SetBytes(len(msg.Body))
			sp.End()
		}
		sem <- struct{}{}
		s.wg.Add(1)
		go func(msg *wire.Message) {
			defer s.wg.Done()
			defer func() { <-sem }()
			defer msg.Release() // after the write: the reply may alias the request
			g := s.inflightGauge.Load()
			g.Inc()
			reply := s.h(msg)
			g.Dec()
			if reply == nil {
				return
			}
			reply.RequestID = msg.RequestID
			wmu.Lock()
			werr := wire.Write(c, reply)
			wmu.Unlock()
			if werr != nil {
				// A failed reply write poisons the stream; kill the
				// connection so the read loop unblocks. Its close error
				// adds nothing to werr.
				_ = c.Close()
			}
		}(msg)
	}
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.l.Addr() }

// Close stops accepting, closes live connections, and waits for
// in-flight handlers to finish. The server has no lame-duck mode of its
// own: draining is the dispatcher's (core.Context.Drain), which answers
// every request on connections that stay open.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.l.Close()
	for _, c := range conns {
		// The listener close error is the one worth surfacing; per-conn
		// closes race with connLoop's own deferred close.
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}
