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
// for concurrent use; the server invokes them from per-connection
// dispatch workers, at most 256 busy per connection, so a slow (or
// blocking) method cannot head-of-line block a connection.
//
// The request — its header, Body and envelope data — is lent: valid until
// the reply has been written or the handler returned nil, when the server
// releases it and the header and frame are reused; writing the reply
// releases the reply's own loan and pooled header (wire.Write). A reply
// may alias the request, or be it; a handler that keeps any of it past its
// return copies it.
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

// connLoop hands each frame of c to an idle dispatch worker, else starts
// one while fewer than maxPerC run, else waits for one (as a blocking
// servant makes it wait). A worker that finishes while another is idle
// exits, so a burst does not keep its workers as long as the connection.
func (s *Server) connLoop(c net.Conn) {
	defer s.wg.Done()
	var wmu sync.Mutex
	work := make(chan *wire.Message)
	var running, idle atomic.Int32
	defer func() {
		close(work) // idle workers exit, busy ones at their next wait
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.connsGauge.Load().Dec()
		// The loop exits only on read error or server close; the
		// connection is already dead either way.
		_ = c.Close()
	}()
	serve := func(msg *wire.Message) {
		g := s.inflightGauge.Load()
		g.Inc()
		reply := s.h(msg)
		g.Dec()
		if reply != msg { // a reply that is the request goes back with its write
			defer msg.Release() // after the write: the reply may alias the request
		}
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
	}
	worker := func(msg *wire.Message) {
		defer s.wg.Done()
		defer running.Add(-1)
		for ok := true; ok; {
			serve(msg)
			if idle.Load() > 0 {
				return
			}
			idle.Add(1)
			msg, ok = <-work
			idle.Add(-1)
		}
	}
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
		select {
		case work <- msg:
		default:
			if int(running.Load()) < s.maxPerC {
				running.Add(1)
				s.wg.Add(1)
				go worker(msg)
			} else {
				work <- msg
			}
		}
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
