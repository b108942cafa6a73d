package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"openhpcxx/internal/core"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/wire"
)

// Layers the traced run records spans for. A call's spans nest in this
// order; move spans stand alone.
const (
	layerCall     = iota // driver, around Invoke or InvokeAsync...Wait
	layerProto           // around the selected protocol object's Call or Begin...Reply
	layerDispatch        // around Context.Dispatch, in the transport.Handler
	layerServant         // the benchmark's own method
	layerMove            // around migrate.MoveLocal
	layerCount
)

var layerNames = [layerCount]string{"call", "proto", "dispatch", "servant", "move"}

// span is one timed interval. Spans of one call share seq, the number the
// driver stamps into args[0]; where the body is opaque at the boundary
// (glue envelopes, batch frames) seq is -1 and rid is the frame's
// wire.Message.RequestID.
type span struct {
	layer      int
	seq        int32
	rid        uint64
	start, end int64 // nanoseconds since the recorder was made
}

// keptSpans bounds the spans the recorder stores for the span file: the
// first ones of a traced run, about five thousand calls. Storing every
// span of a repetition would grow the live heap by tens of megabytes,
// which makes the collector run less often and the traced repetitions
// faster than the untraced ones they are compared with.
const keptSpans = 20000

// recorder is the benchmark's own in-memory span and boundary-count
// store. It wraps only what can be reached from outside the program: the
// driver's calls, the protocol objects in a client pool, the handler and
// listener a context is served through, and the servant. A nil recorder
// records nothing, so the untraced run shares the call sites.
type recorder struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span            // the first keptSpans spans
	total [layerCount]int64 // nanoseconds spent in each layer's spans, all of them

	// Counts at the server's socket and handler, over the same calls as
	// the spans.
	wireBytes atomic.Int64 // bytes read and written
	writes    atomic.Int64 // Write calls
	frames    atomic.Int64 // request frames handled, a batch frame counting once
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, keptSpans)}
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) add(layer int, seq int32, rid uint64, start, end time.Time) {
	if !r.enabled() {
		return
	}
	r.mu.Lock()
	r.total[layer] += end.Sub(start).Nanoseconds()
	if len(r.spans) < keptSpans {
		r.spans = append(r.spans, span{layer, seq, rid, start.Sub(r.epoch).Nanoseconds(), end.Sub(r.epoch).Nanoseconds()})
	}
	r.mu.Unlock()
}

// selfTimes returns each call layer's self time per call in
// microseconds: the layer's spans minus the spans of the layer nested
// directly inside it, which are its only children.
func (r *recorder) selfTimes(calls int) [layerMove]float64 {
	r.mu.Lock()
	total := r.total
	r.mu.Unlock()
	var self [layerMove]float64
	for l := layerCall; l < layerMove; l++ {
		children := int64(0)
		if l+1 < layerMove {
			children = total[l+1]
		}
		self[l] = float64(total[l]-children) / 1e3 / float64(calls)
	}
	return self
}

// handler wraps a context's dispatcher at the transport.Handler boundary.
func (r *recorder) handler(h transport.Handler) transport.Handler {
	return func(m *wire.Message) *wire.Message {
		if !r.enabled() {
			return h(m)
		}
		r.frames.Add(1)
		seq := int32(-1)
		if m.Type == wire.TRequest && len(m.Envelopes) == 0 {
			seq = sequenceOf(m.Body)
		}
		start := time.Now()
		reply := h(m)
		r.add(layerDispatch, seq, m.RequestID, start, time.Now())
		return reply
	}
}

// listener wraps a server listener so that every accepted connection
// counts its bytes and writes.
func (r *recorder) listener(l net.Listener) net.Listener { return countingListener{l, r} }

type countingListener struct {
	net.Listener
	rec *recorder
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.rec}, nil
}

type countingConn struct {
	net.Conn
	rec *recorder
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.rec.enabled() {
		c.rec.wireBytes.Add(int64(n))
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.rec.enabled() {
		c.rec.wireBytes.Add(int64(n))
		c.rec.writes.Add(1)
	}
	return n, err
}

// wrapPool replaces every factory of a client pool by one whose protocol
// objects record a proto span around Call and Begin. A glue factory
// resolves its base protocol through the runtime's default pool, so the
// stream protocol under a glue is not wrapped a second time.
func (r *recorder) wrapPool(pool *core.ProtoPool) {
	for _, id := range pool.IDs() {
		f, _ := pool.Lookup(id)
		pool.Register(tracedFactory{f, r})
	}
}

type tracedFactory struct {
	core.ProtoFactory
	rec *recorder
}

func (f tracedFactory) New(entry core.ProtoEntry, ref *core.ObjectRef, host *core.Context) (core.Protocol, error) {
	p, err := f.ProtoFactory.New(entry, ref, host)
	if err != nil {
		return nil, err
	}
	return &tracedProto{p, f.rec}, nil
}

// tracedProto forwards to the wrapped protocol object. It offers Begin
// and SetBatching because the ORB probes for them by type assertion;
// every built-in protocol the workloads select implements both.
type tracedProto struct {
	core.Protocol
	rec *recorder
}

func (p *tracedProto) Call(m *wire.Message) (*wire.Message, error) {
	start := time.Now()
	reply, err := p.Protocol.Call(m)
	p.rec.add(layerProto, sequenceOf(m.Body), m.RequestID, start, time.Now())
	return reply, err
}

func (p *tracedProto) Begin(m *wire.Message) (core.Pending, error) {
	pp, ok := p.Protocol.(core.PipelinedProtocol)
	if !ok {
		return nil, fmt.Errorf("benchmark: protocol %s cannot pipeline", p.ID())
	}
	start := time.Now()
	pending, err := pp.Begin(m)
	if err != nil {
		return nil, err
	}
	return &tracedPending{Pending: pending, rec: p.rec, seq: sequenceOf(m.Body), start: start}, nil
}

func (p *tracedProto) SetBatching(policy transport.BatchPolicy) {
	if bp, ok := p.Protocol.(core.BatchingProtocol); ok {
		bp.SetBatching(policy)
	}
}

// tracedPending ends its proto span when the ORB's completion path first
// collects the reply.
type tracedPending struct {
	core.Pending
	rec   *recorder
	seq   int32
	start time.Time
	once  sync.Once
}

func (p *tracedPending) Reply() (*wire.Message, error) {
	reply, err := p.Pending.Reply()
	p.once.Do(func() { p.rec.add(layerProto, p.seq, 0, p.start, time.Now()) })
	return reply, err
}

// writeSpans writes the spans the recorder kept to path as one JSON object
// per line, replacing what an earlier run left there.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(w, "{\"layer\":%q,\"seq\":%d,\"rid\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			layerNames[s.layer], s.seq, s.rid, s.start, s.end)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
