// Package obs is the runtime's end-to-end invocation tracing and
// metrics-export subsystem.
//
// Every Invoke/InvokeAsync/Post mints a trace ID and a span ID at the
// global pointer; the IDs travel in the wire header, so the server-side
// spans — decode, glue un-processing, dispatch, servant — join the
// client-side spans (protocol selection, glue processing, in-flight
// wait, failover retries, batch coalescing) in a single causally
// connected trace. The paper's evaluation (§5) rests on
// knowing exactly which path each invocation took; a trace answers
// that question per invocation instead of per aggregate counter.
//
// The subsystem is built to cost nothing when off: a Tracer with no
// recorder installed answers Enabled() with one atomic load and every
// span constructor returns nil, whose methods are no-ops. Figure O1
// (ohpc-bench -fig=o1) measures the residual overhead.
//
// Durations come from an injected clock (internal/clock), so traces
// recorded under a fake clock carry simulated time.
package obs

import (
	"math/rand"
	"sync/atomic"
	"time"

	"openhpcxx/internal/clock"
)

// TraceID identifies one end-to-end invocation; all spans of one
// invocation — client and server side — share it. Zero means "not
// traced" and is never minted.
type TraceID uint64

// SpanID identifies one span within a trace. Zero means "no span".
type SpanID uint64

// Kind says which side of the wire recorded a span.
type Kind uint8

// Span kinds.
const (
	// KindClient marks spans recorded by the invoking side (GP, glue
	// processing, transport send, retries).
	KindClient Kind = iota
	// KindServer marks spans recorded by the serving side (decode,
	// glue un-processing, dispatch, servant).
	KindServer
)

func (k Kind) String() string {
	if k == KindServer {
		return "server"
	}
	return "client"
}

// Span is one completed, immutable unit of work inside a trace. Spans
// are recorded by value on End, so a Recorder may retain them freely.
type Span struct {
	Trace  TraceID `json:"trace"`
	ID     SpanID  `json:"id"`
	Parent SpanID  `json:"parent,omitempty"`
	// Seq orders spans by start within one process (clock reads may
	// tie under a fake clock; Seq never does).
	Seq  uint64 `json:"seq"`
	Name string `json:"name"`
	Kind Kind   `json:"kind"`

	Object string `json:"object,omitempty"`
	Method string `json:"method,omitempty"`
	// Proto and Endpoint identify the protocol-table entry that
	// carried (or was selected for) the work.
	Proto    string `json:"proto,omitempty"`
	Endpoint string `json:"endpoint,omitempty"`
	// Caps lists the capability kinds a glue chain applied,
	// comma-joined in processing order.
	Caps string `json:"caps,omitempty"`
	// Cause carries the fault or retry cause ("transport", a wire
	// fault code name, ...).
	Cause string `json:"cause,omitempty"`
	// Batch is the number of requests coalesced into the TBatch frame
	// this invocation rode in (0 = not batched).
	Batch int `json:"batch,omitempty"`
	// Bytes is the payload size the span handled.
	Bytes int `json:"bytes,omitempty"`
	// Err is the error that ended the span, if any.
	Err string `json:"err,omitempty"`
	// Hint marks the span's trace as a retention candidate. Locally
	// minted spans are always candidates (the local keeper decides by
	// policy); spans continued from a wire header carry the peer's
	// keep-hint bit, so a tail keeper can discard non-candidate
	// continuations without buffering them to trace end.
	Hint bool `json:"hint,omitempty"`

	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
}

// Recorder consumes completed spans. Implementations must be safe for
// concurrent use; Record is called on invocation hot paths and should
// return quickly.
type Recorder interface {
	Record(Span)
}

// Hinter is implemented by recorders that can say, per trace, whether
// the trace is still a retention candidate. The answer rides the wire
// (keep-hint bit) so downstream keepers buffer only candidate traces.
// A recorder that is not a Hinter hints every trace.
type Hinter interface {
	KeepHint(TraceID) bool
}

// recBox wraps the Recorder interface so it fits an atomic.Pointer.
// The Hinter assertion is done once at install time, not per span.
type recBox struct {
	r Recorder
	h Hinter // nil when r is not a Hinter
}

// clkBox wraps the clock interface for the same reason.
type clkBox struct{ c clock.Clock }

// idCtr mints process-unique span/trace IDs. Seeded randomly so traces
// from separately started processes are unlikely to collide.
var idCtr atomic.Uint64

func init() {
	idCtr.Store(rand.Uint64())
}

func nextID() uint64 {
	for {
		if id := idCtr.Add(1); id != 0 {
			return id
		}
	}
}

// Tracer is the per-runtime tracing facade. The zero state (no
// recorder) is fully operational and nearly free: Enabled is one
// atomic pointer load, and Start* return nil, whose span methods are
// no-ops. A nil *Tracer behaves like a disabled one.
type Tracer struct {
	rec atomic.Pointer[recBox]
	clk atomic.Pointer[clkBox]
	seq atomic.Uint64
}

// NewTracer returns a tracer with no recorder, reading time from clk
// (nil defaults to the real clock).
func NewTracer(clk clock.Clock) *Tracer {
	t := &Tracer{}
	t.SetClock(clk)
	return t
}

// SetClock replaces the tracer's time source (nil = real clock).
func (t *Tracer) SetClock(clk clock.Clock) {
	if clk == nil {
		clk = clock.Real{}
	}
	t.clk.Store(&clkBox{c: clk})
}

// SetRecorder installs (or, with nil, removes) the span recorder.
func (t *Tracer) SetRecorder(r Recorder) {
	if r == nil {
		t.rec.Store(nil)
		return
	}
	b := &recBox{r: r}
	b.h, _ = r.(Hinter)
	t.rec.Store(b)
}

// KeepHintFor reports whether the installed recorder still wants the
// trace: false when disabled, the Hinter's answer when the recorder
// implements one, true otherwise. This is the value stamped into the
// wire header's keep-hint bit.
func (t *Tracer) KeepHintFor(trace TraceID) bool {
	if t == nil || trace == 0 {
		return false
	}
	b := t.rec.Load()
	if b == nil {
		return false
	}
	if b.h != nil {
		return b.h.KeepHint(trace)
	}
	return true
}

// Recorder returns the installed recorder, or nil.
func (t *Tracer) Recorder() Recorder {
	if t == nil {
		return nil
	}
	if b := t.rec.Load(); b != nil {
		return b.r
	}
	return nil
}

// Enabled reports whether spans are being recorded. This is the
// hot-path gate: one nil check plus one atomic load.
func (t *Tracer) Enabled() bool {
	return t != nil && t.rec.Load() != nil
}

func (t *Tracer) now() time.Time {
	if b := t.clk.Load(); b != nil {
		return b.c.Now()
	}
	return time.Now()
}

// StartRoot mints a fresh trace and opens its root span. Returns nil
// when no recorder is installed.
func (t *Tracer) StartRoot(kind Kind, name string) *Active {
	if !t.Enabled() {
		return nil
	}
	return &Active{t: t, s: Span{
		Trace: TraceID(nextID()),
		ID:    SpanID(nextID()),
		Seq:   t.seq.Add(1),
		Name:  name,
		Kind:  kind,
		Hint:  true,
		Start: t.now(),
	}}
}

// StartChild opens a span inside an existing trace — typically one
// whose IDs arrived in a wire header. Returns nil when no recorder is
// installed or the trace ID is zero (untraced peer).
func (t *Tracer) StartChild(trace TraceID, parent SpanID, kind Kind, name string) *Active {
	if trace == 0 || !t.Enabled() {
		return nil
	}
	return &Active{t: t, s: Span{
		Trace:  trace,
		ID:     SpanID(nextID()),
		Parent: parent,
		Seq:    t.seq.Add(1),
		Name:   name,
		Kind:   kind,
		Hint:   true,
		Start:  t.now(),
	}}
}

// Active is an open span. All methods are nil-safe, so call sites need
// no enabled-checks beyond the Start* call that produced it.
type Active struct {
	t *Tracer
	s Span
}

// TraceID returns the span's trace id (0 for a nil span).
func (a *Active) TraceID() TraceID {
	if a == nil {
		return 0
	}
	return a.s.Trace
}

// SpanID returns the span's id (0 for a nil span) — the value to put
// in the wire header so downstream spans parent to this one.
func (a *Active) SpanID() SpanID {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// Child opens a sub-span of a, same kind and trace. The parent's
// retention hint is inherited, so an unhinted continuation's sub-spans
// stay unhinted.
func (a *Active) Child(name string) *Active {
	if a == nil {
		return nil
	}
	c := a.t.StartChild(a.s.Trace, a.s.ID, a.s.Kind, name)
	c.SetHint(a.s.Hint)
	return c
}

// SetHint marks (or unmarks) the span's trace as a retention
// candidate. Wire-continuation sites set this from the frame's
// keep-hint bit.
func (a *Active) SetHint(on bool) {
	if a != nil {
		a.s.Hint = on
	}
}

// SetRPC records the invocation target.
func (a *Active) SetRPC(object, method string) {
	if a != nil {
		a.s.Object, a.s.Method = object, method
	}
}

// SetProto records the protocol entry that carried the span.
func (a *Active) SetProto(proto, endpoint string) {
	if a != nil {
		a.s.Proto, a.s.Endpoint = proto, endpoint
	}
}

// SetCaps records a glue chain's capability kinds (comma-joined).
func (a *Active) SetCaps(caps string) {
	if a != nil {
		a.s.Caps = caps
	}
}

// SetCause records a fault or retry cause.
func (a *Active) SetCause(cause string) {
	if a != nil {
		a.s.Cause = cause
	}
}

// SetBatch records the size of the TBatch the request rode in.
func (a *Active) SetBatch(n int) {
	if a != nil {
		a.s.Batch = n
	}
}

// SetBytes records the payload size the span handled.
func (a *Active) SetBytes(n int) {
	if a != nil {
		a.s.Bytes = n
	}
}

// SetErr records the error that ended the span (nil clears nothing and
// costs nothing).
func (a *Active) SetErr(err error) {
	if a != nil && err != nil {
		a.s.Err = err.Error()
	}
}

// End closes the span and hands it to the recorder. Safe to call once;
// later mutations are lost. A span started while a recorder was
// installed is still recorded if the recorder was swapped meanwhile —
// whatever recorder is installed at End receives it.
func (a *Active) End() {
	if a == nil {
		return
	}
	a.s.Dur = a.t.now().Sub(a.s.Start)
	if b := a.t.rec.Load(); b != nil {
		b.r.Record(a.s)
	}
}
