// Adaptive micro-batching: a client-side coalescer that packs many
// small requests bound for one peer into wire.TBatch frames.
//
// The shape mirrors continuous batching in serving systems: requests
// accumulate in a queue and the queue flushes on whichever watermark
// trips first — message count, byte size, or a max-delay timer armed by
// the first message of a batch. A lone request therefore pays at most
// MaxDelay extra latency, while a burst (e.g. a pipelined fan-out) is
// packed densely and pays per-frame latency and framing overhead once
// per flush. All knobs are steerable per object reference through the
// ORB (GlobalPtr.SetBatchPolicy), in the spirit of the paper's Open
// Implementation: batching is one more communication decision the
// application can reach in and turn.
package transport

import (
	"errors"
	"sync"
	"time"

	"openhpcxx/internal/errs"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/wire"
)

// BatchPolicy sets the coalescer's flush watermarks. The zero value of
// a field selects its default.
type BatchPolicy struct {
	// MaxMessages flushes when this many requests are queued
	// (default 16, capped at wire.MaxBatchMessages).
	MaxMessages int
	// MaxBytes flushes when the queued payload reaches this size
	// (default 64 KiB). A single request larger than MaxBytes still
	// ships — alone in its batch.
	MaxBytes int
	// MaxDelay bounds how long the first queued request waits for
	// company (default 200µs).
	MaxDelay time.Duration
}

// Defaults for BatchPolicy fields.
const (
	DefaultBatchMessages = 16
	DefaultBatchBytes    = 64 << 10
	DefaultBatchDelay    = 200 * time.Microsecond
)

// DefaultBatchPolicy returns a policy with every watermark at its
// default — the "just turn batching on" value.
func DefaultBatchPolicy() BatchPolicy { return BatchPolicy{}.withDefaults() }

func (p BatchPolicy) withDefaults() BatchPolicy {
	if p.MaxMessages <= 0 {
		p.MaxMessages = DefaultBatchMessages
	}
	if p.MaxMessages > wire.MaxBatchMessages {
		p.MaxMessages = wire.MaxBatchMessages
	}
	if p.MaxBytes <= 0 {
		p.MaxBytes = DefaultBatchBytes
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultBatchDelay
	}
	return p
}

// ErrCoalescerClosed is returned by Begin on a closed coalescer.
var ErrCoalescerClosed = errors.New("transport: coalescer closed")

// batchItem is one queued request and its completion handle, resolved
// when its sub-reply is demultiplexed from the batch reply.
type batchItem struct {
	msg *wire.Message
	p   *Cell
}

// Coalescer batches requests headed for one peer. send issues one
// TBatch frame and returns its completion handle — normally a closure
// over Mux.Begin (plus whatever redial logic the protocol object
// keeps). A Coalescer is safe for concurrent use.
type Coalescer struct {
	send   func(*wire.Message) (Pending, error)
	policy BatchPolicy
	tracer *obs.Tracer // optional: records per-request "batch" spans

	mu     sync.Mutex
	queue  []batchItem // sized, like each slab, to the previous batch
	bytes  int
	cells  []Cell      // the slab Begin carves cells from
	last   int         // the previous batch's length
	timer  *time.Timer // the delay watermark, re-armed by each batch
	due    time.Time   // when the armed batch is due; zero: none is armed
	closed bool
}

// NewCoalescer builds a coalescer flushing through send under policy.
func NewCoalescer(send func(*wire.Message) (Pending, error), policy BatchPolicy) *Coalescer {
	c := &Coalescer{send: send, policy: policy.withDefaults()}
	c.timer = time.AfterFunc(time.Hour, c.flushTimer)
	c.timer.Stop() // Begin arms it for each batch
	return c
}

// Policy returns the effective (defaulted) policy.
func (c *Coalescer) Policy() BatchPolicy { return c.policy }

// Stats reports the coalescer's current residency: how many requests
// are waiting for a flush watermark and their queued payload bytes.
// Introspection only — the numbers are stale the moment the lock drops.
func (c *Coalescer) Stats() (queued, queuedBytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue), c.bytes
}

// SetTracer installs the tracer used to record, for every traced
// request riding in a real batch, a "batch" span carrying the coalesced
// frame's size. Call before traffic; nil disables.
func (c *Coalescer) SetTracer(tr *obs.Tracer) { c.tracer = tr }

// Begin queues msg for the next batch and returns its completion
// handle. Only two-way requests belong in batches; callers keep
// one-way traffic on the direct path.
func (c *Coalescer) Begin(msg *wire.Message) (*Cell, error) {
	if msg.Type != wire.TRequest {
		return nil, errs.Newf(errs.BadRequest, "transport: cannot batch %v frame", msg.Type)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrCoalescerClosed
	}
	if len(c.cells) == 0 {
		c.cells = make([]Cell, max(c.last, 1))
	}
	p := &c.cells[0]
	c.cells = c.cells[1:]
	c.queue = append(c.queue, batchItem{msg: msg, p: p})
	c.bytes += len(msg.Body) + len(msg.Object) + len(msg.Method) + 64
	var flush []batchItem
	if len(c.queue) >= c.policy.MaxMessages || c.bytes >= c.policy.MaxBytes {
		flush = c.takeLocked()
	} else if c.due.IsZero() {
		// First resident arms the delay watermark.
		c.due = time.Now().Add(c.policy.MaxDelay)
		c.timer.Reset(c.policy.MaxDelay)
	}
	c.mu.Unlock()
	c.dispatch(flush)
	return p, nil
}

// Flush forces out whatever is queued, regardless of watermarks.
func (c *Coalescer) Flush() {
	c.mu.Lock()
	flush := c.takeLocked()
	c.mu.Unlock()
	c.dispatch(flush)
}

// takeLocked removes the current queue for dispatch. Caller holds mu.
func (c *Coalescer) takeLocked() []batchItem {
	if len(c.queue) == 0 {
		return nil
	}
	q := c.queue
	c.queue, c.bytes, c.last = make([]batchItem, 0, len(q)), 0, len(q)
	if !c.due.IsZero() {
		c.due = time.Time{}
		c.timer.Stop()
	}
	return q
}

// flushTimer is the delay watermark's fire. A stale one, which started
// before takeLocked could stop it, finds no batch due and does nothing.
func (c *Coalescer) flushTimer() {
	c.mu.Lock()
	var flush []batchItem
	if !c.due.IsZero() && !time.Now().Before(c.due) {
		flush = c.takeLocked()
	}
	c.mu.Unlock()
	c.dispatch(flush)
}

// dispatch ships one batch, if any, and has the batch reply demultiplexed
// to the items by position where it resolves (whenDone). A batch of one
// skips TBatch framing entirely — adaptivity means a lone caller never
// pays the batch envelope — and forwards its resolution. What fails
// before anything is in flight is reported from a goroutine of its own:
// this one may be inside Begin or a policy change, holding its caller's
// locks.
func (c *Coalescer) dispatch(items []batchItem) {
	if len(items) == 0 {
		return
	}
	if len(items) == 1 {
		p, err := c.send(items[0].msg)
		if err != nil {
			go failAll(items, err)
			return
		}
		whenDone(p, func() { items[0].p.Resolve(p.Reply()) })
		return
	}

	msgs := make([]*wire.Message, len(items))
	for i, it := range items {
		msgs[i] = it.msg
	}
	if tr := c.tracer; tr.Enabled() {
		// Every traced rider gets a "batch" span: the trace shows not just
		// that the request was coalesced but with how much company.
		for _, m := range msgs {
			sp := tr.StartChild(obs.TraceID(m.TraceID), obs.SpanID(m.SpanID), obs.KindClient, "batch")
			sp.SetHint(m.KeepHint())
			sp.SetBatch(len(msgs))
			sp.SetBytes(len(m.Body))
			sp.End()
		}
	}
	frame, err := wire.EncodeBatch(msgs)
	if err == nil {
		var p Pending
		if p, err = c.send(frame); err == nil {
			whenDone(p, func() { demux(items, p) })
			return
		}
	}
	go failAll(items, err)
}

// demux fans a resolved batch exchange out to its items.
func demux(items []batchItem, p Pending) {
	reply, err := p.Reply()
	if err != nil {
		failAll(items, err)
		return
	}
	if reply.Type != wire.TBatch {
		// A whole-batch fault (e.g. the peer predates TBatch) fans out
		// to every item; per-call faults arrive inside the batch instead.
		failAll(items, errs.Newf(errs.Codec, "transport: batch reply is %v frame", reply.Type))
		return
	}
	subs, derr := wire.DecodeBatch(reply)
	reply.ReleaseHeader() // the sub-messages keep its body
	if derr != nil {
		failAll(items, derr)
		return
	}
	if len(subs) != len(items) {
		failAll(items, errs.Newf(errs.Codec, "transport: batch reply has %d entries, want %d", len(subs), len(items)))
		return
	}
	for i, it := range items {
		it.p.Resolve(subs[i], nil)
	}
}

func failAll(items []batchItem, err error) {
	for _, it := range items {
		it.p.Resolve(nil, err)
	}
}

// Close flushes the queue and rejects further Begins.
func (c *Coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	flush := c.takeLocked()
	c.mu.Unlock()
	c.dispatch(flush)
}
