// Asynchronous invocation: GlobalPtr.InvokeAsync returns a future while
// the request is pipelined on the wire. Admission and the first issue
// run in the caller's goroutine, so a loop of InvokeAsync calls keeps
// many requests in flight per connection and their issue order is the
// call order. An invocation in flight is a continuation registered on
// its pending exchange, not a goroutine: whatever resolves the exchange
// finishes the attempt and resolves the future (complete).
package core

import (
	"context"

	"openhpcxx/internal/future"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/wire"
)

// InvokeAsync calls a method on the remote object without waiting for
// the reply. It returns a future that resolves with the reply body or
// error; the same transparent adaptation as Invoke (FaultMoved chase,
// FaultNotApplicable re-selection, transport-error invalidation with
// backoff) happens on the completion path before the future resolves.
//
// Admission is bounded by the per-GP in-flight limiter (default
// DefaultMaxInFlight, steerable with SetMaxInFlight): when the limit is
// reached, InvokeAsync blocks the caller until a slot frees — natural
// backpressure rather than unbounded queueing. Canceling the returned
// future releases its slot and abandons the exchange at once; a request
// already on the wire still runs on the server, its reply is dropped.
func (g *GlobalPtr) InvokeAsync(method string, args []byte) *future.Future {
	return g.InvokeAsyncCtx(context.Background(), method, args)
}

// InvokeAsyncCtx is InvokeAsync bounded by a context: admission, the
// in-flight wait, and the retry chase all respect cancellation, and the
// deadline travels in the wire header so servers shed the request once
// it expires. When the deadline fires while a reply is overdue, the
// pending exchange is abandoned and the endpoint demoted, exactly as in
// InvokeCtx.
func (g *GlobalPtr) InvokeAsyncCtx(ctx context.Context, method string, args []byte) *future.Future {
	c := &asyncCall{g: g, ctx: ctx, root: g.startRoot("invoke", method, args), method: method, args: args}
	g.mu.Lock()
	sem := g.inflight
	g.mu.Unlock()
	// Admission: backpressure at the in-flight bound, cancellable (the
	// Done of a context that cannot end is nil: never ready).
	select {
	case sem <- struct{}{}:
		c.sem = sem
	case <-ctx.Done():
		return c.end(nil, ctx.Err())
	}
	g.host.rt.inflightGauge.Inc()
	a, err := g.issue(ctx, c.root, wire.TRequest, method, args, true)
	if err != nil {
		return c.end(nil, err)
	}
	c.a, c.pending = a, a.pending
	c.fut.OnCancel(c)
	if a.pending == nil || a.err != nil { // the send failed: nothing to wait for
		c.complete()
		return &c.fut
	}
	if ctx.Done() != nil { // its end only abandons: complete reads what happened
		c.a.stop = context.AfterFunc(ctx, a.pending.Abandon)
	}
	a.pending.WhenDone(c.complete)
	return &c.fut
}

// asyncCall is one asynchronous invocation, and the one object it
// allocates: the future it hands out, by value, and what its completion
// needs. Once end has run it keeps only the future's result.
type asyncCall struct {
	fut     future.Future
	g       *GlobalPtr
	ctx     context.Context
	root    *obs.Active
	sem     chan struct{} // the held in-flight slot; nil before admission
	method  string
	args    []byte
	a       attempt // the first attempt, until complete has its reply
	pending Pending // what Cancel abandons; only the future's resolver touches it
}

// complete is an asynchronous invocation's continuation, bound by
// Pending.WhenDone's contract: it finishes the first attempt where the
// exchange resolved and resolves the future. A retry, and a fault —
// settling one may call the GP's refresh hook — get a goroutine.
func (c *asyncCall) complete() {
	a := &c.a
	if a.pending != nil && a.err == nil {
		a.collect() // resolved: does not block
		if a.reply != nil && a.reply.Type == wire.TFault {
			go c.runAsync()
			return
		}
	}
	body, done, backoff, err := c.g.finish(c.ctx, c.root, a, nil)
	if done {
		c.end(body, err)
		return
	}
	go func() { c.end(c.g.chase(c.ctx, c.root, &c.fut, c.method, c.args, backoff, err)) }()
}

// runAsync is the whole of run on a goroutine of the invocation's own.
func (c *asyncCall) runAsync() { c.end(c.g.run(c.ctx, c.root, &c.fut, c.method, c.args, c.a)) }

// Canceled is the future's cancel hook: Cancel resolved it, so the slot
// is freed and the exchange abandoned here.
func (c *asyncCall) Canceled() {
	<-c.sem
	c.g.host.rt.inflightGauge.Dec()
	if p := c.pending; p != nil {
		c.pending = nil
		p.Abandon()
	}
}

// end ends an asynchronous invocation: the future gets its result, the
// root span its outcome, and the in-flight slot is freed — unless a
// Cancel resolved the future first and freed it. What only the engine
// needed goes, so a future the caller keeps holds its result alone.
func (c *asyncCall) end(body []byte, err error) *future.Future {
	won := err == nil && c.fut.Complete(body) || err != nil && c.fut.Fail(err)
	c.root.SetErr(err)
	c.root.End()
	if won && c.sem != nil {
		<-c.sem
		c.g.host.rt.inflightGauge.Dec()
		c.pending = nil
	}
	c.ctx, c.root, c.args, c.a = nil, nil, nil, attempt{}
	return &c.fut
}
