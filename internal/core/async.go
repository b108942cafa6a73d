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
	"sync/atomic"

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
	fut := future.New()
	root := g.startRoot("invoke", method, args)
	g.mu.Lock()
	sem := g.inflight
	g.mu.Unlock()
	// Admission: backpressure at the in-flight bound, cancellable.
	if ctx.Done() != nil {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return g.endAsync(fut, root, nil, nil, ctx.Err())
		}
	} else {
		sem <- struct{}{}
	}
	g.host.rt.inflightGauge.Inc()
	a, err := g.issue(ctx, root, wire.TRequest, method, args, true)
	if err != nil {
		return g.endAsync(fut, root, sem, nil, err)
	}
	// Whoever resolves the future frees its slot: endAsync, or Cancel
	// through this hook, which also abandons the unwanted exchange.
	pending := a.pending
	fut.OnCancel(func() {
		<-sem
		g.host.rt.inflightGauge.Dec()
		if pending != nil {
			pending.Abandon()
		}
	})
	switch {
	case pending == nil || a.err != nil: // the send failed: nothing to wait for
		g.complete(ctx, root, fut, sem, method, args, a)
	case ctx.Done() == nil:
		pending.WhenDone(func() { g.complete(ctx, root, fut, sem, method, args, a) })
	default:
		// Reply or context end, whichever is first, finishes the attempt.
		first := new(atomic.Bool)
		stop := context.AfterFunc(ctx, func() {
			if first.CompareAndSwap(false, true) {
				g.runAsync(ctx, root, fut, sem, method, args, a)
			}
		})
		pending.WhenDone(func() {
			if first.CompareAndSwap(false, true) {
				stop()
				g.complete(ctx, root, fut, sem, method, args, a)
			}
		})
	}
	return fut
}

// complete is an asynchronous invocation's continuation, bound by
// Pending.WhenDone's contract: it finishes the first attempt where the
// exchange resolved and resolves the future. A retry, and a fault —
// settling one may call the GP's refresh hook — get a goroutine.
func (g *GlobalPtr) complete(ctx context.Context, root *obs.Active, fut *future.Future, sem chan struct{}, method string, args []byte, a attempt) {
	if a.pending != nil && a.err == nil {
		a.reply, a.err = a.pending.Reply() // resolved: does not block
		a.pending = nil
		if a.reply != nil && a.reply.Type == wire.TFault {
			go g.runAsync(ctx, root, fut, sem, method, args, a)
			return
		}
	}
	body, done, backoff, err := g.finish(ctx, root, &a, nil)
	if done {
		g.endAsync(fut, root, sem, body, err)
		return
	}
	go func() {
		body, err := g.chase(ctx, root, fut, method, args, backoff, err)
		g.endAsync(fut, root, sem, body, err)
	}()
}

// runAsync is the whole of run on a goroutine of the invocation's own.
func (g *GlobalPtr) runAsync(ctx context.Context, root *obs.Active, fut *future.Future, sem chan struct{}, method string, args []byte, a attempt) {
	body, err := g.run(ctx, root, fut, method, args, a)
	g.endAsync(fut, root, sem, body, err)
}

// endAsync ends an asynchronous invocation: the future gets its result,
// the root span its outcome, and the in-flight slot (sem, nil if none)
// is freed — unless a Cancel resolved the future first and freed it.
func (g *GlobalPtr) endAsync(fut *future.Future, root *obs.Active, sem chan struct{}, body []byte, err error) *future.Future {
	won := err == nil && fut.Complete(body) || err != nil && fut.Fail(err)
	root.SetErr(err)
	root.End()
	if won && sem != nil {
		<-sem
		g.host.rt.inflightGauge.Dec()
	}
	return fut
}
