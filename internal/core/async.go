// Asynchronous invocation: GlobalPtr.InvokeAsync returns a future while
// the request is pipelined on the wire. Admission and the first issue
// run in the caller's goroutine, so a loop of InvokeAsync calls
// genuinely keeps many requests in flight per connection and their
// issue order is the call order; the rest of the engine (engine.go) —
// finishing the attempt, the migration chase, protocol re-selection,
// retry backoff — runs on one completion goroutine per invocation.
package core

import (
	"context"
	"sync"

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
// future releases its slot immediately; the request already on the wire
// runs to completion on the server and its reply is discarded.
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
			return resolve(fut, root, nil, ctx.Err())
		}
	} else {
		sem <- struct{}{}
	}
	ifg := g.host.rt.inflightGauge
	ifg.Inc()
	var relOnce sync.Once
	release := func() {
		relOnce.Do(func() {
			<-sem
			ifg.Dec()
		})
	}
	fut.OnCancel(release)

	a, err := g.issue(ctx, root, wire.TRequest, method, args, true)
	if err != nil {
		release()
		return resolve(fut, root, nil, err)
	}
	go func() {
		defer release()
		body, err := g.run(ctx, root, fut, method, args, a)
		resolve(fut, root, body, err)
	}()
	return fut
}

// resolve ends an asynchronous invocation: the future gets its result
// and the root span its outcome.
func resolve(fut *future.Future, root *obs.Active, body []byte, err error) *future.Future {
	if err != nil {
		fut.Fail(err)
	} else {
		fut.Complete(body)
	}
	root.SetErr(err)
	root.End()
	return fut
}
