// The invocation engine: every surface of a GlobalPtr is built from two
// steps. issue selects a protocol, counts the attempt and puts its frame
// on the wire; finish collects the reply, accounts for the attempt and
// classifies the outcome; chase loops the two from a retryable failure.
// Invoke runs all of it on the caller's goroutine; InvokeAsync issues
// its first attempt there — so a GP's issue order is the order of its
// InvokeAsync calls — has it finished by whatever resolves the reply,
// and chases on a goroutine; Post is one issue and one finish.
package core

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/future"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/wire"
)

// maxInvokeAttempts bounds migration chases: an object hopping contexts
// mid-call yields FaultMoved chains; each hop refreshes the reference.
const maxInvokeAttempts = 4

// Retry backoff: attempts after a transport error or a stale protocol
// choice wait base<<n capped at retryBackoffCap, with ±50% jitter so a
// herd of GPs re-selecting against one recovering server de-correlates.
// Migration chases (FaultMoved) skip the backoff — the tombstone hands
// over a fresh, authoritative reference, so retrying immediately is
// right. Sleeps go through the runtime clock: tests with clock.Fake pay
// simulated time only.
const (
	retryBackoffBase = 2 * time.Millisecond
	retryBackoffCap  = 50 * time.Millisecond
)

// retryBackoff computes the jittered delay before retry attempt n (n>=1).
func retryBackoff(attempt int) time.Duration {
	d := retryBackoffBase << (attempt - 1)
	if d > retryBackoffCap || d <= 0 {
		d = retryBackoffCap
	}
	// Jitter in [0.5d, 1.5d).
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// attempt is one issued try of an invocation: the binding and frame it
// went out on, and what finish needs to account for it exactly once.
type attempt struct {
	b       *binding
	req     *wire.Message
	send    *obs.Active // per-protocol send span; nil when untraced
	start   time.Time   // on the runtime clock
	pending Pending     // in-flight exchange; nil when reply/err are already in hand
	stop    func() bool // unregisters the context watch that abandons pending
	reply   *wire.Message
	err     error
}

// collect reads the attempt's outcome off its pending and drops the
// context watch, which has nothing left to abandon.
func (a *attempt) collect() {
	a.reply, a.err = a.pending.Reply()
	a.pending = nil
	if a.stop != nil {
		a.stop()
	}
}

// Begin starts one exchange on any protocol object and returns without
// waiting for the reply: natively when the protocol pipelines, otherwise
// by running its blocking Call in a goroutine of its own — the futures
// surface is preserved, per-connection pipelining is not. The glue
// protocol starts its base protocol through it too.
func Begin(p Protocol, m *wire.Message) (Pending, error) {
	if pp, ok := p.(PipelinedProtocol); ok {
		return pp.Begin(m)
	}
	cp := new(transport.Cell)
	go func() { cp.Resolve(p.Call(m)) }()
	return cp, nil
}

// startRoot opens the root span of one invocation (nil when untraced).
func (g *GlobalPtr) startRoot(name, method string, args []byte) *obs.Active {
	root := g.host.rt.Tracer().StartRoot(obs.KindClient, name)
	if root != nil {
		root.SetRPC(string(g.Object()), method)
		root.SetBytes(len(args))
	}
	return root
}

// issue selects a protocol, builds the frame and sends one attempt under
// root. An error means nothing was sent, so nothing was counted;
// otherwise the attempt is counted and on the clock, and the caller owes
// it exactly one finish — also when the send itself failed (a.err).
//
// A caller that blocks on the reply with no context to watch takes the
// protocol's own Call, inline, so a Call-only protocol costs no
// goroutine there. A detached caller (InvokeAsync's first attempt must
// return before the reply) and one that has a context to watch go
// through Begin.
func (g *GlobalPtr) issue(ctx context.Context, root *obs.Active, typ wire.MsgType, method string, args []byte, detached bool) (attempt, error) {
	if err := ctx.Err(); err != nil {
		return attempt{}, err
	}
	sel := root.Child("select")
	b, req, err := g.prepare(ctx, typ, method, args)
	var ow OneWayProtocol
	if err == nil && typ == wire.TControl {
		if ow, _ = b.proto.(OneWayProtocol); ow == nil {
			err = ErrOneWayUnsupported
		}
	}
	if err != nil {
		sel.SetErr(err)
		sel.End()
		return attempt{}, err
	}
	pid := string(b.proto.ID())
	sel.SetProto(pid, b.key)
	sel.End()
	stampTrace(g.host.rt.Tracer(), req, root)
	// The send span covers the send plus the in-flight wait.
	a := attempt{b: b, req: req, send: root.Child(pid)}
	a.send.SetProto(pid, b.key)
	a.send.SetBytes(len(args))
	if ow != nil {
		b.oneway.Inc()
	} else {
		b.calls.Inc()
	}
	b.reqBytes.Add(uint64(len(args)))
	a.start = g.host.rt.Clock().Now()
	switch {
	case ow != nil:
		a.err = ow.Post(req)
	case !detached && ctx.Done() == nil:
		a.reply, a.err = b.proto.Call(req)
	default:
		a.pending, a.err = Begin(b.proto, req)
	}
	return a, nil
}

// finish brings one issued attempt to its end: it waits for the reply or
// the context, reads the attempt back, times the round trip, ends the
// send span and classifies the outcome. done=false means go again —
// settle asked for a retry and the budget admitted it — with err the
// failure that caused it and backoff whether the retry deserves a delay.
// lastErr is the previous attempt's failure, reported alongside a
// context expiry.
//
// The context's end only abandons the exchange; Reply says what ended
// it. Abandoned with the context over, the attempt was the context's —
// for a deadline the endpoint is reported failing: one that cannot
// answer in time is, for failover, as good as dead — and with the
// context live, the caller's Cancel.
//
// A one-way attempt has no reply to wait for or to time, and is never
// retried: at-most-once.
func (g *GlobalPtr) finish(ctx context.Context, root *obs.Active, a *attempt, lastErr error) (body []byte, done, backoff bool, err error) {
	rt := g.host.rt
	if a.pending != nil && a.err == nil {
		// A synchronous caller with a context to watch: an asynchronous
		// first attempt is collected by its continuation.
		select {
		case <-a.pending.Done():
		case <-ctx.Done():
			a.pending.Abandon()
		}
		a.collect()
	}
	oneway := a.req.Type == wire.TControl
	if !oneway {
		a.b.latency.ObserveDurationTraced(rt.Clock().Now().Sub(a.start), uint64(root.TraceID()))
	}
	a.send.SetErr(a.err)
	a.send.End()
	if errors.Is(a.err, transport.ErrAbandoned) {
		// The caller ended the attempt, not the endpoint: nothing to
		// classify but a deadline.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) && rt.FailoverEnabled() {
			if ht := rt.Health(); ht != nil {
				ht.ReportFailure(a.b.key)
			}
			g.Invalidate()
		}
		// The request is left to the collector: an abandoned exchange
		// may still be queued in a coalescer.
		return nil, true, false, ctxAttemptErr(cmp.Or(ctx.Err(), a.err), lastErr)
	}
	*a.req = wire.Message{} // resolved: no protocol or coalescer holds it
	requests.Put(a.req)
	a.req = nil
	body, done, backoff, err = g.settle(a.b, a.reply, a.err)
	a.reply.ReleaseHeader() // settle took its type, fault and body
	a.reply = nil
	if done || oneway {
		return body, true, false, err
	}
	// settle wants a retry: the budget gate decides. A backoff-charged
	// retry draws a token; permanent classes and a dry bucket end the
	// invocation here instead of amplifying.
	if stop, berr := g.retryAdmit(err, backoff); stop {
		return nil, true, false, berr
	}
	return nil, false, backoff, err
}

// run finishes the already issued first attempt of a two-way invocation
// and, when finish asks for another, chases.
func (g *GlobalPtr) run(ctx context.Context, root *obs.Active, fut *future.Future, method string, args []byte, a attempt) ([]byte, error) {
	body, done, backoff, err := g.finish(ctx, root, &a, nil)
	if done {
		return body, err
	}
	return g.chase(ctx, root, fut, method, args, backoff, err)
}

// chase continues from a retryable failure: back off, issue, finish, up
// to maxInvokeAttempts in all. fut is an asynchronous invocation's
// future (else nil): once it is resolved — canceled — the chase stops.
func (g *GlobalPtr) chase(ctx context.Context, root *obs.Active, fut *future.Future, method string, args []byte, backoff bool, lastErr error) ([]byte, error) {
	for n := 1; ; n++ {
		if n == maxInvokeAttempts {
			// The give-up keeps the last failure's taxonomy code, so callers
			// classify it the same way they would the failure itself.
			return nil, errs.Wrapf(errs.CodeOf(lastErr), lastErr, "core: invoke %s.%s gave up after %d attempts",
				g.Object(), method, maxInvokeAttempts)
		}
		if fut != nil {
			if _, _, resolved := fut.TryResult(); resolved {
				return nil, future.ErrCanceled
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, ctxAttemptErr(cerr, lastErr)
		}
		// The retry span covers the backoff wait and records why the
		// previous attempt failed.
		rs := root.Child("retry")
		rs.SetCause(retryCause(lastErr))
		if backoff {
			if cerr := clock.SleepCtx(ctx, g.host.rt.Clock(), retryBackoff(n)); cerr != nil {
				rs.End()
				return nil, ctxAttemptErr(cerr, lastErr)
			}
		}
		rs.End()
		a, err := g.issue(ctx, root, wire.TRequest, method, args, false)
		if err != nil {
			return nil, err
		}
		body, done, again, err := g.finish(ctx, root, &a, lastErr)
		if done {
			return body, err
		}
		backoff, lastErr = again, err
	}
}

// Invoke calls a method on the remote object: it selects a protocol,
// sends the request, and transparently adapts to migration (FaultMoved
// refreshes the reference and re-selects), to stale protocol choices
// (FaultNotApplicable re-selects), and to failing endpoints (transport
// errors and FaultUnavailable demote the endpoint's breaker and fail
// over down the reference's ordered protocol table).
func (g *GlobalPtr) Invoke(method string, args []byte) ([]byte, error) {
	return g.InvokeCtx(context.Background(), method, args)
}

// InvokeCtx is Invoke bounded by a context: the deadline travels in the
// wire header (servers shed the request after expiry), retry backoffs
// respect cancellation, and an in-flight call is abandoned — and its
// endpoint demoted — when the deadline fires while the reply is
// overdue. The returned error wraps ctx.Err() when the context ended
// the invocation.
//
// With a span recorder installed (Runtime.Tracer) the invocation is
// traced end to end: a root "invoke" span, per-attempt "select", "retry"
// (carrying the failure cause) and per-protocol send spans, and — via
// the trace IDs stamped into the wire header — the server's dispatch
// spans, all under one trace ID.
func (g *GlobalPtr) InvokeCtx(ctx context.Context, method string, args []byte) ([]byte, error) {
	ifg := g.host.rt.inflightGauge
	ifg.Inc()
	defer ifg.Dec()
	root := g.startRoot("invoke", method, args)
	var body []byte
	a, err := g.issue(ctx, root, wire.TRequest, method, args, false)
	if err == nil {
		body, err = g.run(ctx, root, nil, method, args, a)
	}
	root.SetErr(err)
	root.End()
	return body, err
}
