package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"openhpcxx/internal/errs"
	"openhpcxx/internal/health"
	"openhpcxx/internal/stats"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/wire"
)

// GlobalPtr (the paper's GP) is a client-side handle on a remote server
// object. It holds an object reference and lazily binds a protocol
// object chosen by automatic run-time protocol selection; the binding is
// re-evaluated whenever the reference changes (migration) or the
// selected protocol fails.
type GlobalPtr struct {
	host *Context

	mu     sync.Mutex
	ref    *ObjectRef
	b      *binding // nil until a protocol is selected
	policy *transport.BatchPolicy

	// healthGen is the health tracker generation observed when the
	// current binding was made; when the tracker moves (an endpoint
	// tripped or recovered), the next prepare re-runs selection and
	// re-promotes a recovered, more preferred entry.
	healthGen uint64
	// refresh, when set, re-resolves the reference after a FaultNoObject
	// (SetRefresh) — directory resolvers chase stale cached bindings with
	// it the way FaultMoved chases tombstones.
	refresh func() (*ObjectRef, error)
	// deadline, when non-zero, bounds every invocation that does not
	// carry a sooner context deadline.
	deadline time.Duration

	// budget is the retry token bucket (budget.go); nil when budgeting
	// is disabled for this GP.
	budget *retryBudget

	inflight chan struct{} // per-GP async in-flight limiter
	argSize  atomic.Int64  // CallCtx's last encoding: the next one's buffer size
}

// binding is everything one protocol selection fixes until the next
// invalidation: the protocol object and the selected entry's record —
// its health key and metric handles, resolved once per context — so
// the invocation hot path derives nothing: it increments atomics instead
// of rebuilding metric names and taking the registry lock on every call,
// and takes no lock but the GP's own. The handles are per endpoint,
// labelled {proto=<pid>, endpoint=<addr>}, so a primary and a backup
// behind one protocol keep separate series.
type binding struct {
	proto Protocol
	entry int // index into ref.Protocols of the selected entry
	*entryRecord
}

// DefaultMaxInFlight is the default per-GP bound on outstanding
// asynchronous invocations.
const DefaultMaxInFlight = 32

// NewGlobalPtr binds a reference to a client context. The reference is
// cloned, so callers may keep mutating their copy. The GP is registered
// with the context for the introspection plane (/statusz lists every
// live GP with its protocol table and selection); call Release when
// done with a short-lived GP so the listing does not grow unboundedly.
func (c *Context) NewGlobalPtr(ref *ObjectRef) *GlobalPtr {
	g := &GlobalPtr{
		host:     c,
		ref:      ref.Clone(),
		budget:   newRetryBudget(c.rt.RetryBudget()),
		inflight: make(chan struct{}, DefaultMaxInFlight),
	}
	c.mu.Lock()
	c.gps[g] = struct{}{}
	c.mu.Unlock()
	c.rt.gpGauge.Inc()
	return g
}

// Release drops the GP's protocol binding and unregisters it from its
// context's introspection listing. The GP remains usable — a later
// Invoke re-selects — but a released GP no longer appears in /statusz.
// Releasing twice is harmless.
func (g *GlobalPtr) Release() {
	g.Invalidate()
	c := g.host
	c.mu.Lock()
	_, live := c.gps[g]
	delete(c.gps, g)
	c.mu.Unlock()
	if live {
		c.rt.gpGauge.Dec()
	}
}

// Ref returns a copy of the current object reference.
func (g *GlobalPtr) Ref() *ObjectRef {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ref.Clone()
}

// SetRef replaces the reference (e.g. with a re-ordered protocol table)
// and invalidates the protocol binding.
func (g *GlobalPtr) SetRef(ref *ObjectRef) { g.adoptRef(ref.Clone()) }

// adoptRef installs a reference nothing else holds, such as one decoded
// from a FaultMoved; g.ref is never written through, so probes may keep it.
func (g *GlobalPtr) adoptRef(ref *ObjectRef) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ref = ref
	g.invalidateLocked()
}

// Invalidate drops the protocol binding; the next call re-selects.
func (g *GlobalPtr) Invalidate() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.invalidateLocked()
}

func (g *GlobalPtr) invalidateLocked() {
	if g.b != nil {
		g.b.proto.Close()
		g.b = nil
	}
}

// SetMaxInFlight resizes the per-GP bound on outstanding asynchronous
// invocations (n <= 0 restores the default). Resizing affects future
// InvokeAsync calls; invocations already in flight drain against the
// limiter they were admitted under.
func (g *GlobalPtr) SetMaxInFlight(n int) {
	if n <= 0 {
		n = DefaultMaxInFlight
	}
	g.mu.Lock()
	g.inflight = make(chan struct{}, n)
	g.mu.Unlock()
}

// SetBatchPolicy steers adaptive micro-batching for this GP: requests
// are coalesced into wire.TBatch frames under the given watermarks when
// the bound protocol supports it (the stream family and glue chains over
// it do; Nexus embeds frames per-RSR and ignores the knob). A nil policy
// disables batching. The policy survives rebinds — it is re-applied
// after every protocol selection.
func (g *GlobalPtr) SetBatchPolicy(p *transport.BatchPolicy) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if p == nil {
		g.policy = nil
	} else {
		cp := *p
		g.policy = &cp
	}
	if g.b != nil {
		g.applyBatchingLocked()
	}
}

// BatchPolicy reports the configured batching policy (nil when off).
func (g *GlobalPtr) BatchPolicy() *transport.BatchPolicy {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.policy == nil {
		return nil
	}
	cp := *g.policy
	return &cp
}

// applyBatchingLocked pushes the GP's policy into the bound protocol, if
// it listens. Caller holds g.mu.
func (g *GlobalPtr) applyBatchingLocked() {
	bp, ok := g.b.proto.(BatchingProtocol)
	if !ok {
		return
	}
	if g.policy == nil {
		bp.SetBatching(transport.BatchPolicy{})
	} else {
		bp.SetBatching(*g.policy)
	}
}

// SelectedProtocol reports which protocol the GP is currently bound to,
// selecting one if necessary. The experiments use this to observe
// adaptation (Figure 4's step table).
func (g *GlobalPtr) SelectedProtocol() (ProtoID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.bindLocked(); err != nil {
		return "", err
	}
	return g.ref.Protocols[g.b.entry].ID, nil
}

// SelectedEntry reports the index into the reference's protocol table of
// the bound entry, plus its protocol id, selecting first if necessary.
// Experiments use it to tell apart multiple glue entries (Figure 4-B has
// two).
func (g *GlobalPtr) SelectedEntry() (int, ProtoID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.bindLocked(); err != nil {
		return -1, "", err
	}
	return g.b.entry, g.ref.Protocols[g.b.entry].ID, nil
}

// SetRefresh installs a reference-refresh hook consulted when an
// invocation faults with FaultNoObject: the hook re-resolves the name
// authoritatively (bypassing any cache), and if the resolved reference
// differs from the current one the GP adopts it and retries — the
// directory plane's answer to a cached binding going stale between a
// tombstone being lost and the lease backstop firing. A nil hook (the
// default) leaves FaultNoObject terminal.
func (g *GlobalPtr) SetRefresh(fn func() (*ObjectRef, error)) {
	g.mu.Lock()
	g.refresh = fn
	g.mu.Unlock()
}

// SetDefaultDeadline bounds every invocation on this GP that does not
// already carry a sooner context deadline: the absolute expiry travels
// in the wire header, so servers shed the request instead of executing
// it after the caller stopped caring. Zero disables the default.
func (g *GlobalPtr) SetDefaultDeadline(d time.Duration) {
	g.mu.Lock()
	g.deadline = d
	g.mu.Unlock()
}

// entryHealthKey identifies one protocol-table endpoint for the health
// tracker: the protocol id plus the entry's address, so the same server
// address reached through two protocols trips independently.
func entryHealthKey(e ProtoEntry) string {
	if a, err := decodeAddrData(e.Data); err == nil && a.Addr != "" {
		return string(e.ID) + "|" + a.Addr
	}
	return string(e.ID) + "|" + string(e.Data)
}

// meterLabel makes an endpoint address printable as a metric label:
// glue entries embed raw protocol data (length-prefixed XDR) in their
// health key, and control bytes would corrupt the Prometheus text
// exposition. Overlong values are elided in the middle — the label only
// has to stay distinguishable, the raw key stays the binding's identity.
func meterLabel(addr string) string {
	clean := strings.Map(func(r rune) rune {
		if r < 0x20 || r == 0x7f {
			return '.'
		}
		return r
	}, addr)
	const max = 96
	if len(clean) <= max {
		return clean
	}
	// Back the cut off to a rune boundary so the truncation never
	// splits a multi-byte rune and emits invalid UTF-8 into a label.
	cut := max
	for cut > 0 && !utf8.RuneStart(clean[cut]) {
		cut--
	}
	// Two glue endpoints can agree everywhere but in the elided middle;
	// a hash of the full address keeps their series distinct.
	h := fnv.New32a()
	_, _ = io.WriteString(h, addr)
	return fmt.Sprintf("%s…%08x", clean[:cut], h.Sum32())
}

// bindLocked runs protocol selection if no protocol is bound, and —
// when the health landscape changed since the last bind — re-runs it to
// re-promote a recovered, more preferred table entry.
func (g *GlobalPtr) bindLocked() error {
	ht := g.host.rt.Health()
	failover := g.host.rt.FailoverEnabled()
	if g.b != nil {
		if !failover || ht == nil || ht.Generation() == g.healthGen {
			return nil
		}
		// A breaker tripped or recovered somewhere. Re-run selection with
		// current health; rebind only when it picks a different entry
		// (re-promotion to a recovered preferred endpoint, or demotion
		// away from a newly tripped one). Same pick: keep the binding.
		g.healthGen = ht.Generation()
		f, idx, r := g.selectLocked(ht, failover)
		if f == nil || idx == g.b.entry {
			return nil
		}
		g.invalidateLocked()
		return g.bindToLocked(f, idx, r, "promote")
	}
	f, idx, r := g.selectLocked(ht, failover)
	if f == nil {
		return selectionError(g.ref, g.host.pool, g.host.loc)
	}
	if failover && ht != nil {
		g.healthGen = ht.Generation()
	}
	return g.bindToLocked(f, idx, r, "select")
}

// selectLocked runs protocol selection, vetoing circuit-broken endpoints
// when failover is on. If every applicable endpoint is unhealthy it
// falls back to unfiltered selection — trying the preferred endpoint
// beats failing without trying. A nil factory means nothing applies.
func (g *GlobalPtr) selectLocked(ht *health.Tracker, failover bool) (ProtoFactory, int, *entryRecord) {
	if failover && ht != nil {
		f, idx, r := g.host.pool.selectRecord(g.ref, g.host.loc, func(r *entryRecord) bool { return ht.Allow(r.key) })
		if f != nil {
			return f, idx, r
		}
	}
	return g.host.pool.selectRecord(g.ref, g.host.loc, nil)
}

// bindToLocked instantiates the chosen entry and binds it with its
// record, whose handles the entry's first bind in this context resolves.
// The protocol object is new each time: glue capabilities keep
// per-binding state.
func (g *GlobalPtr) bindToLocked(f ProtoFactory, idx int, r *entryRecord, event string) error {
	p, err := f.New(g.ref.Protocols[idx], g.ref, g.host)
	if err != nil {
		return errs.Wrapf(errs.Transport, err, "core: instantiating %s", f.ID())
	}
	r.once.Do(func() {
		_, addr, _ := strings.Cut(r.key, "|")
		m, by := g.host.rt.Metrics(), stats.Labels{"proto": string(p.ID()), "endpoint": meterLabel(addr)}
		r.calls, r.oneway, r.reqBytes = m.CounterWith("rpc.calls", by), m.CounterWith("rpc.oneway", by), m.CounterWith("rpc.req_bytes", by)
		r.respBytes, r.transportErrors = m.CounterWith("rpc.resp_bytes", by), m.CounterWith("rpc.transport_errors", by)
		r.faults, r.latency = m.CounterWith("rpc.faults", by), m.HistogramWith("rpc.latency_us", by)
	})
	g.b = &binding{proto: p, entry: idx, entryRecord: r}
	g.applyBatchingLocked()
	g.registerProbesLocked()
	g.host.rt.recordEvent(event, g.ref.Object, "context "+g.host.name+" picked table["+strconv.Itoa(idx)+"] "+string(p.ID())+" (server at "+g.ref.Server.String()+")")
	return nil
}

// probeMethod is the method name health probes invoke; servers answer it
// with FaultNoMethod, which is all a probe needs — proof of life.
const probeMethod = "__health_probe__"

// registerProbesLocked installs an out-of-band liveness probe for every
// entry in the reference's table that has none in the current tracker,
// so tripped breakers re-close when the endpoint recovers — without
// risking live requests on it.
func (g *GlobalPtr) registerProbesLocked() {
	ht := g.host.rt.Health()
	if ht == nil || !g.host.rt.FailoverEnabled() {
		return
	}
	host, ref, pool := g.host, g.ref, g.host.pool
	pool.rmu.Lock()
	defer pool.rmu.Unlock()
	for _, entry := range ref.Protocols {
		if r := pool.record(entry); r.probed != ht {
			r.probed = ht
			ht.SetProbe(r.key, func() error { return probeEntry(host, ref, entry) })
		}
	}
}

// probeEntry tests one protocol-table endpoint: instantiate its protocol
// and issue a no-op call. Any decodable reply — even a fault — proves
// the path and the server process are alive; the one exception is
// FaultUnavailable, which means "up but refusing work" (draining) and
// keeps the breaker open.
func probeEntry(host *Context, ref *ObjectRef, entry ProtoEntry) error {
	f, ok := host.pool.Lookup(entry.ID)
	if !ok {
		return errs.Newf(errs.Config, "core: no factory for %s", entry.ID)
	}
	p, err := f.New(entry, ref, host)
	if err != nil {
		return err
	}
	defer p.Close()
	reply, err := p.Call(&wire.Message{Type: wire.TRequest, Object: string(ref.Object), Method: probeMethod})
	if err != nil {
		return err
	}
	if reply.Type == wire.TFault {
		if ferr := wire.DecodeFault(reply.Body); ferr != nil {
			var wf *wire.Fault
			if errors.As(ferr, &wf) && wf.Code == wire.FaultUnavailable {
				return wf
			}
		}
	}
	return nil
}

// prepare binds (selecting a protocol if needed) and builds the request
// frame for one attempt, a header from requests. The effective deadline —
// the sooner of the context's and the GP default — travels in the wire
// header so servers can shed the request once it expires.
func (g *GlobalPtr) prepare(ctx context.Context, typ wire.MsgType, method string, args []byte) (*binding, *wire.Message, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.bindLocked(); err != nil {
		return nil, nil, err
	}
	var deadline int64
	if t, ok := ctx.Deadline(); ok {
		deadline = t.UnixNano()
	}
	if g.deadline > 0 {
		d := g.host.rt.Clock().Now().Add(g.deadline).UnixNano()
		if deadline == 0 || d < deadline {
			deadline = d
		}
	}
	req := requests.Get().(*wire.Message)
	*req = wire.Message{
		Type:     typ,
		Object:   string(g.ref.Object),
		Method:   method,
		Epoch:    g.ref.Epoch,
		Deadline: deadline,
		Body:     args,
	}
	return g.b, req, nil
}

// requests pools prepare's request headers. An encoder returns nothing of
// one (it has no recycler, only a caller's args as body), so the header
// stays valid until the protocol's Call or Begin has returned to whoever
// called it — a protocol wrapper may read it then — and finish gives it
// back once the attempt has resolved without an abandon.
var requests = sync.Pool{New: func() any { return new(wire.Message) }}

// settle classifies the outcome of one attempt and performs the
// adaptation side effects (invalidation, reference refresh, metrics).
// done=false means the caller should retry; backoff reports whether the
// retry deserves a delay (transport errors and stale selections do,
// migration chases do not).
func (g *GlobalPtr) settle(b *binding, reply *wire.Message, err error) (body []byte, done bool, backoff bool, outErr error) {
	ht := g.host.rt.Health()
	report := func(ok bool) {
		if ht == nil || !g.host.rt.FailoverEnabled() {
			return
		}
		if ok {
			ht.ReportSuccess(b.key)
		} else {
			ht.ReportFailure(b.key)
		}
	}
	if err != nil {
		b.transportErrors.Inc()
		// Transport-level failure: demote the endpoint and drop the
		// binding, so the retry re-selects — past the tripped breaker to
		// the next entry in the reference's ordered protocol table. An
		// error with no taxonomy code yet (a raw dial/mux/conn failure)
		// is stamped Transport (class retryable) so the retry-budget
		// gate and the SLO counters see a kind, not a string; the
		// original stays reachable through errors.Is/As.
		serr := err
		if errs.CodeOf(err) == errs.Unknown {
			serr = errs.Wrap(errs.Transport, err, "core: transport failure")
		}
		g.host.rt.errCounter(errs.CodeOf(serr)).Inc()
		report(false)
		g.Invalidate()
		return nil, false, true, serr
	}
	if reply == nil {
		// A one-way post that left the client: there is no reply to
		// classify and no proof the server ran it, so the breaker and the
		// retry budget learn nothing from it.
		return nil, true, false, nil
	}
	switch reply.Type {
	case wire.TReply:
		b.respBytes.Add(uint64(len(reply.Body)))
		report(true)
		g.budgetRef().success()
		return reply.Body, true, false, nil
	case wire.TFault:
		b.faults.Inc()
		ferr := wire.DecodeFault(reply.Body)
		var f *wire.Fault
		if !errors.As(ferr, &f) {
			g.host.rt.errCounter(errs.Codec).Inc()
			return nil, true, false, ferr
		}
		g.host.rt.errCounter(errs.Code(f.Code)).Inc()
		switch f.Code {
		case wire.FaultMoved:
			// The endpoint answered authoritatively — it is healthy; the
			// object just lives elsewhere now.
			report(true)
			newRef, derr := DecodeRef(f.Data)
			if derr != nil {
				return nil, true, false, errs.Wrap(errs.Codec, derr, "core: moved but reference undecodable")
			}
			var num [20]byte // the epoch's digits, read by the concatenation only
			g.host.rt.recordEvent("refresh", newRef.Object, "context "+g.host.name+" chased tombstone to "+
				newRef.Server.String()+" (epoch "+string(strconv.AppendUint(num[:0], newRef.Epoch, 10))+")")
			g.adoptRef(newRef)
			return nil, false, false, f
		case wire.FaultNoObject:
			// The endpoint answered authoritatively: no such object there.
			// With a refresh hook installed, re-resolve and — if the name
			// now points somewhere else — chase it like a migration; with
			// no hook, or when re-resolution agrees with what we tried,
			// the fault is terminal.
			report(true)
			g.mu.Lock()
			refresh := g.refresh
			cur := g.ref
			g.mu.Unlock()
			if refresh == nil {
				return nil, true, false, f
			}
			newRef, rerr := refresh()
			if rerr != nil || newRef == nil || sameRef(cur, newRef) {
				return nil, true, false, f
			}
			g.host.rt.recordEvent("refresh", newRef.Object, "context "+g.host.name+" re-resolved after no-object (server now "+newRef.Server.String()+")")
			g.SetRef(newRef)
			return nil, false, false, f
		case wire.FaultNotApplicable:
			report(true)
			g.Invalidate()
			return nil, false, true, f
		case wire.FaultUnavailable:
			// Deliberate refusal (draining/overloaded): trip the breaker
			// outright — a second request would only be refused too — and
			// retry through a fresh selection. The request never executed,
			// so re-issuing cannot double-execute anything.
			if ht != nil && g.host.rt.FailoverEnabled() {
				ht.Trip(b.key)
			}
			g.Invalidate()
			return nil, false, true, f
		default:
			// Application-level faults (including FaultExpired) come from a
			// live endpoint; they are terminal for this invocation.
			report(true)
			return nil, true, false, f
		}
	default:
		g.host.rt.errCounter(errs.Internal).Inc()
		return nil, true, false, errs.Newf(errs.Internal, "core: unexpected reply type %v", reply.Type)
	}
}

// sameRef reports whether two references are wire-identical (same
// object, epoch, server, and protocol table). Encoding failures count as
// "different" — the bounded retry loop makes an extra chase harmless.
func sameRef(a, b *ObjectRef) bool {
	ab, aerr := EncodeRef(a)
	bb, berr := EncodeRef(b)
	return aerr == nil && berr == nil && bytes.Equal(ab, bb)
}

// ctxAttemptErr wraps a context expiry with the last attempt's error so
// callers see both why the invocation stopped and what it last hit. The
// expiry stays the unwrap target (errors.Is(err, ctx.Err()) holds) and
// the taxonomy code follows it: Expired for deadlines, Canceled for
// cancellation.
func ctxAttemptErr(ctxErr, lastErr error) error {
	if lastErr == nil {
		return ctxErr
	}
	return errs.Wrapf(errs.CodeOf(ctxErr), ctxErr, "core: invocation stopped (last attempt: %v)", lastErr)
}

// Object returns the target object id.
func (g *GlobalPtr) Object() ObjectID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ref.Object
}
