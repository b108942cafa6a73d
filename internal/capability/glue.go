package capability

import (
	"fmt"
	"strings"
	"sync"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// glueData is the proto-data of a glue entry: a tag naming the
// server-side glue instance, the base protocol entry that does the
// actual communication, and the ordered capability specs.
type glueData struct {
	Tag  string
	Base core.ProtoEntry
	Caps []Spec
}

func (g *glueData) MarshalXDR(e *xdr.Encoder) error {
	e.PutString(g.Tag)
	if err := g.Base.MarshalXDR(e); err != nil {
		return err
	}
	e.PutUint32(uint32(len(g.Caps)))
	for i := range g.Caps {
		if err := g.Caps[i].MarshalXDR(e); err != nil {
			return err
		}
	}
	return nil
}

func (g *glueData) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if g.Tag, err = d.String(); err != nil {
		return err
	}
	if err = g.Base.UnmarshalXDR(d); err != nil {
		return err
	}
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if n > 32 {
		return errs.Newf(errs.Codec, "capability: %d capabilities exceeds limit", n)
	}
	g.Caps = make([]Spec, n)
	for i := range g.Caps {
		if err := g.Caps[i].UnmarshalXDR(d); err != nil {
			return err
		}
	}
	return nil
}

// GlueEntry builds a glue protocol table entry for a servant hosted by
// ctx: it registers the server side of the glue (which holds its own
// copies of the capabilities, paper Figure 2) under tag and returns the
// entry to embed in object references. base is the real protocol entry
// the glue delegates transport to.
func GlueEntry(ctx *core.Context, tag string, base core.ProtoEntry, caps ...Capability) (core.ProtoEntry, error) {
	// Stateful capabilities (Exclusive) belong to exactly one entry:
	// refusing a double-grant here catches the shared-counter bug at
	// construction time instead of as silently merged statistics.
	if err := grantAll(tag, caps); err != nil {
		return core.ProtoEntry{}, err
	}
	specs, err := Specs(caps)
	if err != nil {
		return core.ProtoEntry{}, err
	}
	data, err := xdr.Marshal(&glueData{Tag: tag, Base: base, Caps: specs})
	if err != nil {
		return core.ProtoEntry{}, err
	}
	// The server's own copies: rebuild from specs so server-side state
	// (e.g. quota counters) is independent of the caller's instances.
	serverCaps, err := Rebuild(specs)
	if err != nil {
		return core.ProtoEntry{}, err
	}
	ctx.RegisterGlue(tag, NewGlueServer(tag, serverCaps, ctx.Runtime().Clock()))
	return core.ProtoEntry{ID: core.ProtoGlue, Data: data}, nil
}

// ReanchorGlueEntry rebuilds a glue entry at a destination context after
// object migration: rebase maps the old base entry to the destination's
// equivalent (reporting false if the destination lacks that protocol),
// and the capability chain is re-registered under its original tag at
// dst so the entry keeps working for every holder of the reference.
// Stateful capabilities (quota counters) restart from their configured
// budget at the destination; see DESIGN.md.
func ReanchorGlueEntry(dst *core.Context, entry core.ProtoEntry, rebase func(core.ProtoEntry) (core.ProtoEntry, bool)) (core.ProtoEntry, bool, error) {
	if entry.ID != core.ProtoGlue {
		return core.ProtoEntry{}, false, errs.Newf(errs.Config, "capability: %q is not a glue entry", entry.ID)
	}
	g := new(glueData)
	if err := xdr.Unmarshal(entry.Data, g); err != nil {
		return core.ProtoEntry{}, false, errs.Wrap(errs.Codec, err, "capability: bad glue proto-data")
	}
	newBase, ok := rebase(g.Base)
	if !ok {
		return core.ProtoEntry{}, false, nil
	}
	serverCaps, err := Rebuild(g.Caps)
	if err != nil {
		return core.ProtoEntry{}, false, err
	}
	dst.RegisterGlue(g.Tag, NewGlueServer(g.Tag, serverCaps, dst.Runtime().Clock()))
	data, err := xdr.Marshal(&glueData{Tag: g.Tag, Base: newBase, Caps: g.Caps})
	if err != nil {
		return core.ProtoEntry{}, false, err
	}
	return core.ProtoEntry{ID: core.ProtoGlue, Data: data}, true, nil
}

// Install registers the glue protocol factory in a pool. Call it on the
// runtime's default pool before creating contexts (every context clone
// then supports glue), or on individual context pools.
func Install(pool *core.ProtoPool) {
	pool.Register(&glueFactory{pool: pool})
}

// glueFactory builds client-side glue protocol objects.
type glueFactory struct {
	// pool resolves the base protocol's factory for applicability checks
	// and instantiation. The glue protocol depends on a real protocol
	// object to do the actual communication (§4.1).
	pool *core.ProtoPool
}

func (f *glueFactory) ID() core.ProtoID { return core.ProtoGlue }

// Applicable is the logical AND of the constituent capabilities'
// applicability and the base protocol's own applicability.
func (f *glueFactory) Applicable(entry core.ProtoEntry, client, server netsim.Locality) bool {
	g := new(glueData)
	if err := xdr.Unmarshal(entry.Data, g); err != nil {
		return false
	}
	base, ok := f.pool.Lookup(g.Base.ID)
	if !ok || !base.Applicable(g.Base, client, server) {
		return false
	}
	caps, err := Rebuild(g.Caps)
	if err != nil {
		return false
	}
	for _, c := range caps {
		if !c.Applicable(client, server) {
			return false
		}
	}
	return true
}

func (f *glueFactory) New(entry core.ProtoEntry, ref *core.ObjectRef, host *core.Context) (core.Protocol, error) {
	g := new(glueData)
	if err := xdr.Unmarshal(entry.Data, g); err != nil {
		return nil, errs.Wrap(errs.Codec, err, "capability: bad glue proto-data")
	}
	baseFactory, ok := f.pool.Lookup(g.Base.ID)
	if !ok {
		return nil, errs.Newf(errs.Config, "capability: glue base protocol %q not in pool", g.Base.ID)
	}
	base, err := baseFactory.New(g.Base, ref, host)
	if err != nil {
		return nil, err
	}
	caps, err := Rebuild(g.Caps)
	if err != nil {
		base.Close()
		return nil, err
	}
	return &Glue{tag: g.Tag, base: base, caps: caps, clock: host.Runtime().Clock(), tracer: host.Runtime().Tracer()}, nil
}

// Glue is the client-side glue protocol object: it lets each registered
// capability process a request before handing it to the base protocol,
// and un-processes replies in reverse order.
type Glue struct {
	tag    string
	base   core.Protocol
	caps   []Capability
	clock  clock.Clock
	tracer *obs.Tracer // nil (untraced) for hand-assembled glues
}

// NewGlue assembles a glue protocol object directly (tests and custom
// protocol stacks; normal clients get one from the factory).
func NewGlue(tag string, base core.Protocol, clk clock.Clock, caps ...Capability) *Glue {
	return &Glue{tag: tag, base: base, caps: caps, clock: clk}
}

// ID implements core.Protocol.
func (g *Glue) ID() core.ProtoID { return core.ProtoGlue }

// scratch is what one direction of one call needs besides the bodies —
// the capability frame, the outgoing message, its envelope slots, and an
// arena for the tag and the small envelopes (auth, checksum) — in one
// allocation, left to the collector (DESIGN.md decision 4: a base protocol
// may hold the message past the call, so there is no release point yet).
// A longer chain appends past envs and allocates past the arena.
type scratch struct {
	frame Frame
	msg   wire.Message
	envs  [9]wire.Envelope
	arena [192]byte
}

// newScratch starts one direction: frame f drawing on the arena, and an
// envelope chain opened by the glue tag.
func newScratch(tag string, f Frame) (*scratch, []wire.Envelope) {
	sc := &scratch{frame: f}
	sc.frame.arena = sc.arena[:]
	t := append(sc.frame.envelope(len(tag))[:0], tag...)
	return sc, append(sc.envs[:0], wire.Envelope{ID: core.GlueEnvelopeID, Data: t})
}

// Capabilities returns the capability chain (shared, do not mutate).
func (g *Glue) Capabilities() []Capability { return g.caps }

// wrapRequest runs the request through the capability chain and returns
// the enveloped frame to hand to the base protocol. Shared by Call,
// Begin, and Post, so the pipelined and one-way paths are metered and
// protected identically to the synchronous one.
func (g *Glue) wrapRequest(m *wire.Message) (*wire.Message, error) {
	// Continue the invocation's trace (the GP stamped its IDs into the
	// header): one "glue.process" span covers the whole capability chain
	// and records which kinds processed the body.
	sp := g.tracer.StartChild(obs.TraceID(m.TraceID), obs.SpanID(m.SpanID), obs.KindClient, "glue.process")
	sp.SetHint(m.KeepHint())
	sc, envs := newScratch(g.tag, Frame{Object: m.Object, Method: m.Method, Dir: Request, Clock: g.clock})
	body := m.Body
	for i, c := range g.caps {
		nb, env, err := c.Process(&sc.frame, body)
		if err != nil {
			// Capability i rejected the request: the frame never leaves
			// the client, so hand back the charges capabilities 0..i-1
			// already took — the server-side authorities were never
			// touched and the mirrors must not drift.
			g.refundPrefix(i, m.Object, m.Method)
			err = errs.Wrapf(errs.Capability, err, "capability %s", c.Kind())
			sp.SetErr(err)
			sp.End()
			return nil, err
		}
		body = nb
		envs = append(envs, wire.Envelope{ID: c.Kind(), Data: env})
	}
	sc.msg = *m
	sc.msg.Body = body
	sc.msg.Envelopes = envs
	if sp != nil {
		sp.SetCaps(core.EnvCaps(envs))
		sp.SetBytes(len(body))
		sp.End()
	}
	return &sc.msg, nil
}

// baseSpan opens a client-side span named after the base protocol,
// covering the send (and, for pipelined glues, the in-flight wait) of
// one enveloped frame. Nil when untraced.
func (g *Glue) baseSpan(out *wire.Message) *obs.Active {
	sp := g.tracer.StartChild(obs.TraceID(out.TraceID), obs.SpanID(out.SpanID), obs.KindClient, string(g.base.ID()))
	sp.SetHint(out.KeepHint())
	sp.SetBytes(len(out.Body))
	return sp
}

// Call implements core.Protocol: process with each capability in order,
// delegate to the base protocol, then un-process the reply in reverse.
func (g *Glue) Call(m *wire.Message) (*wire.Message, error) {
	out, err := g.wrapRequest(m)
	if err != nil {
		return nil, err
	}
	bs := g.baseSpan(out)
	reply, err := g.base.Call(out)
	bs.SetErr(err)
	bs.End()
	if err != nil {
		// The attempt died in transport: the server never charged its
		// authoritative capabilities, so hand the client-mirror charges
		// back before the ORB retries elsewhere.
		g.refundRequest(m.Object, m.Method)
		return nil, err
	}
	if reply.Type != wire.TReply {
		// Faults travel outside the capability envelope; hand them up.
		return reply, nil
	}
	return g.unwrapReply(reply)
}

// gluePending is the completion handle of a pipelined glue invocation:
// the base protocol's pending, with the reply un-processed through the
// capability chain (once) on resolution.
type gluePending struct {
	g      *Glue
	p      core.Pending
	object string
	method string
	span   *obs.Active // base-protocol send span, ended on resolution
	once   sync.Once
	reply  *wire.Message
	err    error
}

func (gp *gluePending) Done() <-chan struct{} { return gp.p.Done() }

// Abandon forwards to the base pending, so a deadline firing mid-flight
// releases the underlying exchange.
func (gp *gluePending) Abandon() { gp.p.Abandon() }

// WhenDone waits for the base exchange on a goroutine and runs fn there:
// fn calls Reply, which runs Unprocess — user code, possibly blocking,
// proportional to the body — and so must never run on a mux read loop.
func (gp *gluePending) WhenDone(fn func()) {
	go func() {
		<-gp.p.Done()
		fn()
	}()
}

func (gp *gluePending) Reply() (*wire.Message, error) {
	gp.once.Do(func() {
		reply, err := gp.p.Reply()
		gp.span.SetErr(err)
		gp.span.End()
		if err != nil {
			gp.g.refundRequest(gp.object, gp.method)
			gp.err = err
			return
		}
		if reply.Type != wire.TReply {
			gp.reply = reply // faults travel outside the envelope
			return
		}
		gp.reply, gp.err = gp.g.unwrapReply(reply)
	})
	return gp.reply, gp.err
}

// Begin implements core.PipelinedProtocol: capability processing happens
// in the caller's goroutine (so quota/rate accounting observes the issue
// order), the request is started on the base through core.Begin —
// pipelined when the base supports it, behind a goroutine when it only
// has Call — and the reply is un-processed on the completion path.
// Batched requests therefore traverse the capability chain individually
// — every sub-request in a TBatch carries its own envelope chain.
func (g *Glue) Begin(m *wire.Message) (core.Pending, error) {
	out, err := g.wrapRequest(m)
	if err != nil {
		return nil, err
	}
	bs := g.baseSpan(out)
	p, err := core.Begin(g.base, out)
	if err != nil {
		bs.SetErr(err)
		bs.End()
		g.refundRequest(m.Object, m.Method)
		return nil, err
	}
	return &gluePending{g: g, p: p, object: m.Object, method: m.Method, span: bs}, nil
}

// SetBatching implements core.BatchingProtocol by forwarding the policy
// to the base protocol when it listens: coalescing happens beneath the
// capability chain, so each batched sub-request keeps its own envelope
// chain and server-side un-processing is unchanged.
func (g *Glue) SetBatching(p transport.BatchPolicy) {
	if bp, ok := g.base.(core.BatchingProtocol); ok {
		bp.SetBatching(p)
	}
}

func (g *Glue) unwrapReply(reply *wire.Message) (*wire.Message, error) {
	if len(reply.Envelopes) != len(g.caps)+1 {
		return nil, wire.Faultf(wire.FaultCapability,
			"reply envelope chain has %d entries, want %d", len(reply.Envelopes), len(g.caps)+1)
	}
	if reply.Envelopes[0].ID != core.GlueEnvelopeID || string(reply.Envelopes[0].Data) != g.tag {
		return nil, wire.Faultf(wire.FaultCapability, "reply glue tag mismatch")
	}
	frame := &Frame{Object: reply.Object, Method: reply.Method, Dir: Reply, Clock: g.clock}
	body := reply.Body
	for i := len(g.caps) - 1; i >= 0; i-- {
		env := reply.Envelopes[i+1]
		if env.ID != g.caps[i].Kind() {
			return nil, wire.Faultf(wire.FaultCapability,
				"reply envelope %d is %q, want %q", i, env.ID, g.caps[i].Kind())
		}
		nb, err := g.caps[i].Unprocess(frame, env.Data, body)
		if err != nil {
			return nil, errs.Wrapf(errs.Capability, err, "capability %s (reply)", g.caps[i].Kind())
		}
		body = nb
	}
	out := *reply
	out.Body = body
	out.Envelopes = nil
	return &out, nil
}

// Post implements core.OneWayProtocol when the base protocol does: the
// request is processed by every capability (so one-way calls are
// metered, authenticated, and encrypted like two-way ones) and handed
// to the base with no reply expected.
func (g *Glue) Post(m *wire.Message) error {
	ow, ok := g.base.(core.OneWayProtocol)
	if !ok {
		return core.ErrOneWayUnsupported
	}
	out, err := g.wrapRequest(m)
	if err != nil {
		return err
	}
	bs := g.baseSpan(out)
	if err := ow.Post(out); err != nil {
		bs.SetErr(err)
		bs.End()
		g.refundRequest(m.Object, m.Method)
		return err
	}
	bs.End()
	return nil
}

// Close implements core.Protocol.
func (g *Glue) Close() error { return g.base.Close() }

// GlueServer is the server side of a glue protocol (the paper's GC): it
// holds the server's own copies of the capabilities and lets them
// un-process each request in the reverse order of the client-side
// processing, then processes replies on the way out.
type GlueServer struct {
	tag   string
	caps  []Capability
	clock clock.Clock
}

// NewGlueServer builds a server-side glue for a capability chain.
func NewGlueServer(tag string, caps []Capability, clk clock.Clock) *GlueServer {
	return &GlueServer{tag: tag, caps: caps, clock: clk}
}

var _ core.GlueServer = (*GlueServer)(nil)

// Capabilities returns the server-side capability chain.
func (s *GlueServer) Capabilities() []Capability { return s.caps }

// UnwrapRequest implements core.GlueServer.
func (s *GlueServer) UnwrapRequest(m *wire.Message) ([]byte, error) {
	if len(m.Envelopes) != len(s.caps)+1 {
		return nil, wire.Faultf(wire.FaultCapability,
			"request envelope chain has %d entries, want %d", len(m.Envelopes), len(s.caps)+1)
	}
	frame := &Frame{Object: m.Object, Method: m.Method, Dir: Request, Clock: s.clock}
	body := m.Body
	for i := len(s.caps) - 1; i >= 0; i-- {
		env := m.Envelopes[i+1]
		if env.ID != s.caps[i].Kind() {
			return nil, wire.Faultf(wire.FaultCapability,
				"request envelope %d is %q, want %q", i, env.ID, s.caps[i].Kind())
		}
		nb, err := s.caps[i].Unprocess(frame, env.Data, body)
		if err != nil {
			return nil, err
		}
		body = nb
	}
	return body, nil
}

// WrapReply implements core.GlueServer.
func (s *GlueServer) WrapReply(req *wire.Message, body []byte) (*wire.Message, error) {
	sc, envs := newScratch(s.tag, Frame{Object: req.Object, Method: req.Method, Dir: Reply, Clock: s.clock})
	for _, c := range s.caps {
		nb, env, err := c.Process(&sc.frame, body)
		if err != nil {
			// Reply-direction processing never charges: quota/ratelimit
			// meter the request direction only, and the server's
			// authoritative request charge (made in UnwrapRequest) stands
			// regardless of how the reply fares.
			//lint:ignore caprefund reply-direction Process charges nothing to refund
			return nil, errs.Wrapf(errs.Capability, err, "capability %s (reply)", c.Kind())
		}
		body = nb
		envs = append(envs, wire.Envelope{ID: c.Kind(), Data: env})
	}
	sc.msg = wire.Message{
		Type:      wire.TReply,
		Object:    req.Object,
		Method:    req.Method,
		Epoch:     req.Epoch,
		Envelopes: envs,
		Body:      body,
	}
	return &sc.msg, nil
}

// DescribeEntry renders a glue protocol table entry for humans:
// "glue[quota, encrypt] over hpcx-tcp (tag \"sec\")". Non-glue entries
// render as their protocol id; undecodable data is reported as such.
func DescribeEntry(entry core.ProtoEntry) string {
	if entry.ID != core.ProtoGlue {
		return string(entry.ID)
	}
	g := new(glueData)
	if err := xdr.Unmarshal(entry.Data, g); err != nil {
		return "glue[undecodable]"
	}
	kinds := make([]string, len(g.Caps))
	for i, c := range g.Caps {
		kinds[i] = c.Kind
	}
	return fmt.Sprintf("glue[%s] over %s (tag %q)", strings.Join(kinds, ", "), g.Base.ID, g.Tag)
}
