package capability

import (
	"fmt"
	"strings"
	"sync"
	"unsafe"

	"openhpcxx/internal/bufpool"
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
	return serveGlue(ctx, &glueData{Tag: tag, Base: base, Caps: specs})
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
	g, err := decodeGlue(entry)
	if err != nil {
		return core.ProtoEntry{}, false, err
	}
	var ok bool
	if g.Base, ok = rebase(g.Base); !ok {
		return core.ProtoEntry{}, false, nil
	}
	out, err := serveGlue(dst, g)
	return out, err == nil, err
}

// serveGlue registers the server side of g at ctx under its tag and
// returns g's entry. The server's capabilities are rebuilt from the specs,
// so server-side state (quota counters) is independent of any caller's.
func serveGlue(ctx *core.Context, g *glueData) (core.ProtoEntry, error) {
	caps, err := Rebuild(g.Caps)
	if err != nil {
		return core.ProtoEntry{}, err
	}
	data, err := xdr.Marshal(g)
	if err != nil {
		return core.ProtoEntry{}, err
	}
	ctx.RegisterGlue(g.Tag, NewGlueServer(g.Tag, caps, ctx.Runtime().Clock()))
	return core.ProtoEntry{ID: core.ProtoGlue, Data: data}, nil
}

// decodeGlue decodes a glue entry's proto-data.
func decodeGlue(entry core.ProtoEntry) (*glueData, error) {
	g := new(glueData)
	if err := xdr.Unmarshal(entry.Data, g); err != nil {
		return nil, errs.Wrap(errs.Codec, err, "capability: bad glue proto-data")
	}
	return g, nil
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
	g, err := decodeGlue(entry)
	if err != nil {
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
	g, err := decodeGlue(entry)
	if err != nil {
		return nil, err
	}
	baseFactory, ok := f.pool.Lookup(g.Base.ID)
	if !ok {
		return nil, errs.Newf(errs.Config, "capability: glue base protocol %q not in pool", g.Base.ID)
	}
	caps, err := Rebuild(g.Caps)
	if err != nil {
		return nil, err
	}
	base, err := baseFactory.New(g.Base, ref, host)
	if err != nil {
		return nil, err
	}
	return &Glue{chain: chain{g.Tag, caps, host.Runtime().Clock()}, base: base, tracer: host.Runtime().Tracer()}, nil
}

// chain is one side's capability chain (glue tag, capabilities, clock)
// and the only two walks over it (paper Figure 2). A walk whose request a
// capability rejects refunds what that walk already charged, so a
// rejected request costs neither side anything.
type chain struct {
	tag   string
	caps  []Capability
	clock clock.Clock
}

// Capabilities returns the capability chain (shared, do not mutate).
func (c *chain) Capabilities() []Capability { return c.caps }

// process runs m's body through the chain in order and returns a copy of
// m carrying the result and the envelope chain (the glue tag, then one
// envelope per capability). If capability i rejects, caps[:i] refund. A
// body handed over is lent to the copy, or given back once replaced.
func (c *chain) process(m *wire.Message, dir Direction) (*wire.Message, error) {
	sc := &scratch{frame: Frame{Object: m.Object, Method: m.Method, Dir: dir, Clock: c.clock}}
	sc.frame.arena = sc.arena[:]
	tag := append(sc.frame.envelope(len(c.tag))[:0], c.tag...)
	envs := append(sc.envs[:0], wire.Envelope{ID: core.GlueEnvelopeID, Data: tag})
	body, lent := m.Body, []byte(nil) // lent: body, once a capability handed it over
	for i, cp := range c.caps {
		nb, env, err := cp.Process(&sc.frame, body)
		if err != nil {
			c.refund(c.caps[:i], dir, m.Object, m.Method)
			return nil, errs.Wrapf(errs.Capability, err, "capability %s%s", cp.Kind(), replyNote[dir])
		}
		if unsafe.SliceData(nb) != unsafe.SliceData(body) {
			bufpool.Put(lent) // nil until a capability hands one over; Put leaves nil alone
			lent = nb
		}
		body = nb
		envs = append(envs, wire.Envelope{ID: cp.Kind(), Data: env})
	}
	sc.msg = *m
	sc.msg.Body = body
	sc.msg.Envelopes = envs
	sc.msg.Lend(lent) // never m's loan: the copy holds its own or none
	return &sc.msg, nil
}

// unprocess checks m's envelope chain (length, glue tag, kinds), then runs
// m's body back through the chain in reverse. If capability i rejects,
// caps[i+1:] refund; a request's reject stays the capability's own fault.
func (c *chain) unprocess(m *wire.Message, dir Direction) ([]byte, error) {
	if len(m.Envelopes) != len(c.caps)+1 {
		return nil, wire.Faultf(wire.FaultCapability,
			"%s envelope chain has %d entries, want %d", dir, len(m.Envelopes), len(c.caps)+1)
	}
	if m.Envelopes[0].ID != core.GlueEnvelopeID || string(m.Envelopes[0].Data) != c.tag {
		return nil, wire.Faultf(wire.FaultCapability, "%s glue tag mismatch", dir)
	}
	for i := len(c.caps) - 1; i >= 0; i-- {
		if id := m.Envelopes[i+1].ID; id != c.caps[i].Kind() {
			return nil, wire.Faultf(wire.FaultCapability, "%s envelope %d is %q, want %q", dir, i, id, c.caps[i].Kind())
		}
	}
	frame := frames.Get().(*Frame)
	defer frames.Put(frame)
	*frame = Frame{Object: m.Object, Method: m.Method, Dir: dir, Clock: c.clock}
	body := m.Body
	for i := len(c.caps) - 1; i >= 0; i-- {
		nb, err := c.caps[i].Unprocess(frame, m.Envelopes[i+1].Data, body)
		if err != nil {
			c.refund(c.caps[i+1:], dir, m.Object, m.Method)
			if dir == Request {
				return nil, err
			}
			return nil, errs.Wrapf(errs.Capability, err, "capability %s (reply)", c.caps[i].Kind())
		}
		body = nb
	}
	return body, nil
}

// refund hands back the request charges caps made for object.method,
// newest first. A reply-direction walk charged nothing to hand back.
func (c *chain) refund(caps []Capability, dir Direction, object, method string) {
	if dir != Request {
		return
	}
	f := frames.Get().(*Frame)
	defer frames.Put(f)
	*f = Frame{Object: object, Method: method, Dir: Request, Clock: c.clock}
	for i := len(caps) - 1; i >= 0; i-- {
		if r, ok := caps[i].(Refunder); ok {
			r.Refund(f)
		}
	}
}

// frames holds the reverse walks' Frames: no capability keeps one.
var frames = sync.Pool{New: func() any { return new(Frame) }}

// replyNote marks a reply-direction reject in its error.
var replyNote = [...]string{Request: "", Reply: " (reply)"}

// Glue is the client-side glue protocol object: it lets each registered
// capability process a request before handing it to the base protocol,
// and un-processes replies in reverse order.
type Glue struct {
	chain
	base   core.Protocol
	tracer *obs.Tracer // nil (untraced) for hand-assembled glues
}

// NewGlue assembles a glue protocol object directly (tests and custom
// protocol stacks; normal clients get one from the factory).
func NewGlue(tag string, base core.Protocol, clk clock.Clock, caps ...Capability) *Glue {
	return &Glue{chain: chain{tag, caps, clk}, base: base}
}

// ID implements core.Protocol.
func (g *Glue) ID() core.ProtoID { return core.ProtoGlue }

// scratch is what one direction of one call needs besides the bodies —
// the capability frame, the outgoing message, its envelope slots, and an
// arena for the tag and the small envelopes (auth, checksum, nonces) — in
// one allocation, left to the collector: the envelopes must outlive the
// write, whenever that is (DESIGN.md decision 4; the bodies are lent).
// A longer chain appends past envs and allocates past the arena.
type scratch struct {
	frame Frame
	msg   wire.Message
	envs  [9]wire.Envelope
	arena [192]byte
}

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
	out, err := g.process(m, Request)
	sp.SetErr(err)
	if out != nil && sp != nil {
		sp.SetCaps(core.EnvCaps(out.Envelopes))
		sp.SetBytes(len(out.Body))
	}
	sp.End()
	return out, err
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

// settle ends one base exchange: a transport error refunds the client
// mirrors (the server never charged, and the ORB retries elsewhere), a
// fault travels outside the envelope as it is, and a reply un-processes.
func (g *Glue) settle(bs *obs.Active, object, method string, reply *wire.Message, err error) (*wire.Message, error) {
	bs.SetErr(err)
	bs.End()
	if err != nil {
		g.refund(g.caps, Request, object, method)
		return nil, err
	}
	if reply.Type != wire.TReply {
		return reply, nil
	}
	body, err := g.unprocess(reply, Reply)
	if err != nil {
		return nil, err
	}
	out := *reply
	out.Body = body
	out.Envelopes = nil
	out.Lend(nil) // the loan, if any, stays reply's: never two holders
	return &out, nil
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
	return g.settle(bs, m.Object, m.Method, reply, err)
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
		gp.reply, gp.err = gp.g.settle(gp.span, gp.object, gp.method, reply, err)
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
		g.refund(g.caps, Request, m.Object, m.Method)
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
		g.refund(g.caps, Request, m.Object, m.Method)
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
type GlueServer struct{ chain }

// NewGlueServer builds a server-side glue for a capability chain.
func NewGlueServer(tag string, caps []Capability, clk clock.Clock) *GlueServer {
	return &GlueServer{chain{tag, caps, clk}}
}

var _ core.GlueServer = (*GlueServer)(nil)

// UnwrapRequest implements core.GlueServer.
func (s *GlueServer) UnwrapRequest(m *wire.Message) ([]byte, error) {
	return s.unprocess(m, Request)
}

// WrapReply implements core.GlueServer.
func (s *GlueServer) WrapReply(req *wire.Message, body []byte) (*wire.Message, error) {
	return s.process(&wire.Message{Type: wire.TReply, Object: req.Object, Method: req.Method, Epoch: req.Epoch, Body: body}, Reply)
}

// DescribeEntry renders a glue protocol table entry for humans:
// "glue[quota, encrypt] over hpcx-tcp (tag \"sec\")". Non-glue entries
// render as their protocol id; undecodable data is reported as such.
func DescribeEntry(entry core.ProtoEntry) string {
	if entry.ID != core.ProtoGlue {
		return string(entry.ID)
	}
	g, err := decodeGlue(entry)
	if err != nil {
		return "glue[undecodable]"
	}
	kinds := make([]string, len(g.Caps))
	for i, c := range g.Caps {
		kinds[i] = c.Kind
	}
	return fmt.Sprintf("glue[%s] over %s (tag %q)", strings.Join(kinds, ", "), g.Base.ID, g.Tag)
}
