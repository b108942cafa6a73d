package bench

import (
	"bytes"
	"fmt"
	"time"

	"openhpcxx/internal/capability"
	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/testbed"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// PathReport documents one observed request path, the repository's
// rendering of the paper's architecture figures.
type PathReport struct {
	Title string
	Lines []string
}

// capturingProto wraps a protocol object and records the frames that
// crossed it, letting the Figure 2 driver show what the wire actually
// carried between the glue object and the protocol object.
type capturingProto struct {
	base        core.Protocol
	lastRequest *wire.Message
	lastReply   *wire.Message
}

func (p *capturingProto) ID() core.ProtoID { return p.base.ID() }

func (p *capturingProto) Call(m *wire.Message) (*wire.Message, error) {
	p.lastRequest = snapshot(m) // before the send, which ends m
	reply, err := p.base.Call(m)
	if reply != nil {
		p.lastReply = snapshot(reply)
	}
	return reply, err
}

// snapshot copies what m carries, so the copy outlives m's header and loan.
func snapshot(m *wire.Message) *wire.Message {
	c := &wire.Message{Type: m.Type, Object: m.Object, Method: m.Method, Body: bytes.Clone(m.Body)}
	for _, e := range m.Envelopes {
		c.Envelopes = append(c.Envelopes, wire.Envelope{ID: e.ID, Data: bytes.Clone(e.Data)})
	}
	return c
}

func (p *capturingProto) Close() error { return p.base.Close() }

// RunFigure1 demonstrates the plain ORB request path of Figure 1: a GP
// invocation travels through a protocol object P to the server-side
// protocol class C and into the server object, and the reply retraces
// the path.
func RunFigure1(o Options) (*PathReport, error) {
	tb := testbed.New("fig1", o.OnRuntime)
	defer tb.Close()
	tb.LAN("lan", "campus", netsim.ProfileUnshaped, "cm", "sm")
	sn := tb.Context("server", "sm").BindAll().Echo("")
	cn := tb.Context("client", "cm")
	ref := sn.Ref(sn.Stream())
	if err := tb.Build(); err != nil {
		return nil, err
	}
	gp := cn.Ctx.NewGlobalPtr(ref)

	before := sn.Servant.Calls()
	m, err := MeasureExchange(gp, 256, 1, 0)
	if err != nil {
		return nil, err
	}
	id, err := gp.SelectedProtocol()
	if err != nil {
		return nil, err
	}
	addr, _ := sn.Ctx.Binding(core.ProtoStream)

	r := &PathReport{Title: "Figure 1: ORB communication mechanism"}
	r.add("client GP for %s (context %q, machine %s)", ref.Object, cn.Ctx.Name(), cn.Ctx.Locality().Machine)
	r.add("  -> protocol object P: %s", id)
	r.add("  -> wire: %s", addr)
	r.add("  -> protocol class C at context %q (machine %s)", sn.Ctx.Name(), sn.Ctx.Locality().Machine)
	r.add("  -> server object %s :: exchange (servant calls: %d -> %d)", ref.Object, before, sn.Servant.Calls())
	r.add("  <- reply retraced the path; %d ints echoed in %v", m.Ints, m.AvgRTT)
	return r, nil
}

// RunFigure2 demonstrates the capability request path of Figure 2: a
// request through a glue object holding C1 (encryption) and C2 (a quota)
// is processed by each capability before hitting the wire, un-processed
// in reverse order by the glue class on the server, and the reply
// retraces the path. The report shows the envelope chain and proves the
// body was actually encrypted on the wire.
func RunFigure2(o Options) (*PathReport, error) {
	tb := testbed.New("fig2", o.OnRuntime)
	defer tb.Close()
	tb.LAN("lan", "campus", netsim.ProfileUnshaped, "cm", "sm")
	sn := tb.Context("server", "sm").BindAll().Echo("")
	cn := tb.Context("client", "cm")
	streamE := sn.Stream()
	ref := sn.Ref(streamE)
	if err := tb.Build(); err != nil {
		return nil, err
	}

	// Shared secret for both sides; the glue server gets its own copies
	// of the capabilities (the paper's GC).
	key := bytes.Repeat([]byte{7}, 32)
	c1 := capability.MustNewEncrypt(key, capability.ScopeAlways)
	c2 := capability.NewQuota(1000, time.Time{})
	gc1 := capability.MustNewEncrypt(key, capability.ScopeAlways)
	gc2 := capability.NewQuota(1000, time.Time{})
	sn.Ctx.RegisterGlue("fig2", capability.NewGlueServer("fig2", []capability.Capability{gc1, gc2}, tb.RT.Clock()))

	baseFactory, ok := cn.Ctx.Pool().Lookup(core.ProtoStream)
	if !ok {
		return nil, errs.New(errs.Config, "bench: stream factory missing")
	}
	base, err := baseFactory.New(streamE, ref, cn.Ctx)
	if err != nil {
		return nil, err
	}
	capture := &capturingProto{base: base}
	glue := capability.NewGlue("fig2", capture, tb.RT.Clock(), c1, c2)

	reply, err := glue.Call(&wire.Message{
		Type:   wire.TRequest,
		Object: string(ref.Object),
		Method: "exchange",
		Body:   encodeIntArray(11),
	})
	if err != nil {
		return nil, err
	}
	if reply.Type != wire.TReply {
		return nil, errs.Newf(errs.Internal, "bench: fig2 got %v", reply.Type)
	}

	r := &PathReport{Title: "Figure 2: a remote request using capabilities"}
	r.add("client glue object G (tag %q) holds C1=%s, C2=%s", "fig2", c1.Kind(), c2.Kind())
	req := capture.lastRequest
	r.add("request on the wire carried %d envelopes:", len(req.Envelopes))
	for i, e := range req.Envelopes {
		r.add("  envelope[%d] = %s (%d bytes)", i, e.ID, len(e.Data))
	}
	if bytes.Contains(req.Body, []byte{0, 0, 0, 11}) && bytes.Equal(req.Body, encodeIntArray(11)) {
		r.add("  !! body travelled in cleartext")
	} else {
		r.add("  body on the wire is ciphertext (C1 processed it before send)")
	}
	r.add("server glue class GC un-processed C2 then C1 (reverse order), request reached servant")
	r.add("server-side quota charged: used=%d", gc2.Used())
	rep := capture.lastReply
	r.add("reply carried %d envelopes back; client glue un-processed them in reverse", len(rep.Envelopes))
	r.add("final reply body decoded to %d ints", countInts(reply.Body))
	return r, nil
}

// Format implements Report.
func (r *PathReport) Format() string { return FormatPathReport(r) }

func (r *PathReport) add(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func encodeIntArray(n int) []byte {
	b, _ := xdr.Marshal(testbed.Ints(n))
	return b
}

func countInts(body []byte) int {
	var s core.Int32Slice
	if err := xdr.Unmarshal(body, &s); err != nil {
		return -1
	}
	return len(s.V)
}
