package capability

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/wire"
)

// recordingCap logs Process/Unprocess invocations into a shared journal
// so tests can assert the Figure 2 ordering exactly.
type recordingCap struct {
	kind    string
	journal *journal
}

type journal struct {
	mu      sync.Mutex
	entries []string
}

func (j *journal) add(s string) {
	j.mu.Lock()
	j.entries = append(j.entries, s)
	j.mu.Unlock()
}

func (j *journal) list() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.entries...)
}

func (c *recordingCap) Kind() string                         { return c.kind }
func (c *recordingCap) Applicable(_, _ netsim.Locality) bool { return true }
func (c *recordingCap) Config() ([]byte, error)              { return []byte(c.kind), nil }
func (c *recordingCap) Process(f *Frame, body []byte) ([]byte, []byte, error) {
	c.journal.add(c.kind + ".process." + f.Dir.String())
	// Tag the body so mis-ordered unprocessing is visible in content.
	return append(append([]byte(nil), body...), []byte("+"+c.kind)...), nil, nil
}
func (c *recordingCap) Unprocess(f *Frame, env, body []byte) ([]byte, error) {
	c.journal.add(c.kind + ".unprocess." + f.Dir.String())
	suffix := []byte("+" + c.kind)
	if !bytes.HasSuffix(body, suffix) {
		return nil, wire.Faultf(wire.FaultCapability, "%s: out-of-order unprocess on %q", c.kind, body)
	}
	return body[:len(body)-len(suffix)], nil
}

// localProto loops a message straight into a dispatcher function —
// a base protocol with no transport, for glue unit tests.
type localProto struct {
	handle func(*wire.Message) *wire.Message
}

func (p *localProto) ID() core.ProtoID { return "local" }
func (p *localProto) Call(m *wire.Message) (*wire.Message, error) {
	if r := p.handle(m); r != nil {
		return r, nil
	}
	return nil, errors.New("no reply")
}
func (p *localProto) Close() error { return nil }

func TestGlueOrderingFigure2(t *testing.T) {
	// Figure 2: client processes C1 then C2; server un-processes in the
	// reverse order (C2 then C1); the reply retraces the path.
	j := &journal{}
	c1 := &recordingCap{kind: "c1", journal: j}
	c2 := &recordingCap{kind: "c2", journal: j}
	sc1 := &recordingCap{kind: "c1", journal: j}
	sc2 := &recordingCap{kind: "c2", journal: j}

	gs := NewGlueServer("t", []Capability{sc1, sc2}, clock.Real{})
	var gotBody []byte
	base := &localProto{handle: func(m *wire.Message) *wire.Message {
		body, err := gs.UnwrapRequest(m)
		if err != nil {
			t.Fatalf("unwrap: %v", err)
		}
		gotBody = body
		reply, err := gs.WrapReply(m, append([]byte("re:"), body...))
		if err != nil {
			t.Fatalf("wrap: %v", err)
		}
		return reply
	}}

	g := NewGlue("t", base, clock.Real{}, c1, c2)
	reply, err := g.Call(&wire.Message{Type: wire.TRequest, Object: "o", Method: "m", Body: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBody) != "x" {
		t.Fatalf("server saw %q", gotBody)
	}
	if string(reply.Body) != "re:x" {
		t.Fatalf("client saw %q", reply.Body)
	}
	want := []string{
		"c1.process.request", "c2.process.request", // client out
		"c2.unprocess.request", "c1.unprocess.request", // server in (reverse)
		"c1.process.reply", "c2.process.reply", // server out
		"c2.unprocess.reply", "c1.unprocess.reply", // client in (reverse)
	}
	got := j.list()
	if len(got) != len(want) {
		t.Fatalf("journal %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d = %s, want %s (journal %v)", i, got[i], want[i], got)
		}
	}
}

func TestGlueServerEnvelopeMismatch(t *testing.T) {
	j := &journal{}
	gs := NewGlueServer("t", []Capability{&recordingCap{kind: "c1", journal: j}}, clock.Real{})

	// Wrong count.
	_, err := gs.UnwrapRequest(&wire.Message{Envelopes: []wire.Envelope{{ID: core.GlueEnvelopeID, Data: []byte("t")}}})
	var f *wire.Fault
	if !errors.As(err, &f) || f.Code != wire.FaultCapability {
		t.Fatalf("count mismatch: %v", err)
	}
	// Wrong kind in slot.
	_, err = gs.UnwrapRequest(&wire.Message{Envelopes: []wire.Envelope{
		{ID: core.GlueEnvelopeID, Data: []byte("t")},
		{ID: "other"},
	}})
	if !errors.As(err, &f) || f.Code != wire.FaultCapability {
		t.Fatalf("kind mismatch: %v", err)
	}
}

func TestGlueClientReplyValidation(t *testing.T) {
	j := &journal{}
	c1 := &recordingCap{kind: "c1", journal: j}
	// Base returns a reply with no envelopes at all.
	base := &localProto{handle: func(m *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TReply, Body: []byte("bare")}
	}}
	g := NewGlue("t", base, clock.Real{}, c1)
	_, err := g.Call(&wire.Message{Type: wire.TRequest, Object: "o", Method: "m"})
	var f *wire.Fault
	if !errors.As(err, &f) || f.Code != wire.FaultCapability {
		t.Fatalf("bare reply accepted: %v", err)
	}

	// Wrong tag.
	base2 := &localProto{handle: func(m *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TReply, Envelopes: []wire.Envelope{
			{ID: core.GlueEnvelopeID, Data: []byte("other")},
			{ID: "c1"},
		}}
	}}
	g2 := NewGlue("t", base2, clock.Real{}, c1)
	_, err = g2.Call(&wire.Message{Type: wire.TRequest})
	if !errors.As(err, &f) || f.Code != wire.FaultCapability {
		t.Fatalf("wrong tag accepted: %v", err)
	}
}

func TestGlueFaultsPassThrough(t *testing.T) {
	// Faults from the server bypass capability unwrapping.
	j := &journal{}
	c1 := &recordingCap{kind: "c1", journal: j}
	base := &localProto{handle: func(m *wire.Message) *wire.Message {
		f, _ := wire.FaultMessage(m, wire.Faultf(wire.FaultNoObject, "gone"))
		return f
	}}
	g := NewGlue("t", base, clock.Real{}, c1)
	reply, err := g.Call(&wire.Message{Type: wire.TRequest})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TFault {
		t.Fatal("fault swallowed")
	}
}

// world builds a simulated deployment for end-to-end glue tests:
// two LANs on one campus, a third LAN on another campus.
func world(t testing.TB) *core.Runtime {
	t.Helper()
	n := netsim.New()
	n.AddLAN("lan1", "campus1", netsim.ProfileUnshaped)
	n.AddLAN("lan2", "campus1", netsim.ProfileUnshaped)
	n.AddLAN("lan3", "campus2", netsim.ProfileUnshaped)
	n.CampusLink = netsim.ProfileUnshaped
	n.WANLink = netsim.ProfileUnshaped
	n.MustAddMachine("m0", "lan1")
	n.MustAddMachine("m1", "lan1")
	n.MustAddMachine("m2", "lan2")
	n.MustAddMachine("m3", "lan3")
	rt := core.NewRuntime(n, "proc1")
	Install(rt.DefaultPool())
	t.Cleanup(rt.Close)
	return rt
}

func echoServer(t testing.TB, rt *core.Runtime, name, machine string) (*core.Context, *core.Servant) {
	t.Helper()
	ctx, err := rt.NewContext(name, netsim.MachineID(machine))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.BindSim(0); err != nil {
		t.Fatal(err)
	}
	s, err := ctx.Export("Echo", nil, map[string]core.Method{
		"echo":  func(args []byte) ([]byte, error) { return args, nil },
		"upper": func(args []byte) ([]byte, error) { return bytes.ToUpper(args), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctx, s
}

func TestGlueEndToEnd(t *testing.T) {
	rt := world(t)
	server, s := echoServer(t, rt, "server", "m1")
	clientCtx, err := rt.NewContext("client", "m3")
	if err != nil {
		t.Fatal(err)
	}

	base, err := server.EntryStream()
	if err != nil {
		t.Fatal(err)
	}
	glueE, err := GlueEntry(server, "sec", base,
		MustNewEncrypt(key32(), ScopeAlways),
		NewQuota(100, time.Time{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ref := server.NewRef(s, glueE, base)

	gp := clientCtx.NewGlobalPtr(ref)
	if id, err := gp.SelectedProtocol(); err != nil || id != core.ProtoGlue {
		t.Fatalf("selected %s, %v", id, err)
	}
	out, err := gp.Invoke("upper", []byte("capabilities"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "CAPABILITIES" {
		t.Fatalf("got %q", out)
	}
}

func TestGlueQuotaEnforcedServerSide(t *testing.T) {
	rt := world(t)
	server, s := echoServer(t, rt, "server", "m1")
	clientCtx, _ := rt.NewContext("client", "m2")

	base, _ := server.EntryStream()
	glueE, err := GlueEntry(server, "metered", base, NewQuota(2, time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	ref := server.NewRef(s, glueE)
	gp := clientCtx.NewGlobalPtr(ref)

	for i := 0; i < 2; i++ {
		if _, err := gp.Invoke("echo", []byte("x")); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	_, err = gp.Invoke("echo", []byte("x"))
	var f *wire.Fault
	if !errors.As(err, &f) || f.Code != wire.FaultQuota {
		t.Fatalf("third call: %v", err)
	}
}

func TestGlueQuotaSurvivesClientRebuild(t *testing.T) {
	// A fresh client GP (new capability instances) must not reset the
	// server-side quota: the server's copies are authoritative.
	rt := world(t)
	server, s := echoServer(t, rt, "server", "m1")
	c1, _ := rt.NewContext("c1", "m2")
	c2, _ := rt.NewContext("c2", "m2")

	base, _ := server.EntryStream()
	glueE, _ := GlueEntry(server, "once", base, NewQuota(2, time.Time{}))
	ref := server.NewRef(s, glueE)

	if _, err := c1.NewGlobalPtr(ref).Invoke("echo", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.NewGlobalPtr(ref).Invoke("echo", nil); err != nil {
		t.Fatal(err)
	}
	_, err := c2.NewGlobalPtr(ref).Invoke("echo", nil)
	var f *wire.Fault
	if !errors.As(err, &f) || f.Code != wire.FaultQuota {
		t.Fatalf("server-side quota not authoritative: %v", err)
	}
}

func TestGlueApplicabilityAND(t *testing.T) {
	// §4.3: glue applicability is the AND of its capabilities. An auth
	// capability scoped cross-LAN makes the whole glue entry
	// non-applicable for a same-LAN client, which then falls through to
	// the next table entry.
	rt := world(t)
	server, s := echoServer(t, rt, "server", "m1")
	sameLAN, _ := rt.NewContext("near", "m0") // lan1, same as server
	otherLAN, _ := rt.NewContext("far", "m2") // lan2

	base, _ := server.EntryStream()
	glueE, err := GlueEntry(server, "authd", base,
		MustNewAuth("client", []byte("k"), ScopeCrossLAN))
	if err != nil {
		t.Fatal(err)
	}
	ref := server.NewRef(s, glueE, base) // glue preferred, plain fallback

	gpNear := sameLAN.NewGlobalPtr(ref)
	if id, err := gpNear.SelectedProtocol(); err != nil || id != core.ProtoStream {
		t.Fatalf("near client selected %s, %v", id, err)
	}
	gpFar := otherLAN.NewGlobalPtr(ref)
	if id, err := gpFar.SelectedProtocol(); err != nil || id != core.ProtoGlue {
		t.Fatalf("far client selected %s, %v", id, err)
	}
	if _, err := gpFar.Invoke("echo", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := gpNear.Invoke("echo", []byte("z")); err != nil {
		t.Fatal(err)
	}
}

func TestGluePassedBetweenProcesses(t *testing.T) {
	// Capabilities travel with the reference: serialize the OR (as the
	// registry would), hand it to a different runtime ("another
	// process"), and invoke — including the capability set.
	n := netsim.New()
	n.AddLAN("lan1", "campus1", netsim.ProfileUnshaped)
	n.AddLAN("lan2", "campus2", netsim.ProfileUnshaped)
	n.MustAddMachine("m1", "lan1")
	n.MustAddMachine("m2", "lan2")
	n.WANLink = netsim.ProfileUnshaped

	rtServer := core.NewRuntime(n, "procS")
	Install(rtServer.DefaultPool())
	defer rtServer.Close()
	rtClient := core.NewRuntime(n, "procC")
	Install(rtClient.DefaultPool())
	defer rtClient.Close()

	server, err := rtServer.NewContext("server", "m1")
	if err != nil {
		t.Fatal(err)
	}
	if err := server.BindSim(0); err != nil {
		t.Fatal(err)
	}
	s, _ := server.Export("Echo", nil, map[string]core.Method{
		"echo": func(args []byte) ([]byte, error) { return args, nil },
	})
	base, _ := server.EntryStream()
	glueE, _ := GlueEntry(server, "roaming", base,
		MustNewEncrypt(key32(), ScopeAlways), NewQuota(5, time.Time{}))
	ref := server.NewRef(s, glueE)

	blob, err := core.EncodeRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.DecodeRef(blob)
	if err != nil {
		t.Fatal(err)
	}

	client, err := rtClient.NewContext("client", "m2")
	if err != nil {
		t.Fatal(err)
	}
	gp := client.NewGlobalPtr(got)
	out, err := gp.Invoke("echo", []byte("across processes"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "across processes" {
		t.Fatalf("got %q", out)
	}
}

func TestGlueFactoryBadData(t *testing.T) {
	pool := core.NewProtoPool()
	Install(pool)
	f, ok := pool.Lookup(core.ProtoGlue)
	if !ok {
		t.Fatal("glue not installed")
	}
	bad := core.ProtoEntry{ID: core.ProtoGlue, Data: []byte{1, 2}}
	if f.Applicable(bad, locA1, locB1) {
		t.Fatal("garbage proto-data applicable")
	}
	if _, err := f.New(bad, &core.ObjectRef{}, nil); err == nil {
		t.Fatal("garbage proto-data instantiated")
	}
}

func TestGlueDynamicCapabilityChange(t *testing.T) {
	// "Capabilities can be changed dynamically": the server re-issues
	// the glue entry under the same tag with a different capability set;
	// clients that refresh their reference see the new behaviour.
	rt := world(t)
	server, s := echoServer(t, rt, "server", "m1")
	client, _ := rt.NewContext("client", "m2")

	base, _ := server.EntryStream()
	glueA, _ := GlueEntry(server, "dyn", base, NewQuota(1, time.Time{}))
	refA := server.NewRef(s, glueA)
	gp := client.NewGlobalPtr(refA)
	if _, err := gp.Invoke("echo", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := gp.Invoke("echo", nil); err == nil {
		t.Fatal("quota should be spent")
	}

	// Server upgrades the client: new glue with a bigger quota.
	glueB, _ := GlueEntry(server, "dyn", base, NewQuota(100, time.Time{}))
	gp.SetRef(server.NewRef(s, glueB))
	for i := 0; i < 3; i++ {
		if _, err := gp.Invoke("echo", nil); err != nil {
			t.Fatalf("after upgrade, call %d: %v", i, err)
		}
	}
}

func TestGlueOneWayPost(t *testing.T) {
	// One-way calls flow through the capability chain too: the quota is
	// charged server-side even though no reply travels back.
	rt := world(t)
	server, err := rt.NewContext("server", "m1")
	if err != nil {
		t.Fatal(err)
	}
	if err := server.BindSim(0); err != nil {
		t.Fatal(err)
	}
	hits := make(chan struct{}, 8)
	s, err := server.Export("Sink", nil, map[string]core.Method{
		"notify": func(args []byte) ([]byte, error) { hits <- struct{}{}; return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := server.EntryStream()
	glueE, err := GlueEntry(server, "oneway-metered", base,
		NewQuota(2, time.Time{}), MustNewEncrypt(key32(), ScopeAlways))
	if err != nil {
		t.Fatal(err)
	}
	client, _ := rt.NewContext("client", "m2")
	gp := client.NewGlobalPtr(server.NewRef(s, glueE))

	for i := 0; i < 2; i++ {
		if err := gp.Post("notify", []byte("ping")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		select {
		case <-hits:
		case <-clock.After(clock.Real{}, 2*time.Second):
			t.Fatalf("one-way %d never arrived", i)
		}
	}
	// Third post is rejected client-side by the quota (fail fast).
	err = gp.Post("notify", []byte("ping"))
	var f *wire.Fault
	if !errors.As(err, &f) || f.Code != wire.FaultQuota {
		t.Fatalf("third post: %v", err)
	}
}

// watermarkCap is an application-defined capability kind: it stamps a
// deployment watermark onto requests and verifies it server-side —
// the "users can write their own capabilities" counterpart of custom
// protocols.
type watermarkCap struct{ mark string }

func (w *watermarkCap) Kind() string                         { return "x-watermark" }
func (w *watermarkCap) Applicable(_, _ netsim.Locality) bool { return true }
func (w *watermarkCap) Config() ([]byte, error)              { return []byte(w.mark), nil }
func (w *watermarkCap) Process(f *Frame, body []byte) ([]byte, []byte, error) {
	return body, []byte(w.mark), nil
}
func (w *watermarkCap) Unprocess(f *Frame, env, body []byte) ([]byte, error) {
	if string(env) != w.mark {
		return nil, wire.Faultf(wire.FaultCapability, "watermark %q, want %q", env, w.mark)
	}
	return body, nil
}

// The watermark kind is registered once per test binary: RegisterKind
// refuses a second registration, and -count=N reruns the test.
func init() {
	RegisterKind("x-watermark", func(config []byte) (Capability, error) {
		return &watermarkCap{mark: string(config)}, nil
	})
}

func TestCustomCapabilityKind(t *testing.T) {
	rt := world(t)
	server, s := echoServer(t, rt, "server", "m1")
	client, _ := rt.NewContext("client", "m2")
	base, _ := server.EntryStream()
	glueE, err := GlueEntry(server, "marked", base, &watermarkCap{mark: "deploy-7"})
	if err != nil {
		t.Fatal(err)
	}
	gp := client.NewGlobalPtr(server.NewRef(s, glueE))
	out, err := gp.Invoke("echo", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "payload" {
		t.Fatalf("got %q", out)
	}
}

// Property: any stack drawn from the built-in capabilities round-trips
// a request/reply pair through a Glue/GlueServer twin built from the
// serialized specs — the invariant behind "capabilities can be
// exchanged between processes".
func TestQuickRandomCapabilityStacks(t *testing.T) {
	key := key32()
	builders := []func() Capability{
		func() Capability { return MustNewEncrypt(key, ScopeAlways) },
		func() Capability { return MustNewAuth("p", []byte("s"), ScopeAlways) },
		func() Capability { return NewQuota(0, time.Time{}) },
		func() Capability { return MustNewCompress(6, 16, ScopeAlways) },
		func() Capability { return NewChecksum() },
		func() Capability { return NewTrace() },
		func() Capability { return MustNewRateLimit(1e9, 1e9) },
	}
	f := func(picks []byte, body []byte) bool {
		if len(picks) > 6 {
			picks = picks[:6]
		}
		caps := make([]Capability, len(picks))
		for i, p := range picks {
			caps[i] = builders[int(p)%len(builders)]()
		}
		specs, err := Specs(caps)
		if err != nil {
			return false
		}
		serverCaps, err := Rebuild(specs)
		if err != nil {
			return false
		}
		gs := NewGlueServer("q", serverCaps, clock.Real{})
		base := &localProto{handle: func(m *wire.Message) *wire.Message {
			got, err := gs.UnwrapRequest(m)
			if err != nil {
				return nil
			}
			if !bytes.Equal(got, body) {
				return nil
			}
			reply, err := gs.WrapReply(m, append([]byte("r:"), got...))
			if err != nil {
				return nil
			}
			return reply
		}}
		g := NewGlue("q", base, clock.Real{}, caps...)
		reply, err := g.Call(&wire.Message{Type: wire.TRequest, Object: "o", Method: "m", Body: body})
		if err != nil {
			return false
		}
		return bytes.Equal(reply.Body, append([]byte("r:"), body...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestDescribeEntry(t *testing.T) {
	rt := world(t)
	server, _ := echoServer(t, rt, "server", "m1")
	base, _ := server.EntryStream()
	glueE, err := GlueEntry(server, "sec", base,
		NewQuota(5, time.Time{}), MustNewEncrypt(key32(), ScopeAlways))
	if err != nil {
		t.Fatal(err)
	}
	got := DescribeEntry(glueE)
	want := `glue[quota, encrypt] over hpcx-tcp (tag "sec")`
	if got != want {
		t.Fatalf("%q want %q", got, want)
	}
	if DescribeEntry(base) != "hpcx-tcp" {
		t.Fatal("non-glue entry")
	}
	if DescribeEntry(core.ProtoEntry{ID: core.ProtoGlue, Data: []byte{9}}) != "glue[undecodable]" {
		t.Fatal("undecodable entry")
	}
}

// rejectingCap denies every request — a stand-in for an auth or
// rate-limit capability saying no after earlier chain members already
// charged.
type rejectingCap struct{}

func (rejectingCap) Kind() string                         { return "reject" }
func (rejectingCap) Applicable(_, _ netsim.Locality) bool { return true }
func (rejectingCap) Config() ([]byte, error)              { return nil, nil }
func (rejectingCap) Process(*Frame, []byte) ([]byte, []byte, error) {
	return nil, nil, errors.New("denied")
}
func (rejectingCap) Unprocess(*Frame, []byte, []byte) ([]byte, error) { return nil, nil }

func TestWrapRequestRefundsProcessedPrefix(t *testing.T) {
	// A chain where the quota charges and a later capability then denies:
	// the frame never leaves the client, so the quota's mirror charge
	// must be handed back. Without the prefix refund, repeated denials
	// would eat the whole budget without the server ever seeing a
	// request — the caprefund analyzer's loop-carry case.
	q := NewQuota(4, time.Time{})
	base := &localProto{handle: func(m *wire.Message) *wire.Message {
		t.Error("request reached the base protocol despite chain denial")
		return nil
	}}
	g := NewGlue("t", base, clock.Real{}, q, rejectingCap{})
	for i := 0; i < 3; i++ {
		if _, err := g.Call(&wire.Message{Type: wire.TRequest, Object: "o", Method: "m"}); err == nil {
			t.Fatal("want denial from the chain")
		}
	}
	if used := q.Used(); used != 0 {
		t.Fatalf("quota shows %d used after denied-only requests; processed prefix was not refunded", used)
	}
	// The refund must be a prefix refund, not a blanket one: a charge
	// that succeeded end-to-end stays charged.
	ok := NewGlue("t2", &localProto{handle: func(m *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TFault, Object: m.Object, Method: m.Method}
	}}, clock.Real{}, q)
	if _, err := ok.Call(&wire.Message{Type: wire.TRequest, Object: "o", Method: "m"}); err != nil {
		t.Fatal(err)
	}
	if used := q.Used(); used != 1 {
		t.Fatalf("quota shows %d used after one served request, want 1", used)
	}
}
