package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// testWorld builds a network with two machines on one LAN and one on a
// second LAN, plus a runtime.
func testWorld(t *testing.T) (*netsim.Network, *Runtime) {
	t.Helper()
	n := netsim.New()
	n.AddLAN("lanA", "campus1", netsim.ProfileUnshaped)
	n.AddLAN("lanB", "campus1", netsim.ProfileUnshaped)
	n.CampusLink = netsim.ProfileUnshaped
	n.WANLink = netsim.ProfileUnshaped
	n.MustAddMachine("mA", "lanA")
	n.MustAddMachine("mB", "lanA")
	n.MustAddMachine("mC", "lanB")
	rt := NewRuntime(n, "proc1")
	t.Cleanup(rt.Close)
	return n, rt
}

func echoMethods() map[string]Method {
	return map[string]Method{
		"echo":  func(args []byte) ([]byte, error) { return args, nil },
		"upper": func(args []byte) ([]byte, error) { return bytes.ToUpper(args), nil },
		"fail":  func(args []byte) ([]byte, error) { return nil, wire.Faultf(wire.FaultBadRequest, "nope") },
		"panic": func(args []byte) ([]byte, error) { panic("kaboom") },
	}
}

// exportEcho exports an echo servant on a context bound over the
// simulated network and returns the servant plus a stream-only ref.
func exportEcho(t *testing.T, ctx *Context) (*Servant, *ObjectRef) {
	t.Helper()
	if _, ok := ctx.Binding(ProtoStream); !ok {
		if err := ctx.BindSim(0); err != nil {
			t.Fatal(err)
		}
	}
	s, err := ctx.Export("Echo", nil, echoMethods())
	if err != nil {
		t.Fatal(err)
	}
	entry, err := ctx.EntryStream()
	if err != nil {
		t.Fatal(err)
	}
	return s, ctx.NewRef(s, entry)
}

func TestRefRoundTrip(t *testing.T) {
	in := &ObjectRef{
		Object: "ctx/obj-1",
		Iface:  "Echo",
		Epoch:  7,
		Server: netsim.Locality{Machine: "m1", LAN: "l1", Campus: "c1", Process: "p"},
		Protocols: []ProtoEntry{
			{ID: ProtoSHM, Data: []byte("a")},
			{ID: ProtoStream, Data: []byte("bb")},
		},
	}
	b, err := EncodeRef(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRef(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v want %+v", out, in)
	}
}

func TestQuickRefRoundTrip(t *testing.T) {
	f := func(obj, iface string, epoch uint64, m, lan, campus, proc string, protoIDs []string) bool {
		in := &ObjectRef{
			Object: ObjectID(obj), Iface: iface, Epoch: epoch,
			Server: netsim.Locality{Machine: netsim.MachineID(m), LAN: netsim.LANID(lan), Campus: netsim.CampusID(campus), Process: proc},
		}
		for i, id := range protoIDs {
			if i == 8 {
				break
			}
			in.Protocols = append(in.Protocols, ProtoEntry{ID: ProtoID(id), Data: []byte(id)})
		}
		b, err := EncodeRef(in)
		if err != nil {
			return false
		}
		out, err := DecodeRef(b)
		if err != nil {
			return false
		}
		if len(in.Protocols) == 0 {
			in.Protocols = nil
		}
		if len(out.Protocols) == 0 {
			out.Protocols = nil
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRefCloneIndependence(t *testing.T) {
	r := &ObjectRef{Object: "o", Protocols: []ProtoEntry{{ID: "x", Data: []byte{1}}}}
	c := r.Clone()
	c.Protocols[0].Data[0] = 9
	c.Protocols[0].ID = "y"
	if r.Protocols[0].Data[0] != 1 || r.Protocols[0].ID != "x" {
		t.Fatal("clone shares storage with original")
	}
}

type fakeFactory struct {
	id         ProtoID
	applicable bool
}

func (f fakeFactory) ID() ProtoID { return f.id }
func (f fakeFactory) Applicable(ProtoEntry, netsim.Locality, netsim.Locality) bool {
	return f.applicable
}
func (f fakeFactory) New(ProtoEntry, *ObjectRef, *Context) (Protocol, error) { return nil, nil }

func TestPoolRegisterPreferRemove(t *testing.T) {
	p := NewProtoPool()
	p.Register(fakeFactory{id: "a", applicable: true})
	p.Register(fakeFactory{id: "b", applicable: true})
	p.Register(fakeFactory{id: "c", applicable: true})
	if got := p.IDs(); !reflect.DeepEqual(got, []ProtoID{"a", "b", "c"}) {
		t.Fatalf("order %v", got)
	}
	p.Prefer("c", "b")
	if got := p.IDs(); !reflect.DeepEqual(got, []ProtoID{"c", "b", "a"}) {
		t.Fatalf("after prefer: %v", got)
	}
	p.Remove("b")
	if got := p.IDs(); !reflect.DeepEqual(got, []ProtoID{"c", "a"}) {
		t.Fatalf("after remove: %v", got)
	}
	if _, ok := p.Lookup("b"); ok {
		t.Fatal("b still present")
	}
	// Removing a missing id is a no-op.
	p.Remove("zz")
	// Preferring unknown ids is ignored.
	p.Prefer("zz", "a")
	if got := p.IDs(); !reflect.DeepEqual(got, []ProtoID{"a", "c"}) {
		t.Fatalf("after prefer unknown: %v", got)
	}
}

func TestPoolCloneIsolation(t *testing.T) {
	p := NewProtoPool()
	p.Register(fakeFactory{id: "a", applicable: true})
	c := p.Clone()
	c.Register(fakeFactory{id: "b", applicable: true})
	c.Prefer("b")
	if len(p.IDs()) != 1 {
		t.Fatal("clone mutated parent")
	}
	if got := c.IDs(); !reflect.DeepEqual(got, []ProtoID{"b", "a"}) {
		t.Fatalf("clone order %v", got)
	}
}

func TestSelectRefOrder(t *testing.T) {
	p := NewProtoPool()
	p.Register(fakeFactory{id: "slow", applicable: true})
	p.Register(fakeFactory{id: "fast", applicable: true})
	p.Register(fakeFactory{id: "never", applicable: false})
	ref := &ObjectRef{Object: "o", Protocols: []ProtoEntry{
		{ID: "never"}, {ID: "fast"}, {ID: "slow"},
	}}
	f, idx, err := p.Select(ref, netsim.Locality{})
	if err != nil {
		t.Fatal(err)
	}
	// "never" is first in the table but not applicable; "fast" is next.
	if f.ID() != "fast" || idx != 1 {
		t.Fatalf("selected %s@%d", f.ID(), idx)
	}
}

func TestSelectPoolOrder(t *testing.T) {
	p := NewProtoPool()
	p.Register(fakeFactory{id: "slow", applicable: true})
	p.Register(fakeFactory{id: "fast", applicable: true})
	p.SetSelectionOrder(PoolOrder)
	ref := &ObjectRef{Object: "o", Protocols: []ProtoEntry{
		{ID: "fast"}, {ID: "slow"},
	}}
	// Pool prefers slow (registered first), so PoolOrder picks it even
	// though the table prefers fast.
	f, idx, err := p.Select(ref, netsim.Locality{})
	if err != nil {
		t.Fatal(err)
	}
	if f.ID() != "slow" || idx != 1 {
		t.Fatalf("selected %s@%d", f.ID(), idx)
	}
}

func TestSelectNoMatch(t *testing.T) {
	p := NewProtoPool()
	p.Register(fakeFactory{id: "a", applicable: false})
	ref := &ObjectRef{Object: "o", Protocols: []ProtoEntry{{ID: "a"}, {ID: "unknown"}}}
	if _, _, err := p.Select(ref, netsim.Locality{}); !errors.Is(err, ErrNoProtocol) {
		t.Fatalf("want ErrNoProtocol, got %v", err)
	}
}

// TestSelectRacesRemove: selection reads the pool under one lock, so a
// factory removed mid-selection is walked whole or not at all, never as
// a nil factory, in either order.
func TestSelectRacesRemove(t *testing.T) {
	n := 200000
	if raceEnabled {
		n = 20000
	}
	for _, order := range []SelectionOrder{RefOrder, PoolOrder} {
		p := NewProtoPool()
		p.Register(fakeFactory{id: "a", applicable: true})
		p.Register(fakeFactory{id: "b", applicable: true})
		p.SetSelectionOrder(order)
		ref := &ObjectRef{Object: "o", Protocols: []ProtoEntry{{ID: "a"}, {ID: "b"}}}
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				p.Remove("a")
				p.Register(fakeFactory{id: "a", applicable: true})
			}
		}()
		for i := 0; i < n; i++ {
			if f, idx, err := p.Select(ref, netsim.Locality{}); err != nil || f.ID() != ref.Protocols[idx].ID {
				close(stop)
				<-done
				t.Fatalf("order %d: select %d: %v, %d, %v", order, i, f, idx, err)
			}
		}
		close(stop)
		<-done
	}
}

func TestInvokeOverStream(t *testing.T) {
	_, rt := testWorld(t)
	server, err := rt.NewContext("server", "mA")
	if err != nil {
		t.Fatal(err)
	}
	client, err := rt.NewContext("client", "mB")
	if err != nil {
		t.Fatal(err)
	}
	_, ref := exportEcho(t, server)
	gp := client.NewGlobalPtr(ref)
	out, err := gp.Invoke("upper", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "HELLO" {
		t.Fatalf("got %q", out)
	}
	if id, _ := gp.SelectedProtocol(); id != ProtoStream {
		t.Fatalf("selected %s", id)
	}
}

func TestInvokeOverNexus(t *testing.T) {
	_, rt := testWorld(t)
	server, _ := rt.NewContext("server", "mA")
	client, _ := rt.NewContext("client", "mB")
	if err := server.BindNexusSim(0); err != nil {
		t.Fatal(err)
	}
	s, err := server.Export("Echo", nil, echoMethods())
	if err != nil {
		t.Fatal(err)
	}
	entry, err := server.EntryNexus()
	if err != nil {
		t.Fatal(err)
	}
	gp := client.NewGlobalPtr(server.NewRef(s, entry))
	out, err := gp.Invoke("echo", []byte("via nexus"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "via nexus" {
		t.Fatalf("got %q", out)
	}
	if id, _ := gp.SelectedProtocol(); id != ProtoNexus {
		t.Fatalf("selected %s", id)
	}
}

func TestSHMSelectedSameProcess(t *testing.T) {
	_, rt := testWorld(t)
	server, _ := rt.NewContext("server", "mA")
	clientSame, _ := rt.NewContext("client-same", "mA")
	clientFar, _ := rt.NewContext("client-far", "mB")

	if err := server.BindSHM(); err != nil {
		t.Fatal(err)
	}
	if err := server.BindSim(0); err != nil {
		t.Fatal(err)
	}
	s, _ := server.Export("Echo", nil, echoMethods())
	shmE, _ := server.EntrySHM()
	strE, _ := server.EntryStream()
	ref := server.NewRef(s, shmE, strE) // shm preferred

	gpSame := clientSame.NewGlobalPtr(ref)
	if id, err := gpSame.SelectedProtocol(); err != nil || id != ProtoSHM {
		t.Fatalf("same machine selected %s, %v", id, err)
	}
	if out, err := gpSame.Invoke("echo", []byte("x")); err != nil || string(out) != "x" {
		t.Fatalf("shm invoke: %q %v", out, err)
	}

	gpFar := clientFar.NewGlobalPtr(ref)
	if id, err := gpFar.SelectedProtocol(); err != nil || id != ProtoStream {
		t.Fatalf("cross machine selected %s, %v", id, err)
	}
	if out, err := gpFar.Invoke("echo", []byte("y")); err != nil || string(out) != "y" {
		t.Fatalf("stream invoke: %q %v", out, err)
	}
}

func TestFaults(t *testing.T) {
	_, rt := testWorld(t)
	server, _ := rt.NewContext("server", "mA")
	client, _ := rt.NewContext("client", "mB")
	_, ref := exportEcho(t, server)
	gp := client.NewGlobalPtr(ref)

	_, err := gp.Invoke("nosuch", nil)
	var f *wire.Fault
	if !errors.As(err, &f) || f.Code != wire.FaultNoMethod {
		t.Fatalf("no-method: %v", err)
	}

	_, err = gp.Invoke("fail", nil)
	if !errors.As(err, &f) || f.Code != wire.FaultBadRequest {
		t.Fatalf("fail: %v", err)
	}

	_, err = gp.Invoke("panic", nil)
	if !errors.As(err, &f) || f.Code != wire.FaultInternal || !strings.Contains(f.Message, "kaboom") {
		t.Fatalf("panic: %v", err)
	}

	badRef := ref.Clone()
	badRef.Object = "server/ghost"
	gp2 := client.NewGlobalPtr(badRef)
	_, err = gp2.Invoke("echo", nil)
	if !errors.As(err, &f) || f.Code != wire.FaultNoObject {
		t.Fatalf("no-object: %v", err)
	}
}

func TestMovedRetry(t *testing.T) {
	_, rt := testWorld(t)
	ctx1, _ := rt.NewContext("ctx1", "mA")
	ctx2, _ := rt.NewContext("ctx2", "mB")
	client, _ := rt.NewContext("client", "mC")

	s1, ref1 := exportEcho(t, ctx1)
	gp := client.NewGlobalPtr(ref1)
	if _, err := gp.Invoke("echo", []byte("pre")); err != nil {
		t.Fatal(err)
	}

	// Manually "migrate" the object: re-export on ctx2 with epoch+1,
	// tombstone on ctx1.
	if err := ctx2.BindSim(0); err != nil {
		t.Fatal(err)
	}
	s2, err := ctx2.ExportAs(s1.ID(), s1.Iface(), nil, echoMethods(), s1.Epoch()+1)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := ctx2.EntryStream()
	newRef := ctx2.NewRef(s2, e2)
	ctx1.Unexport(s1.ID(), newRef)

	out, err := gp.Invoke("upper", []byte("moved"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "MOVED" {
		t.Fatalf("got %q", out)
	}
	if got := gp.Ref().Server.Machine; got != "mB" {
		t.Fatalf("gp ref server %s, want mB", got)
	}
	if gp.Ref().Epoch != s1.Epoch()+1 {
		t.Fatalf("epoch %d", gp.Ref().Epoch)
	}
}

func TestGlueUnknownTagFaults(t *testing.T) {
	_, rt := testWorld(t)
	server, _ := rt.NewContext("server", "mA")
	client, _ := rt.NewContext("client", "mB")
	_, ref := exportEcho(t, server)
	gp := client.NewGlobalPtr(ref)
	// Handcraft an enveloped request through the stream protocol by
	// invoking dispatch directly (the glue client lives in another
	// package; core must still reject unknown tags).
	_ = gp
	req := &wire.Message{
		Type:      wire.TRequest,
		Object:    string(ref.Object),
		Method:    "echo",
		Envelopes: []wire.Envelope{{ID: GlueEnvelopeID, Data: []byte("nope")}},
	}
	reply := server.dispatch(req)
	if reply.Type != wire.TFault {
		t.Fatal("want fault")
	}
	err := wire.DecodeFault(reply.Body)
	var f *wire.Fault
	if !errors.As(err, &f) || f.Code != wire.FaultCapability {
		t.Fatalf("got %v", err)
	}

	// Envelope chain not starting with the glue id is also rejected.
	req.Envelopes = []wire.Envelope{{ID: "encrypt"}}
	reply = server.dispatch(req)
	err = wire.DecodeFault(reply.Body)
	if !errors.As(err, &f) || f.Code != wire.FaultCapability {
		t.Fatalf("got %v", err)
	}
}

type sumReq struct {
	A, B int32
}

func (r *sumReq) MarshalXDR(e *xdr.Encoder) error {
	e.PutInt32(r.A)
	e.PutInt32(r.B)
	return nil
}

func (r *sumReq) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if r.A, err = d.Int32(); err != nil {
		return err
	}
	r.B, err = d.Int32()
	return err
}

type sumResp struct{ Sum int32 }

func (r *sumResp) MarshalXDR(e *xdr.Encoder) error {
	e.PutInt32(r.Sum)
	return nil
}

func (r *sumResp) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	r.Sum, err = d.Int32()
	return err
}

func TestTypedCallAndHandler(t *testing.T) {
	_, rt := testWorld(t)
	server, _ := rt.NewContext("server", "mA")
	client, _ := rt.NewContext("client", "mB")
	if err := server.BindSim(0); err != nil {
		t.Fatal(err)
	}
	methods := map[string]Method{
		"sum": Handler(func(r *sumReq) (*sumResp, error) {
			return &sumResp{Sum: r.A + r.B}, nil
		}),
		"exchange": Handler(func(r *Int32Slice) (*Int32Slice, error) {
			return r, nil
		}),
	}
	s, _ := server.Export("Math", nil, methods)
	entry, _ := server.EntryStream()
	gp := client.NewGlobalPtr(server.NewRef(s, entry))

	resp, err := Call[*sumReq, sumResp](gp, "sum", &sumReq{A: 20, B: 22})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Sum != 42 {
		t.Fatalf("sum %d", resp.Sum)
	}

	arr := &Int32Slice{V: []int32{1, -2, 3}}
	echo, err := Call[*Int32Slice, Int32Slice](gp, "exchange", arr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(echo.V, arr.V) {
		t.Fatalf("exchange %v", echo.V)
	}
}

func TestDuplicateExportAndContext(t *testing.T) {
	_, rt := testWorld(t)
	ctx, _ := rt.NewContext("dup", "mA")
	if _, err := rt.NewContext("dup", "mA"); err == nil {
		t.Fatal("duplicate context allowed")
	}
	if _, err := rt.NewContext("badmachine", "ghost"); err == nil {
		t.Fatal("unknown machine allowed")
	}
	s, _ := ctx.Export("I", nil, echoMethods())
	if _, err := ctx.ExportAs(s.ID(), "I", nil, echoMethods(), 0); err == nil {
		t.Fatal("duplicate object allowed")
	}
}

func TestEntryWithoutBinding(t *testing.T) {
	_, rt := testWorld(t)
	ctx, _ := rt.NewContext("nobind", "mA")
	if _, err := ctx.EntrySHM(); err == nil {
		t.Fatal("EntrySHM without binding")
	}
	if _, err := ctx.EntryStream(); err == nil {
		t.Fatal("EntryStream without binding")
	}
	if _, err := ctx.EntryNexus(); err == nil {
		t.Fatal("EntryNexus without binding")
	}
}

func TestUserControlPoolRemove(t *testing.T) {
	// A client can forbid a protocol by removing it from its pool; the
	// GP falls back to the next entry in the table.
	_, rt := testWorld(t)
	server, _ := rt.NewContext("server", "mA")
	client, _ := rt.NewContext("client", "mA")
	if err := server.BindSHM(); err != nil {
		t.Fatal(err)
	}
	if err := server.BindSim(0); err != nil {
		t.Fatal(err)
	}
	s, _ := server.Export("Echo", nil, echoMethods())
	shmE, _ := server.EntrySHM()
	strE, _ := server.EntryStream()
	ref := server.NewRef(s, shmE, strE)

	client.Pool().Remove(ProtoSHM)
	gp := client.NewGlobalPtr(ref)
	if id, err := gp.SelectedProtocol(); err != nil || id != ProtoStream {
		t.Fatalf("selected %s, %v", id, err)
	}
}

func TestSetRefInvalidates(t *testing.T) {
	_, rt := testWorld(t)
	server, _ := rt.NewContext("server", "mA")
	client, _ := rt.NewContext("client", "mB")
	_, ref := exportEcho(t, server)
	gp := client.NewGlobalPtr(ref)
	if _, err := gp.SelectedProtocol(); err != nil {
		t.Fatal(err)
	}
	// A ref with an empty table cannot select.
	empty := ref.Clone()
	empty.Protocols = nil
	gp.SetRef(empty)
	if _, err := gp.SelectedProtocol(); !errors.Is(err, ErrNoProtocol) {
		t.Fatalf("want ErrNoProtocol, got %v", err)
	}
}

func TestParseSimAddr(t *testing.T) {
	a, err := parseSimAddr("sim://m1:4000")
	if err != nil || a.Machine != "m1" || a.Port != 4000 {
		t.Fatalf("%v %v", a, err)
	}
	for _, bad := range []string{"sim://m1", "sim://m1:xx"} {
		if _, err := parseSimAddr(bad); err == nil {
			t.Errorf("parseSimAddr(%q) accepted", bad)
		}
	}
	ctx := &Context{}
	if _, err := ctx.dialAddr("bogus://x"); err == nil {
		t.Fatal("unsupported scheme accepted")
	}
}

func TestContextBindTCP(t *testing.T) {
	_, rt := testWorld(t)
	server, _ := rt.NewContext("server", "mA")
	client, _ := rt.NewContext("client", "mB")
	if err := server.BindTCP("127.0.0.1:0"); err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	s, _ := server.Export("Echo", nil, echoMethods())
	entry, err := server.EntryStream()
	if err != nil {
		t.Fatal(err)
	}
	gp := client.NewGlobalPtr(server.NewRef(s, entry))
	out, err := gp.Invoke("echo", []byte("tcp!"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "tcp!" {
		t.Fatalf("got %q", out)
	}
}

func TestMetricsAccounting(t *testing.T) {
	_, rt := testWorld(t)
	server, _ := rt.NewContext("server", "mA")
	client, _ := rt.NewContext("client", "mB")
	_, ref := exportEcho(t, server)
	gp := client.NewGlobalPtr(ref)

	for i := 0; i < 3; i++ {
		if _, err := gp.Invoke("echo", []byte("1234")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := gp.Invoke("nosuch", nil); err == nil {
		t.Fatal("want fault")
	}
	snap := rt.MetricsSnapshot()
	if got := protoCounter(snap, "rpc.calls", ProtoStream); got != 4 {
		t.Fatalf("calls %d", got)
	}
	if got := protoCounter(snap, "rpc.faults", ProtoStream); got != 1 {
		t.Fatalf("faults %d", got)
	}
	if got := protoCounter(snap, "rpc.req_bytes", ProtoStream); got != 12 {
		t.Fatalf("req_bytes %d", got)
	}
	if got := protoCounter(snap, "rpc.resp_bytes", ProtoStream); got != 12 {
		t.Fatalf("resp_bytes %d", got)
	}
	if got := snap.Counters["srv.requests"]; got != 4 {
		t.Fatalf("srv.requests %d", got)
	}
	if got := snap.Counters["srv.faults"]; got != 1 {
		t.Fatalf("srv.faults %d", got)
	}
	if count, sum := protoLatency(snap, ProtoStream); count != 4 || sum <= 0 {
		t.Fatalf("latency count=%d sum=%d", count, sum)
	}
}

func TestOneWayPost(t *testing.T) {
	_, rt := testWorld(t)
	server, _ := rt.NewContext("server", "mA")
	client, _ := rt.NewContext("client", "mB")

	hits := make(chan []byte, 16)
	if err := server.BindSim(0); err != nil {
		t.Fatal(err)
	}
	s, err := server.Export("Sink", nil, map[string]Method{
		"notify": func(args []byte) ([]byte, error) {
			hits <- append([]byte(nil), args...)
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := server.EntryStream()
	gp := client.NewGlobalPtr(server.NewRef(s, entry))

	if err := gp.Post("notify", []byte("fire-and-forget")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-hits:
		if string(got) != "fire-and-forget" {
			t.Fatalf("got %q", got)
		}
	case <-clock.After(clock.Real{}, 2*time.Second):
		t.Fatal("one-way request never arrived")
	}
	if got := protoCounter(rt.MetricsSnapshot(), "rpc.oneway", ProtoStream); got != 1 {
		t.Fatalf("oneway counter %d", got)
	}
	if waitCounter(rt, "srv.oneway", 1) != 1 {
		t.Fatal("server oneway counter")
	}
}

func TestOneWayPostOverNexus(t *testing.T) {
	_, rt := testWorld(t)
	server, _ := rt.NewContext("server", "mA")
	client, _ := rt.NewContext("client", "mB")
	if err := server.BindNexusSim(0); err != nil {
		t.Fatal(err)
	}
	hits := make(chan struct{}, 4)
	s, _ := server.Export("Sink", nil, map[string]Method{
		"notify": func(args []byte) ([]byte, error) { hits <- struct{}{}; return nil, nil },
	})
	entry, _ := server.EntryNexus()
	gp := client.NewGlobalPtr(server.NewRef(s, entry))
	if err := gp.Post("notify", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hits:
	case <-clock.After(clock.Real{}, 2*time.Second):
		t.Fatal("nexus one-way never arrived")
	}
}

func TestOneWayErrorsDiscarded(t *testing.T) {
	_, rt := testWorld(t)
	server, _ := rt.NewContext("server", "mA")
	client, _ := rt.NewContext("client", "mB")
	_, ref := exportEcho(t, server)
	gp := client.NewGlobalPtr(ref)
	// Posting to a missing method succeeds locally; the server counts a
	// one-way fault and sends nothing back.
	if err := gp.Post("nosuch", nil); err != nil {
		t.Fatal(err)
	}
	if waitCounter(rt, "srv.oneway_faults", 1) != 1 {
		t.Fatal("one-way fault not counted")
	}
}

// waitCounter polls a runtime counter until it reaches want or 2s pass,
// returning the final value (one-way delivery is asynchronous).
func waitCounter(rt *Runtime, name string, want uint64) uint64 {
	deadline := time.Now().Add(2 * time.Second)
	for {
		v := rt.Metrics().Counter(name).Value()
		if v >= want || time.Now().After(deadline) {
			return v
		}
		clock.Sleep(clock.Real{}, time.Millisecond)
	}
}

func TestEventLogRecordsAdaptivity(t *testing.T) {
	_, rt := testWorld(t)
	ctx1, _ := rt.NewContext("ctx1", "mA")
	ctx2, _ := rt.NewContext("ctx2", "mB")
	client, _ := rt.NewContext("client", "mC")

	s1, ref1 := exportEcho(t, ctx1)
	gp := client.NewGlobalPtr(ref1)
	if _, err := gp.Invoke("echo", nil); err != nil {
		t.Fatal(err)
	}

	// Simulate a move (as in TestMovedRetry).
	if err := ctx2.BindSim(0); err != nil {
		t.Fatal(err)
	}
	s2, err := ctx2.ExportAs(s1.ID(), s1.Iface(), nil, echoMethods(), s1.Epoch()+1)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := ctx2.EntryStream()
	newRef := ctx2.NewRef(s2, e2)
	ctx1.Unexport(s1.ID(), newRef)
	if _, err := gp.Invoke("echo", nil); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
	for _, ev := range rt.Events() {
		kinds[ev.Kind]++
		if ev.String() == "" {
			t.Fatal("empty event string")
		}
	}
	if kinds["select"] < 2 {
		t.Fatalf("select events: %d (events: %v)", kinds["select"], rt.Events())
	}
	if kinds["refresh"] != 1 {
		t.Fatalf("refresh events: %d", kinds["refresh"])
	}
	if kinds["move-in"] != 1 {
		t.Fatalf("move-in events: %d", kinds["move-in"])
	}
}

func TestEventLogRingWraps(t *testing.T) {
	l := newEventLog()
	for i := 0; i < eventLogCapacity+10; i++ {
		l.add(Event{Kind: "k", Detail: fmt.Sprintf("%d", i)})
	}
	evs := l.list()
	if len(evs) != eventLogCapacity {
		t.Fatalf("kept %d events", len(evs))
	}
	if evs[0].Detail != "10" || evs[len(evs)-1].Detail != fmt.Sprintf("%d", eventLogCapacity+9) {
		t.Fatalf("window %s..%s", evs[0].Detail, evs[len(evs)-1].Detail)
	}
}

func TestValueWrappers(t *testing.T) {
	sv := &StringValue{V: "hello"}
	b, err := xdr.Marshal(sv)
	if err != nil {
		t.Fatal(err)
	}
	var sv2 StringValue
	if err := xdr.Unmarshal(b, &sv2); err != nil || sv2.V != "hello" {
		t.Fatalf("%v %v", sv2, err)
	}

	fs := &Float64Slice{V: []float64{1.5, -2.5}}
	b, err = xdr.Marshal(fs)
	if err != nil {
		t.Fatal(err)
	}
	var fs2 Float64Slice
	if err := xdr.Unmarshal(b, &fs2); err != nil || !reflect.DeepEqual(fs2.V, fs.V) {
		t.Fatalf("%v %v", fs2, err)
	}

	em := &Empty{}
	b, err = xdr.Marshal(em)
	if err != nil || len(b) != 0 {
		t.Fatalf("Empty encoded to %d bytes, %v", len(b), err)
	}
	if err := xdr.Unmarshal(nil, &Empty{}); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeAccessors(t *testing.T) {
	n, rt := testWorld(t)
	if rt.Network() != n || rt.Process() != "proc1" || rt.SHM() == nil {
		t.Fatal("runtime accessors")
	}
	ctx, err := rt.NewContext("acc", "mA")
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Name() != "acc" || ctx.Runtime() != rt || ctx.Locality().Machine != "mA" {
		t.Fatal("context accessors")
	}
	got, ok := rt.Context("acc")
	if !ok || got != ctx {
		t.Fatal("Context lookup")
	}
	if _, ok := rt.Context("missing"); ok {
		t.Fatal("phantom context")
	}
	if _, _, err := rt.Activate("unregistered"); err == nil {
		t.Fatal("unregistered activate")
	}
	rt.RegisterIface("reg", func() (any, map[string]Method) { return 7, nil })
	impl, _, err := rt.Activate("reg")
	if err != nil || impl != 7 {
		t.Fatalf("activate: %v %v", impl, err)
	}
}

func TestBeginCommitAbortMove(t *testing.T) {
	_, rt := testWorld(t)
	ctx, _ := rt.NewContext("mv", "mA")
	s, ref := exportEcho(t, ctx)
	_ = ref
	// Echo servant impl is nil -> not Migratable -> BeginMove fails and
	// leaves the servant usable.
	if _, _, err := ctx.BeginMove(s.ID()); err == nil {
		t.Fatal("non-migratable snapshot succeeded")
	}
	if _, err := s.invoke("echo", []byte("x")); err != nil {
		t.Fatalf("servant dead after failed BeginMove: %v", err)
	}
	if _, _, err := ctx.BeginMove("mv/ghost"); err == nil {
		t.Fatal("BeginMove of ghost succeeded")
	}

	// A migratable servant goes through the full cycle.
	impl := &trivialMigratable{}
	s2, err := ctx.Export("M", impl, map[string]Method{})
	if err != nil {
		t.Fatal(err)
	}
	sv, state, err := ctx.BeginMove(s2.ID())
	if err != nil {
		t.Fatal(err)
	}
	if state != nil && len(state) != 0 {
		t.Fatalf("state %v", state)
	}
	ctx.AbortMove(sv)
	if _, ok := ctx.Servant(s2.ID()); !ok {
		t.Fatal("abort removed servant")
	}
	sv, _, err = ctx.BeginMove(s2.ID())
	if err != nil {
		t.Fatal(err)
	}
	fwd := &ObjectRef{Object: s2.ID(), Server: netsim.Locality{Machine: "mB"}}
	ctx.CommitMove(sv, fwd)
	if _, ok := ctx.Servant(s2.ID()); ok {
		t.Fatal("commit left servant exported")
	}
	if _, err := sv.invoke("any", nil); err == nil {
		t.Fatal("moved servant still invocable")
	}
}

type trivialMigratable struct{}

func (*trivialMigratable) Snapshot() ([]byte, error) { return nil, nil }
func (*trivialMigratable) Restore([]byte) error      { return nil }

func TestGlueRegistration(t *testing.T) {
	_, rt := testWorld(t)
	ctx, _ := rt.NewContext("g", "mA")
	if _, ok := ctx.glue([]byte("x")); ok {
		t.Fatal("phantom glue")
	}
	ctx.RegisterGlue("x", nil)
	if _, ok := ctx.glue([]byte("x")); !ok {
		t.Fatal("glue not registered")
	}
	ctx.UnregisterGlue("x")
	if _, ok := ctx.glue([]byte("x")); ok {
		t.Fatal("glue not removed")
	}
}

func TestGPObjectAccessor(t *testing.T) {
	_, rt := testWorld(t)
	server, _ := rt.NewContext("server", "mA")
	client, _ := rt.NewContext("client", "mB")
	_, ref := exportEcho(t, server)
	gp := client.NewGlobalPtr(ref)
	if gp.Object() != ref.Object {
		t.Fatalf("Object() = %s", gp.Object())
	}
}

// Property: RefOrder selection always returns the first table entry
// whose factory exists in the pool and is applicable — cross-checked
// against a brute-force scan.
func TestQuickSelectionFirstMatch(t *testing.T) {
	f := func(tableBits, poolBits, applicableBits uint8) bool {
		ids := []ProtoID{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}
		pool := NewProtoPool()
		applicable := map[ProtoID]bool{}
		for i, id := range ids {
			if poolBits&(1<<i) != 0 {
				a := applicableBits&(1<<i) != 0
				pool.Register(fakeFactory{id: id, applicable: a})
				applicable[id] = a
			}
		}
		ref := &ObjectRef{Object: "o"}
		for i, id := range ids {
			if tableBits&(1<<i) != 0 {
				ref.Protocols = append(ref.Protocols, ProtoEntry{ID: id})
			}
		}
		// Brute force.
		wantIdx := -1
		for i, e := range ref.Protocols {
			if _, ok := pool.Lookup(e.ID); ok && applicable[e.ID] {
				wantIdx = i
				break
			}
		}
		_, gotIdx, err := pool.Select(ref, netsim.Locality{})
		if wantIdx == -1 {
			return errors.Is(err, ErrNoProtocol)
		}
		return err == nil && gotIdx == wantIdx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestInvokeRecoversAfterPartitionHeals(t *testing.T) {
	n, rt := testWorld(t)
	server, _ := rt.NewContext("server", "mA")
	client, _ := rt.NewContext("client", "mB")
	_, ref := exportEcho(t, server)
	gp := client.NewGlobalPtr(ref)

	if _, err := gp.Invoke("echo", []byte("pre")); err != nil {
		t.Fatal(err)
	}

	// Sever the link and kill cached connections so new calls must dial.
	n.SetPartition("mB", "mA", true)
	client.muxes.Close()
	gp.Invalidate()
	if _, err := gp.Invoke("echo", []byte("cut")); err == nil {
		t.Fatal("call across partition succeeded")
	}

	// Heal: the GP retries through a fresh dial and recovers without any
	// caller intervention beyond the retry.
	n.SetPartition("mB", "mA", false)
	out, err := gp.Invoke("echo", []byte("healed"))
	if err != nil {
		t.Fatalf("after heal: %v", err)
	}
	if string(out) != "healed" {
		t.Fatalf("got %q", out)
	}
}

func TestContextObjectsAndBindings(t *testing.T) {
	_, rt := testWorld(t)
	ctx, _ := rt.NewContext("ops", "mA")
	if len(ctx.Objects()) != 0 {
		t.Fatal("phantom objects")
	}
	s1, _ := ctx.Export("A", nil, echoMethods())
	s2, _ := ctx.Export("B", nil, echoMethods())
	ids := ctx.Objects()
	if len(ids) != 2 || ids[0] != s1.ID() || ids[1] != s2.ID() {
		t.Fatalf("objects %v", ids)
	}
	if err := ctx.BindSim(0); err != nil {
		t.Fatal(err)
	}
	b := ctx.Bindings()
	if len(b) != 1 || b[ProtoStream] == "" {
		t.Fatalf("bindings %v", b)
	}
	// The returned map is a copy.
	b[ProtoStream] = "tampered"
	if got := ctx.Bindings()[ProtoStream]; got == "tampered" {
		t.Fatal("Bindings leaked internal map")
	}
}
