package migrate

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"openhpcxx/internal/capability"
	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/registry"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// counter is a migratable stateful servant.
type counter struct {
	mu sync.Mutex
	n  int64
}

func (c *counter) Snapshot() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := xdr.NewEncoder(8)
	e.PutInt64(c.n)
	return e.Bytes(), nil
}

func (c *counter) Restore(state []byte) error {
	d := xdr.NewDecoder(state)
	v, err := d.Int64()
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.n = v
	c.mu.Unlock()
	return nil
}

type addArgs struct{ Delta int64 }

func (a *addArgs) MarshalXDR(e *xdr.Encoder) error { e.PutInt64(a.Delta); return nil }
func (a *addArgs) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	a.Delta, err = d.Int64()
	return err
}

type valReply struct{ N int64 }

func (r *valReply) MarshalXDR(e *xdr.Encoder) error { e.PutInt64(r.N); return nil }
func (r *valReply) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	r.N, err = d.Int64()
	return err
}

const counterIface = "test.Counter"

func counterActivator() (any, map[string]core.Method) {
	c := &counter{}
	methods := map[string]core.Method{
		"add": core.Handler(func(a *addArgs) (*valReply, error) {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.n += a.Delta
			return &valReply{N: c.n}, nil
		}),
		"get": core.Handler(func(*core.Empty) (*valReply, error) {
			c.mu.Lock()
			defer c.mu.Unlock()
			return &valReply{N: c.n}, nil
		}),
	}
	return c, methods
}

func add(t *testing.T, gp *core.GlobalPtr, delta int64) int64 {
	t.Helper()
	r, err := core.Call[*addArgs, valReply](gp, "add", &addArgs{Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	return r.N
}

// world: 4 machines, 2 campuses, like the Figure 4 setup.
func world(t *testing.T) *core.Runtime {
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
	capability.Install(rt.DefaultPool())
	rt.RegisterIface(counterIface, counterActivator)
	t.Cleanup(rt.Close)
	return rt
}

func newCtx(t *testing.T, rt *core.Runtime, name, machine string) *core.Context {
	t.Helper()
	ctx, err := rt.NewContext(name, netsim.MachineID(machine))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.BindSim(0); err != nil {
		t.Fatal(err)
	}
	return ctx
}

func exportCounter(t *testing.T, ctx *core.Context) (*core.Servant, *core.ObjectRef) {
	t.Helper()
	impl, methods := counterActivator()
	s, err := ctx.Export(counterIface, impl, methods)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ctx.EntryStream()
	if err != nil {
		t.Fatal(err)
	}
	return s, ctx.NewRef(s, e)
}

func TestMoveLocalPreservesState(t *testing.T) {
	rt := world(t)
	src := newCtx(t, rt, "src", "m1")
	dst := newCtx(t, rt, "dst", "m2")
	client := newCtx(t, rt, "client", "m0")

	_, ref := exportCounter(t, src)
	gp := client.NewGlobalPtr(ref)
	if got := add(t, gp, 10); got != 10 {
		t.Fatalf("pre-move add: %d", got)
	}

	newRef, err := MoveLocal(src, ref, dst)
	if err != nil {
		t.Fatal(err)
	}
	if newRef.Epoch != ref.Epoch+1 {
		t.Fatalf("epoch %d, want %d", newRef.Epoch, ref.Epoch+1)
	}
	if newRef.Server.Machine != "m2" {
		t.Fatalf("server %v", newRef.Server)
	}

	// The stale GP chases the tombstone transparently and sees the
	// preserved state.
	if got := add(t, gp, 5); got != 15 {
		t.Fatalf("post-move add: %d", got)
	}
	if gp.Ref().Server.Machine != "m2" {
		t.Fatal("gp did not adopt new reference")
	}

	// The source no longer hosts the object.
	if _, ok := src.Servant(ref.Object); ok {
		t.Fatal("servant still at source")
	}
}

func TestMoveLocalGlueReanchored(t *testing.T) {
	rt := world(t)
	src := newCtx(t, rt, "src", "m1")
	dst := newCtx(t, rt, "dst", "m2")
	client := newCtx(t, rt, "client", "m3") // other campus: glue applicable

	impl, methods := counterActivator()
	s, err := src.Export(counterIface, impl, methods)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := src.EntryStream()
	glueE, err := capability.GlueEntry(src, "sec-counter", base,
		capability.MustNewEncrypt(make([]byte, 32), capability.ScopeCrossCampus),
		capability.NewQuota(100, time.Time{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ref := src.NewRef(s, glueE, base)

	gp := client.NewGlobalPtr(ref)
	if id, _ := gp.SelectedProtocol(); id != core.ProtoGlue {
		t.Fatalf("pre-move selection %s", id)
	}
	add(t, gp, 3)

	newRef, err := MoveLocal(src, ref, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Table shape preserved: glue first, plain stream second.
	if newRef.Protocols[0].ID != core.ProtoGlue || newRef.Protocols[1].ID != core.ProtoStream {
		t.Fatalf("table %v", newRef.ProtoIDs())
	}
	// The glue still works from the new home.
	if got := add(t, gp, 4); got != 7 {
		t.Fatalf("post-move: %d", got)
	}
	if id, _ := gp.SelectedProtocol(); id != core.ProtoGlue {
		t.Fatalf("post-move selection %s", id)
	}
}

func TestReanchorDropsUnsupported(t *testing.T) {
	rt := world(t)
	src := newCtx(t, rt, "src", "m1")
	if err := src.BindNexusSim(0); err != nil {
		t.Fatal(err)
	}
	dst := newCtx(t, rt, "dst", "m2") // stream only

	strE, _ := src.EntryStream()
	nexE, _ := src.EntryNexus()
	table, err := ReanchorTable(dst, []core.ProtoEntry{nexE, strE})
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != 1 || table[0].ID != core.ProtoStream {
		t.Fatalf("table %v", table)
	}

	// A destination with no overlap at all errors out.
	bare, err := rt.NewContext("bare", "m3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReanchorTable(bare, []core.ProtoEntry{nexE}); err == nil {
		t.Fatal("empty table accepted")
	}

	// Unknown protocol ids are dropped silently.
	table, err = ReanchorTable(dst, []core.ProtoEntry{{ID: "martian"}, strE})
	if err != nil || len(table) != 1 {
		t.Fatalf("unknown id: %v %v", table, err)
	}
}

func TestMoveLocalAbortOnActivatorFailure(t *testing.T) {
	rt := world(t)
	src := newCtx(t, rt, "src", "m1")
	dst := newCtx(t, rt, "dst", "m2")
	client := newCtx(t, rt, "client", "m0")

	impl, methods := counterActivator()
	s, err := src.Export("unregistered.Iface", impl, methods)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := src.EntryStream()
	ref := src.NewRef(s, e)

	if _, err := MoveLocal(src, ref, dst); err == nil {
		t.Fatal("move with unregistered iface succeeded")
	}
	// The object must still be served at the source after the abort.
	gp := client.NewGlobalPtr(ref)
	if got := add(t, gp, 2); got != 2 {
		t.Fatalf("after abort: %d", got)
	}
}

func TestMoveRemoteAcrossRuntimes(t *testing.T) {
	n := netsim.New()
	n.AddLAN("lan1", "c1", netsim.ProfileUnshaped)
	n.MustAddMachine("m1", "lan1")
	n.MustAddMachine("m2", "lan1")
	n.MustAddMachine("m9", "lan1")

	rtA := core.NewRuntime(n, "procA")
	rtA.RegisterIface(counterIface, counterActivator)
	defer rtA.Close()
	rtB := core.NewRuntime(n, "procB")
	rtB.RegisterIface(counterIface, counterActivator)
	defer rtB.Close()
	rtC := core.NewRuntime(n, "procC")
	defer rtC.Close()

	src, err := rtA.NewContext("src", "m1")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.BindSim(0); err != nil {
		t.Fatal(err)
	}
	dst, err := rtB.NewContext("dst", "m2")
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.BindSim(0); err != nil {
		t.Fatal(err)
	}
	ctlRef, err := EnableTarget(dst)
	if err != nil {
		t.Fatal(err)
	}

	impl, methods := counterActivator()
	s, _ := src.Export(counterIface, impl, methods)
	e, _ := src.EntryStream()
	ref := src.NewRef(s, e)

	client, err := rtC.NewContext("client", "m9")
	if err != nil {
		t.Fatal(err)
	}
	gp := client.NewGlobalPtr(ref)
	add(t, gp, 8)

	newRef, err := Move(src, ref, ctlRef)
	if err != nil {
		t.Fatal(err)
	}
	if newRef.Server.Process != "procB" {
		t.Fatalf("moved to %v", newRef.Server)
	}
	if got := add(t, gp, 1); got != 9 {
		t.Fatalf("post-remote-move: %d", got)
	}

	// MoveLocal across runtimes is rejected.
	if _, err := MoveLocal(dst, newRef, src); err == nil {
		t.Fatal("cross-runtime MoveLocal accepted")
	}
}

func TestMoveNoSuchObject(t *testing.T) {
	rt := world(t)
	src := newCtx(t, rt, "src", "m1")
	dst := newCtx(t, rt, "dst", "m2")
	ref := &core.ObjectRef{Object: "src/ghost", Iface: counterIface}
	if _, err := MoveLocal(src, ref, dst); err == nil {
		t.Fatal("moving a ghost succeeded")
	}
}

func TestMoveNotMigratable(t *testing.T) {
	rt := world(t)
	src := newCtx(t, rt, "src", "m1")
	dst := newCtx(t, rt, "dst", "m2")
	s, err := src.Export(counterIface, struct{}{}, map[string]core.Method{})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := src.EntryStream()
	ref := src.NewRef(s, e)
	if _, err := MoveLocal(src, ref, dst); err == nil {
		t.Fatal("non-migratable impl moved")
	}
}

func TestMoveAndPublish(t *testing.T) {
	rt := world(t)
	regCtx := newCtx(t, rt, "reg", "m0")
	if _, _, err := registry.Serve(regCtx); err != nil {
		t.Fatal(err)
	}
	regAddr, _ := regCtx.Binding(core.ProtoStream)

	src := newCtx(t, rt, "src", "m1")
	dst := newCtx(t, rt, "dst", "m2")
	client := newCtx(t, rt, "client", "m3")

	_, ref := exportCounter(t, src)
	reg := registry.NewClient(src, registry.RefAt(regAddr))
	if err := reg.Bind("svc/counter", ref); err != nil {
		t.Fatal(err)
	}

	newRef, err := MoveAndPublish(src, ref, dst, reg, "svc/counter")
	if err != nil {
		t.Fatal(err)
	}
	clientReg := registry.NewClient(client, registry.RefAt(regAddr))
	got, err := clientReg.Lookup("svc/counter")
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != newRef.Epoch || got.Server.Machine != "m2" {
		t.Fatalf("registry has %+v", got)
	}
	gp := client.NewGlobalPtr(got)
	if n := add(t, gp, 1); n != 1 {
		t.Fatalf("resolved counter: %d", n)
	}
}

func TestConcurrentInvokesDuringMove(t *testing.T) {
	rt := world(t)
	src := newCtx(t, rt, "src", "m1")
	dst := newCtx(t, rt, "dst", "m2")

	_, ref := exportCounter(t, src)

	const workers = 8
	const callsEach = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers*callsEach)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cliCtx, err := rt.NewContext("cli-"+string(rune('a'+w)), "m0")
			if err != nil {
				errs <- err
				return
			}
			gp := cliCtx.NewGlobalPtr(ref)
			for i := 0; i < callsEach; i++ {
				if _, err := core.Call[*addArgs, valReply](gp, "add", &addArgs{Delta: 1}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Migrate mid-storm.
	clock.Sleep(clock.Real{}, 2*time.Millisecond)
	newRef, err := MoveLocal(src, ref, dst)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every one of the workers*callsEach increments must have landed
	// exactly once (no double execution across the move).
	checker, _ := rt.NewContext("checker", "m0")
	gp := checker.NewGlobalPtr(newRef)
	r, err := core.Call[*core.Empty, valReply](gp, "get", &core.Empty{})
	if err != nil {
		t.Fatal(err)
	}
	if r.N != workers*callsEach {
		t.Fatalf("count %d, want %d", r.N, workers*callsEach)
	}
}

func TestMoveBackHomeClearsTombstone(t *testing.T) {
	rt := world(t)
	a := newCtx(t, rt, "a", "m1")
	b := newCtx(t, rt, "b", "m2")
	client := newCtx(t, rt, "client", "m0")

	_, ref := exportCounter(t, a)
	gp := client.NewGlobalPtr(ref)
	add(t, gp, 1)

	ref2, err := MoveLocal(a, ref, b)
	if err != nil {
		t.Fatal(err)
	}
	ref3, err := MoveLocal(b, ref2, a)
	if err != nil {
		t.Fatal(err)
	}
	if ref3.Epoch != ref.Epoch+2 {
		t.Fatalf("epoch %d", ref3.Epoch)
	}
	// The GP (still pointing at epoch 0's table) chases through both
	// tombstones back home.
	if got := add(t, gp, 1); got != 2 {
		t.Fatalf("after round trip: %d", got)
	}
}

func TestStaleCallerGetsMovedFault(t *testing.T) {
	rt := world(t)
	src := newCtx(t, rt, "src", "m1")
	dst := newCtx(t, rt, "dst", "m2")
	_, ref := exportCounter(t, src)
	if _, err := MoveLocal(src, ref, dst); err != nil {
		t.Fatal(err)
	}
	// Raw dispatch at the old home returns FaultMoved with the new ref.
	reply := srcDispatch(src, ref)
	if reply == nil || reply.Type != wire.TFault {
		t.Fatal("want fault reply")
	}
	err := wire.DecodeFault(reply.Body)
	var f *wire.Fault
	if !errors.As(err, &f) || f.Code != wire.FaultMoved {
		t.Fatalf("fault %v", err)
	}
	fwd, err := core.DecodeRef(f.Data)
	if err != nil {
		t.Fatal(err)
	}
	if fwd.Server.Machine != "m2" {
		t.Fatalf("forward ref %v", fwd.Server)
	}
}

// srcDispatch sends a raw request through the source context's public
// stream binding (not internals) and returns the reply frame.
func srcDispatch(src *core.Context, ref *core.ObjectRef) *wire.Message {
	addr, _ := src.Binding(core.ProtoStream)
	gpHost := src // reuse src as the dialer host; any context would do
	p := core.StreamEntryAt(addr)
	f, _ := gpHost.Pool().Lookup(core.ProtoStream)
	proto, _ := f.New(p, ref, gpHost)
	reply, _ := proto.Call(&wire.Message{Type: wire.TRequest, Object: string(ref.Object), Method: "get"})
	return reply
}

func TestRegisterReanchorCustomProtocol(t *testing.T) {
	rt := world(t)
	src := newCtx(t, rt, "src-custom", "m1")
	dst := newCtx(t, rt, "dst-custom", "m2")

	const customID core.ProtoID = "test-custom-proto"
	RegisterReanchor(customID, func(d *core.Context, old core.ProtoEntry) (core.ProtoEntry, bool, error) {
		// Re-anchor by stamping the destination's name into the data.
		return core.ProtoEntry{ID: customID, Data: []byte(d.Name())}, true, nil
	})

	strE, _ := src.EntryStream()
	table, err := ReanchorTable(dst, []core.ProtoEntry{
		{ID: customID, Data: []byte("src-custom")},
		strE,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != 2 {
		t.Fatalf("table %v", table)
	}
	if table[0].ID != customID || string(table[0].Data) != "dst-custom" {
		t.Fatalf("custom entry not re-anchored: %+v", table[0])
	}
}

// Chaos test: clients hammer a counter while it tours contexts several
// times; every increment must land exactly once.
func TestChaoticMigrationUnderLoad(t *testing.T) {
	rt := world(t)
	hosts := []*core.Context{
		newCtx(t, rt, "h0", "m1"),
		newCtx(t, rt, "h1", "m2"),
		newCtx(t, rt, "h2", "m3"),
	}
	_, ref := exportCounter(t, hosts[0])

	const workers = 6
	const callsEach = 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx, err := rt.NewContext(fmt.Sprintf("chaos-cli-%d", w), "m0")
			if err != nil {
				errs <- err
				return
			}
			gp := ctx.NewGlobalPtr(ref)
			for i := 0; i < callsEach; i++ {
				if _, err := core.Call[*addArgs, valReply](gp, "add", &addArgs{Delta: 1}); err != nil {
					errs <- fmt.Errorf("worker %d call %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}

	// Meanwhile, hop the object around 6 times.
	cur := ref
	at := 0
	for hop := 0; hop < 6; hop++ {
		clock.Sleep(clock.Real{}, 3*time.Millisecond)
		next := (at + 1) % len(hosts)
		moved, err := MoveLocal(hosts[at], cur, hosts[next])
		if err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		cur, at = moved, next
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	checker, _ := rt.NewContext("chaos-checker", "m0")
	gp := checker.NewGlobalPtr(cur)
	r, err := core.Call[*core.Empty, valReply](gp, "get", &core.Empty{})
	if err != nil {
		t.Fatal(err)
	}
	if r.N != workers*callsEach {
		t.Fatalf("count %d, want %d (lost or duplicated updates)", r.N, workers*callsEach)
	}
	if cur.Epoch != 6 {
		t.Fatalf("epoch %d", cur.Epoch)
	}
}

// TestEvacuateStaleCallerChasesInOneInvocation: after Evacuate, a global
// pointer still holding the source's reference reaches the object at its
// new home in one invocation — the draining source answers with its
// tombstone, not with a refusal — whether the table is a stream or an
// shm one.
func TestEvacuateStaleCallerChasesInOneInvocation(t *testing.T) {
	for _, tc := range []struct {
		name     string
		bind     func(*core.Context) error
		entry    func(*core.Context) (core.ProtoEntry, error)
		src, dst string
	}{
		{"stream", func(c *core.Context) error { return c.BindSim(0) }, (*core.Context).EntryStream, "m1", "m2"},
		{"shm", (*core.Context).BindSHM, (*core.Context).EntrySHM, "m0", "m0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := world(t)
			ctxOn := func(name, machine string) *core.Context {
				ctx, err := rt.NewContext(name, netsim.MachineID(machine))
				if err != nil {
					t.Fatal(err)
				}
				if err := tc.bind(ctx); err != nil {
					t.Fatal(err)
				}
				return ctx
			}
			src, dst, client := ctxOn("src", tc.src), ctxOn("dst", tc.dst), ctxOn("client", "m0")
			impl, methods := counterActivator()
			s, err := src.Export(counterIface, impl, methods)
			if err != nil {
				t.Fatal(err)
			}
			e, err := tc.entry(src)
			if err != nil {
				t.Fatal(err)
			}
			gp := client.NewGlobalPtr(src.NewRef(s, e))
			add(t, gp, 1)

			if _, err := Evacuate(src, dst, gp.Ref()); err != nil {
				t.Fatal(err)
			}
			before := dst.Runtime().Metrics().Counter("rpc.retry.attempts").Value()
			if got := add(t, gp, 1); got != 2 {
				t.Fatalf("after evacuation: %d, want 2", got)
			}
			if gp.Ref().Server.Machine != netsim.MachineID(tc.dst) || gp.Ref().Epoch != 1 {
				t.Fatalf("gp holds %+v, want the evacuated reference", gp.Ref().Server)
			}
			if n := dst.Runtime().Metrics().Counter("rpc.retry.attempts").Value(); n != before {
				t.Fatalf("%d budget-charged retries, want none (a chase is free)", n-before)
			}
		})
	}
}
