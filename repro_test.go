package openhpcxx_test

import (
	"errors"
	"testing"
	"time"

	"openhpcxx/internal/capability"
	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/loadbal"
	"openhpcxx/internal/migrate"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/proto/udprel"
	"openhpcxx/internal/registry"
	"openhpcxx/internal/testbed"
	"openhpcxx/internal/wire"
)

// TestFullStackScenario drives every subsystem in one deployment: a
// capability-protected service is published through the registry,
// accessed by clients on different LANs (different protocols selected),
// migrated by the load balancer, re-resolved, and metered — the paper's
// whole story in one test.
func TestFullStackScenario(t *testing.T) {
	n := netsim.New()
	n.AddLAN("lab", "campus", netsim.ProfileUnshaped)
	n.AddLAN("office", "campus", netsim.ProfileUnshaped)
	n.CampusLink = netsim.ProfileUnshaped
	n.MustAddMachine("lab-1", "lab")
	n.MustAddMachine("lab-2", "lab")
	n.MustAddMachine("desk", "office")

	rt := core.NewRuntime(n, "itest")
	capability.Install(rt.DefaultPool())
	rt.RegisterIface(testbed.ExchangeIface, testbed.ExchangeActivator)
	defer rt.Close()

	// Name service.
	regCtx, err := rt.NewContext("registry", "lab-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := regCtx.BindSim(7100); err != nil {
		t.Fatal(err)
	}
	if _, _, err := registry.Serve(regCtx); err != nil {
		t.Fatal(err)
	}
	regRef := registry.RefAt("sim://lab-1:7100")

	// Hosts.
	mkHost := func(name, machine string) *core.Context {
		ctx, err := rt.NewContext(name, netsim.MachineID(machine))
		if err != nil {
			t.Fatal(err)
		}
		for _, bind := range []func() error{ctx.BindSHM, func() error { return ctx.BindSim(0) }, func() error { return ctx.BindNexusSim(0) }} {
			if err := bind(); err != nil {
				t.Fatal(err)
			}
		}
		return ctx
	}
	host1 := mkHost("host1", "lab-1")
	host2 := mkHost("host2", "lab-2")

	// Service: auth for off-LAN clients, quota 100, nexus fallback.
	impl, methods := testbed.ExchangeActivator()
	servant, err := host1.Export(testbed.ExchangeIface, impl, methods)
	if err != nil {
		t.Fatal(err)
	}
	streamE, _ := host1.EntryStream()
	nexusE, _ := host1.EntryNexus()
	glueE, err := capability.GlueEntry(host1, "itest-auth", streamE,
		capability.MustNewAuth("desk", []byte("secret"), capability.ScopeCrossLAN),
		capability.NewQuota(100, time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	ref := host1.NewRef(servant, glueE, nexusE)

	pub := registry.NewClient(host1, regRef)
	if err := pub.Bind("itest/svc", ref); err != nil {
		t.Fatal(err)
	}

	// Clients resolve by name.
	labClient, _ := rt.NewContext("lab-client", "lab-2")
	deskClient, _ := rt.NewContext("desk-client", "desk")
	resolve := func(ctx *core.Context) *core.GlobalPtr {
		r, err := registry.NewClient(ctx, regRef).Lookup("itest/svc")
		if err != nil {
			t.Fatal(err)
		}
		return ctx.NewGlobalPtr(r)
	}
	gpLab := resolve(labClient)
	gpDesk := resolve(deskClient)

	callOK := func(gp *core.GlobalPtr) {
		t.Helper()
		arr := &core.Int32Slice{V: []int32{1, 2, 3}}
		out, err := core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", arr)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.V) != 3 {
			t.Fatalf("exchange %v", out.V)
		}
	}
	callOK(gpLab)
	callOK(gpDesk)
	if id, _ := gpLab.SelectedProtocol(); id != core.ProtoNexus {
		t.Fatalf("lab client selected %s", id)
	}
	if id, _ := gpDesk.SelectedProtocol(); id != core.ProtoGlue {
		t.Fatalf("desk client selected %s", id)
	}

	// Load balancer migrates the hot object to host2.
	var l1, l2 loadbal.SyntheticLoad
	l1.Set(100)
	l2.Set(5)
	bal := loadbal.New(loadbal.Policy{HighWater: 50, Margin: 10}, pub)
	bal.AddHost(host1, l1.Source())
	bal.AddHost(host2, l2.Source())
	bal.Manage("itest/svc", ref, host1)
	moves, err := bal.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 || moves[0].To != "host2" {
		t.Fatalf("moves %+v", moves)
	}

	// Existing GPs keep working (tombstone chase), selection unchanged
	// in kind because host2 is on the same LAN topology position.
	callOK(gpLab)
	callOK(gpDesk)
	if gpLab.Ref().Server.Machine != "lab-2" {
		t.Fatalf("lab gp follows to %v", gpLab.Ref().Server)
	}

	// Fresh resolution sees the updated binding.
	r2, err := registry.NewClient(deskClient, regRef).Lookup("itest/svc")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Server.Machine != "lab-2" || r2.Epoch != ref.Epoch+1 {
		t.Fatalf("registry ref %+v", r2)
	}
}

// TestCustomProtocolMigration proves the migration path extends to
// user-written protocols via migrate.RegisterReanchor: a reference whose
// only table entry is the udprel custom protocol survives an object
// move.
func TestCustomProtocolMigration(t *testing.T) {
	n := netsim.New()
	n.AddLAN("lan", "c", netsim.ProfileUnshaped)
	n.MustAddMachine("a", "lan")
	n.MustAddMachine("b", "lan")
	n.MustAddMachine("c", "lan")

	rt := core.NewRuntime(n, "p")
	rt.DefaultPool().Register(udprel.NewFactory(udprel.Config{}))
	rt.RegisterIface(testbed.ExchangeIface, testbed.ExchangeActivator)
	defer rt.Close()

	migrate.RegisterReanchor(udprel.ID, func(dst *core.Context, old core.ProtoEntry) (core.ProtoEntry, bool, error) {
		ne, err := udprel.Entry(dst)
		if err != nil {
			return core.ProtoEntry{}, false, nil // destination not bound
		}
		return ne, true, nil
	})

	src, _ := rt.NewContext("src", "a")
	if err := udprel.Bind(src, 0, udprel.Config{}); err != nil {
		t.Fatal(err)
	}
	dst, _ := rt.NewContext("dst", "b")
	if err := udprel.Bind(dst, 0, udprel.Config{}); err != nil {
		t.Fatal(err)
	}
	// Migration also needs a control/stream path for FaultMoved? No —
	// the tombstone replies travel over udprel itself.
	impl, methods := testbed.ExchangeActivator()
	s, err := src.Export(testbed.ExchangeIface, impl, methods)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := udprel.Entry(src)
	if err != nil {
		t.Fatal(err)
	}
	ref := src.NewRef(s, entry)

	client, _ := rt.NewContext("client", "c")
	gp := client.NewGlobalPtr(ref)
	arr := &core.Int32Slice{V: []int32{7}}
	if _, err := core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", arr); err != nil {
		t.Fatal(err)
	}

	newRef, err := migrate.MoveLocal(src, ref, dst)
	if err != nil {
		t.Fatal(err)
	}
	if newRef.Protocols[0].ID != udprel.ID {
		t.Fatalf("table %v", newRef.ProtoIDs())
	}
	out, err := core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.V) != 1 || out.V[0] != 7 {
		t.Fatalf("post-move %v", out.V)
	}
}

// TestQuotaDeadlineEndToEnd runs the paper's "access for the time they
// have paid for" policy through the full stack with a fake clock.
func TestQuotaDeadlineEndToEnd(t *testing.T) {
	n := netsim.New()
	n.AddLAN("lan", "c", netsim.ProfileUnshaped)
	n.MustAddMachine("a", "lan")
	n.MustAddMachine("b", "lan")
	rt := core.NewRuntime(n, "p")
	capability.Install(rt.DefaultPool())
	defer rt.Close()

	fc := clockAt(t, rt)

	server, _ := rt.NewContext("server", "a")
	if err := server.BindSim(0); err != nil {
		t.Fatal(err)
	}
	impl, methods := testbed.ExchangeActivator()
	s, _ := server.Export(testbed.ExchangeIface, impl, methods)
	base, _ := server.EntryStream()
	paidUntil := fc.Now().Add(time.Hour)
	glueE, err := capability.GlueEntry(server, "paid", base, capability.NewQuota(0, paidUntil))
	if err != nil {
		t.Fatal(err)
	}
	ref := server.NewRef(s, glueE)

	client, _ := rt.NewContext("client", "b")
	gp := client.NewGlobalPtr(ref)
	arr := &core.Int32Slice{V: []int32{1}}
	if _, err := core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", arr); err != nil {
		t.Fatal(err)
	}
	fc.Advance(2 * time.Hour)
	_, err = core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", arr)
	var f *wire.Fault
	if !errors.As(err, &f) || f.Code != wire.FaultQuota {
		t.Fatalf("after expiry: %v", err)
	}
}

// clockAt installs a fake clock on the runtime and returns it.
func clockAt(t *testing.T, rt *core.Runtime) *clock.Fake {
	t.Helper()
	fc := clock.NewFake(time.Unix(1_000_000, 0))
	rt.SetClock(fc)
	return fc
}

// TestRealTCPFullStack runs the registry, a glue-protected service, and
// a client over genuine TCP loopback sockets (no simulated links) —
// the deployment shape ohpc-registry supports in production.
func TestRealTCPFullStack(t *testing.T) {
	n := netsim.New()
	n.AddLAN("lanA", "campus", netsim.ProfileLoopback)
	n.AddLAN("lanB", "campus", netsim.ProfileLoopback)
	n.MustAddMachine("hostA", "lanA")
	n.MustAddMachine("hostB", "lanB")

	rtServer := core.NewRuntime(n, "procServer")
	capability.Install(rtServer.DefaultPool())
	defer rtServer.Close()
	rtClient := core.NewRuntime(n, "procClient")
	capability.Install(rtClient.DefaultPool())
	defer rtClient.Close()

	// Registry over real TCP.
	regCtx, err := rtServer.NewContext("registry", "hostA")
	if err != nil {
		t.Fatal(err)
	}
	if err := regCtx.BindTCP("127.0.0.1:0"); err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	if _, _, err := registry.Serve(regCtx); err != nil {
		t.Fatal(err)
	}
	regAddr, _ := regCtx.Binding(core.ProtoStream)

	// Service over real TCP, auth+quota protected (client is on
	// another simulated LAN, so the cross-LAN auth applies even though
	// the bytes ride real sockets).
	svcCtx, err := rtServer.NewContext("svc", "hostA")
	if err != nil {
		t.Fatal(err)
	}
	if err := svcCtx.BindTCP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	impl, methods := testbed.ExchangeActivator()
	s, err := svcCtx.Export(testbed.ExchangeIface, impl, methods)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := svcCtx.EntryStream()
	glueE, err := capability.GlueEntry(svcCtx, "tcp-auth", base,
		capability.MustNewAuth("tcp-client", []byte("k"), capability.ScopeCrossLAN),
		capability.NewQuota(10, time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	ref := svcCtx.NewRef(s, glueE, base)
	pub := registry.NewClient(svcCtx, registry.RefAt(regAddr))
	if err := pub.Bind("tcp/svc", ref); err != nil {
		t.Fatal(err)
	}

	// Client process resolves and calls over real sockets.
	cliCtx, err := rtClient.NewContext("client", "hostB")
	if err != nil {
		t.Fatal(err)
	}
	got, err := registry.NewClient(cliCtx, registry.RefAt(regAddr)).Lookup("tcp/svc")
	if err != nil {
		t.Fatal(err)
	}
	gp := cliCtx.NewGlobalPtr(got)
	if id, err := gp.SelectedProtocol(); err != nil || id != core.ProtoGlue {
		t.Fatalf("selected %s, %v", id, err)
	}
	arr := &core.Int32Slice{V: make([]int32, 512)}
	out, err := core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.V) != 512 {
		t.Fatalf("exchange %d ints", len(out.V))
	}
}
