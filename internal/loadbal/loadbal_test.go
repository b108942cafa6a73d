package loadbal

import (
	"sync"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/migrate"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/registry"
	"openhpcxx/internal/xdr"
)

// ticker is a trivially migratable servant counting its own invocations.
type ticker struct {
	mu sync.Mutex
	n  int64
}

func (c *ticker) Snapshot() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := xdr.NewEncoder(8)
	e.PutInt64(c.n)
	return e.Bytes(), nil
}

func (c *ticker) Restore(state []byte) error {
	v, err := xdr.NewDecoder(state).Int64()
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.n = v
	c.mu.Unlock()
	return nil
}

const tickerIface = "test.Ticker"

func tickerActivator() (any, map[string]core.Method) {
	c := &ticker{}
	return c, map[string]core.Method{
		"tick": func(args []byte) ([]byte, error) {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.n++
			return nil, nil
		},
	}
}

func world(t *testing.T) *core.Runtime {
	t.Helper()
	n := netsim.New()
	n.AddLAN("lan", "c", netsim.ProfileUnshaped)
	for _, m := range []string{"m0", "m1", "m2"} {
		n.MustAddMachine(netsim.MachineID(m), "lan")
	}
	rt := core.NewRuntime(n, "p")
	rt.RegisterIface(tickerIface, tickerActivator)
	t.Cleanup(rt.Close)
	return rt
}

func host(t *testing.T, rt *core.Runtime, name, machine string) *core.Context {
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

func exportTicker(t *testing.T, ctx *core.Context) *core.ObjectRef {
	t.Helper()
	impl, methods := tickerActivator()
	s, err := ctx.Export(tickerIface, impl, methods)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ctx.EntryStream()
	if err != nil {
		t.Fatal(err)
	}
	return ctx.NewRef(s, e)
}

func TestSyntheticLoad(t *testing.T) {
	var s SyntheticLoad
	src := s.Source()
	if src() != 0 {
		t.Fatal("initial load")
	}
	s.Set(5)
	s.Add(2)
	if src() != 7 {
		t.Fatal("set/add")
	}
}

func TestCallLoadDeltas(t *testing.T) {
	var calls uint64
	cl := NewCallLoad(func() uint64 { return calls })
	src := cl.Source()
	if src() != 0 {
		t.Fatal("initial delta")
	}
	calls = 10
	if src() != 10 {
		t.Fatal("first delta")
	}
	calls = 15
	if src() != 5 {
		t.Fatal("second delta")
	}
}

func TestRebalanceMovesHotObject(t *testing.T) {
	rt := world(t)
	hot := host(t, rt, "hot", "m1")
	cold := host(t, rt, "cold", "m2")

	var hotLoad, coldLoad SyntheticLoad
	hotLoad.Set(10)
	coldLoad.Set(1)

	ref := exportTicker(t, hot)
	b := New(Policy{HighWater: 5, Margin: 2}, nil)
	b.AddHost(hot, hotLoad.Source())
	b.AddHost(cold, coldLoad.Source())
	b.Manage("", ref, hot)

	moves, err := b.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 || moves[0].From != "hot" || moves[0].To != "cold" {
		t.Fatalf("moves %+v", moves)
	}
	if _, ok := hot.Servant(ref.Object); ok {
		t.Fatal("object still on hot host")
	}
	if _, ok := cold.Servant(ref.Object); !ok {
		t.Fatal("object not on cold host")
	}
	got, ok := b.Ref(ref.Object)
	if !ok || got.Server.Machine != "m2" {
		t.Fatalf("tracked ref %+v", got)
	}
}

func TestRebalanceRespectsHighWater(t *testing.T) {
	rt := world(t)
	a := host(t, rt, "a", "m1")
	bCtx := host(t, rt, "b", "m2")
	var la, lb SyntheticLoad
	la.Set(4) // below high water
	lb.Set(1)
	ref := exportTicker(t, a)
	b := New(Policy{HighWater: 5, Margin: 1}, nil)
	b.AddHost(a, la.Source())
	b.AddHost(bCtx, lb.Source())
	b.Manage("", ref, a)
	moves, err := b.Rebalance()
	if err != nil || len(moves) != 0 {
		t.Fatalf("moves %v err %v", moves, err)
	}
}

func TestRebalanceRespectsMargin(t *testing.T) {
	rt := world(t)
	a := host(t, rt, "a", "m1")
	bCtx := host(t, rt, "b", "m2")
	var la, lb SyntheticLoad
	la.Set(10)
	lb.Set(9.5) // gap under margin: moving would just oscillate
	ref := exportTicker(t, a)
	b := New(Policy{HighWater: 5, Margin: 2}, nil)
	b.AddHost(a, la.Source())
	b.AddHost(bCtx, lb.Source())
	b.Manage("", ref, a)
	moves, err := b.Rebalance()
	if err != nil || len(moves) != 0 {
		t.Fatalf("moves %v err %v", moves, err)
	}
}

func TestRebalanceSingleHostNoop(t *testing.T) {
	rt := world(t)
	a := host(t, rt, "a", "m1")
	var la SyntheticLoad
	la.Set(100)
	b := New(Policy{HighWater: 5}, nil)
	b.AddHost(a, la.Source())
	if moves, err := b.Rebalance(); err != nil || moves != nil {
		t.Fatalf("%v %v", moves, err)
	}
}

func TestPickVictimBusiest(t *testing.T) {
	rt := world(t)
	hot := host(t, rt, "hot", "m1")
	cold := host(t, rt, "cold", "m2")
	client := host(t, rt, "client", "m0")

	refIdle := exportTicker(t, hot)
	refBusy := exportTicker(t, hot)
	// Drive traffic to the busy object.
	gp := client.NewGlobalPtr(refBusy)
	for i := 0; i < 5; i++ {
		if _, err := gp.Invoke("tick", nil); err != nil {
			t.Fatal(err)
		}
	}

	var hotLoad, coldLoad SyntheticLoad
	hotLoad.Set(10)
	b := New(Policy{HighWater: 5, Margin: 1}, nil)
	b.AddHost(hot, hotLoad.Source())
	b.AddHost(cold, coldLoad.Source())
	b.Manage("", refIdle, hot)
	b.Manage("", refBusy, hot)

	moves, err := b.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 || moves[0].Object != refBusy.Object {
		t.Fatalf("moves %+v, want busy object %s", moves, refBusy.Object)
	}
}

func TestRebalanceUpdatesRegistry(t *testing.T) {
	rt := world(t)
	regCtx := host(t, rt, "reg", "m0")
	if _, _, err := registry.Serve(regCtx); err != nil {
		t.Fatal(err)
	}
	regAddr, _ := regCtx.Binding(core.ProtoStream)

	hot := host(t, rt, "hot", "m1")
	cold := host(t, rt, "cold", "m2")
	ref := exportTicker(t, hot)

	regCli := registry.NewClient(hot, registry.RefAt(regAddr))
	if err := regCli.Bind("svc/t", ref); err != nil {
		t.Fatal(err)
	}

	var hotLoad, coldLoad SyntheticLoad
	hotLoad.Set(10)
	b := New(Policy{HighWater: 5, Margin: 1}, regCli)
	b.AddHost(hot, hotLoad.Source())
	b.AddHost(cold, coldLoad.Source())
	b.Manage("svc/t", ref, hot)
	if _, err := b.Rebalance(); err != nil {
		t.Fatal(err)
	}
	got, err := regCli.Lookup("svc/t")
	if err != nil {
		t.Fatal(err)
	}
	if got.Server.Machine != "m2" {
		t.Fatalf("registry ref at %v", got.Server)
	}
}

func TestLoadsSnapshot(t *testing.T) {
	rt := world(t)
	a := host(t, rt, "a", "m1")
	c := host(t, rt, "b", "m2")
	var la, lb SyntheticLoad
	la.Set(3)
	lb.Set(4)
	b := New(Policy{HighWater: 5}, nil)
	b.AddHost(a, la.Source())
	b.AddHost(c, lb.Source())
	loads := b.Loads()
	if len(loads) != 2 || loads[0] != 3 || loads[1] != 4 {
		t.Fatalf("loads %v", loads)
	}
}

// Regression: balancer must also work with objects that keep state
// across the move (migrate integration).
func TestMovePreservesTicks(t *testing.T) {
	rt := world(t)
	hot := host(t, rt, "hot", "m1")
	cold := host(t, rt, "cold", "m2")
	client := host(t, rt, "client", "m0")

	ref := exportTicker(t, hot)
	gp := client.NewGlobalPtr(ref)
	for i := 0; i < 3; i++ {
		if _, err := gp.Invoke("tick", nil); err != nil {
			t.Fatal(err)
		}
	}
	newRef, err := migrate.MoveLocal(hot, ref, cold)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := cold.Servant(newRef.Object)
	if !ok {
		t.Fatal("not adopted")
	}
	impl := s.Impl().(*ticker)
	impl.mu.Lock()
	n := impl.n
	impl.mu.Unlock()
	if n != 3 {
		t.Fatalf("ticks %d", n)
	}
}

func TestDaemonRebalances(t *testing.T) {
	rt := world(t)
	hot := host(t, rt, "hot", "m1")
	cold := host(t, rt, "cold", "m2")
	var hotLoad, coldLoad SyntheticLoad
	hotLoad.Set(10)
	ref := exportTicker(t, hot)
	b := New(Policy{HighWater: 5, Margin: 1}, nil)
	b.AddHost(hot, hotLoad.Source())
	b.AddHost(cold, coldLoad.Source())
	b.Manage("", ref, hot)

	d := NewDaemon(b, 5*time.Millisecond)
	d.Start()
	d.Start() // idempotent
	deadline := time.Now().Add(3 * time.Second)
	for len(d.History()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("daemon never moved the object")
		}
		clock.Sleep(clock.Real{}, time.Millisecond)
	}
	d.Stop()
	d.Stop() // idempotent
	passes := d.Passes()
	if passes == 0 {
		t.Fatal("no passes recorded")
	}
	// After Stop, no further passes run.
	clock.Sleep(clock.Real{}, 20*time.Millisecond)
	if d.Passes() != passes {
		t.Fatal("daemon still running after Stop")
	}
	if len(d.Errs()) != 0 {
		t.Fatalf("daemon errors: %v", d.Errs())
	}
	mv := d.History()[0]
	if mv.From != "hot" || mv.To != "cold" {
		t.Fatalf("move %+v", mv)
	}
}

func TestRebalanceMultipleMovesPerPass(t *testing.T) {
	rt := world(t)
	hot := host(t, rt, "hot", "m1")
	cold := host(t, rt, "cold", "m2")
	var hotLoad, coldLoad SyntheticLoad
	hotLoad.Set(50)
	refA := exportTicker(t, hot)
	refB := exportTicker(t, hot)
	b := New(Policy{HighWater: 5, Margin: 1, MaxMovesPerPass: 2}, nil)
	b.AddHost(hot, hotLoad.Source())
	b.AddHost(cold, coldLoad.Source())
	b.Manage("", refA, hot)
	b.Manage("", refB, hot)

	// One pass moves one object (the pass re-sorts hosts only once, and
	// the hot host remains the only one over the mark, so the loop may
	// move up to MaxMovesPerPass objects off it).
	moves, err := b.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("no moves")
	}
	// A second pass drains the rest.
	moves2, err := b.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	total := len(moves) + len(moves2)
	if total < 2 {
		t.Fatalf("moved %d objects across passes", total)
	}
	if _, ok := cold.Servant(refA.Object); !ok {
		t.Fatal("refA not drained")
	}
	if _, ok := cold.Servant(refB.Object); !ok {
		t.Fatal("refB not drained")
	}
}

// TestEvacuateStaleCallerChasesInOneInvocation: a global pointer still
// holding an evacuated host's reference reaches the object at its new
// home in one invocation — the draining host answers with its
// tombstone, not with a refusal.
func TestEvacuateStaleCallerChasesInOneInvocation(t *testing.T) {
	rt := world(t)
	old := host(t, rt, "old", "m1")
	next := host(t, rt, "next", "m2")
	client := host(t, rt, "client", "m0")
	ref := exportTicker(t, old)
	b := New(Policy{HighWater: 5, Margin: 2}, nil)
	var lo, ln SyntheticLoad
	b.AddHost(old, lo.Source())
	b.AddHost(next, ln.Source())
	b.Manage("", ref, old)
	gp := client.NewGlobalPtr(ref)
	if _, err := gp.Invoke("tick", nil); err != nil {
		t.Fatal(err)
	}

	moves, err := b.Evacuate(old)
	if err != nil || len(moves) != 1 || moves[0].To != "next" {
		t.Fatalf("evacuate: %+v, %v", moves, err)
	}
	if _, err := gp.Invoke("tick", nil); err != nil {
		t.Fatalf("stale caller after evacuation: %v", err)
	}
	if gp.Ref().Server.Machine != "m2" {
		t.Fatalf("gp holds %+v, want the evacuated reference", gp.Ref().Server)
	}
}
