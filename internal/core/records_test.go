package core

import (
	"errors"
	"strconv"
	"testing"
	"unsafe"

	"openhpcxx/internal/health"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/wire"
)

// TestPoolChangesReachTheNextSelection: an entry's applicability is
// memoised in its record, and every change to the pool — Register,
// Remove, Prefer, SetSelectionOrder — makes the next selection see it.
func TestPoolChangesReachTheNextSelection(t *testing.T) {
	p := NewProtoPool()
	p.Register(fakeFactory{id: "b", applicable: true})
	p.Register(fakeFactory{id: "a", applicable: true})
	ref := &ObjectRef{Object: "o", Protocols: []ProtoEntry{{ID: "a", Data: []byte{1}}, {ID: "b", Data: []byte{2}}}}
	want := func(step string, idx int) {
		t.Helper()
		for i := 0; i < 2; i++ { // the first walk fills the records, the second reads them
			_, got, err := p.Select(ref, netsim.Locality{})
			if err != nil && idx >= 0 || err == nil && got != idx {
				t.Fatalf("%s: selected table[%d] (%v), want table[%d]", step, got, err, idx)
			}
		}
	}
	want("ref order", 0)
	p.SetSelectionOrder(PoolOrder)
	want("pool order", 1)
	p.Prefer("a")
	want("prefer a", 0)
	p.Register(fakeFactory{id: "a", applicable: false})
	want("a no longer applicable", 1)
	p.Remove("b")
	want("b removed", -1)
	p.Register(fakeFactory{id: "a", applicable: true})
	want("a applicable again", 0)
}

// TestTrippedBreakerVetoesAMemoisedEntry: the primary's record says it is
// applicable, yet a tripped breaker still steers selection to the backup;
// the probe its first bind registered re-closes the breaker, and the GP
// re-promotes the primary. A replaced health tracker gets probes of its
// own at the next bind.
func TestTrippedBreakerVetoesAMemoisedEntry(t *testing.T) {
	_, rt, _, _, _, gp := failoverWorld(t)
	for round := 0; round < 2; round++ {
		if _, err := gp.Invoke("echo", []byte("warm")); err != nil {
			t.Fatal(err)
		}
		if idx, _, _ := gp.SelectedEntry(); idx != 0 {
			t.Fatalf("round %d: bound to table[%d], want the primary", round, idx)
		}
		key := entryHealthKey(gp.Ref().Protocols[0])
		rt.Health().Trip(key)
		if _, err := gp.Invoke("echo", []byte("tripped")); err != nil {
			t.Fatal(err)
		}
		if idx, _, _ := gp.SelectedEntry(); idx != 1 {
			t.Fatalf("round %d: bound to table[%d] with the primary tripped, want the backup", round, idx)
		}
		rt.Health().ProbeNow()
		if st := rt.Health().State(key); st != health.Closed {
			t.Fatalf("round %d: primary %v after a probe pass, want closed", round, st)
		}
		if idx, _, _ := gp.SelectedEntry(); idx != 0 {
			t.Fatalf("round %d: bound to table[%d] after the primary recovered, want it re-promoted", round, idx)
		}
		rt.SetHealthOptions(health.Options{})
		gp.Invalidate()
	}
}

// TestHostileMovedRefsLeaveTheTableAtItsBound: a server can answer every
// call with a FaultMoved naming a reference never seen before. The client
// chases each one, and its pool's records stay at their bound.
func TestHostileMovedRefsLeaveTheTableAtItsBound(t *testing.T) {
	_, rt := testWorld(t)
	server, _ := rt.NewContext("server", "mA")
	client, _ := rt.NewContext("client", "mB")
	if err := server.BindSim(0); err != nil {
		t.Fatal(err)
	}
	addr, _ := server.Binding(ProtoStream)
	const refs = 10000
	minted := 0
	s, err := server.ExportAs("hostile", "Hostile", nil, map[string]Method{
		"m": func([]byte) ([]byte, error) {
			minted++
			data, err := EncodeRef(&ObjectRef{Object: "hostile", Server: server.Locality(), Protocols: []ProtoEntry{
				{ID: ProtoStream, Data: encodeAddrData(addr, strconv.Itoa(minted))},
			}})
			if err != nil {
				return nil, err
			}
			return nil, &wire.Fault{Code: wire.FaultMoved, Message: "elsewhere", Data: data}
		},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := server.EntryStream()
	gp := client.NewGlobalPtr(server.NewRef(s, e))
	for minted < refs {
		var f *wire.Fault
		if _, err := gp.Invoke("m", nil); !errors.As(err, &f) || f.Code != wire.FaultMoved {
			t.Fatalf("after %d references: %v, want the last chase's FaultMoved", minted, err)
		}
	}
	client.pool.rmu.Lock()
	n := len(client.pool.recs)
	client.pool.rmu.Unlock()
	if n > maxRecords {
		t.Fatalf("%d records after %d hostile references, bound %d", n, refs, maxRecords)
	}
}

// TestReselectWalksWithoutAllocating pins the selection walk over a table
// the context has seen: each entry's record is a map lookup, so neither
// the plain walk nor the GP's health-filtered one allocates.
func TestReselectWalksWithoutAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	_, rt := testWorld(t)
	server, _ := rt.NewContext("server", "mA")
	client, _ := rt.NewContext("client", "mA")
	if err := server.BindSim(0); err != nil {
		t.Fatal(err)
	}
	if err := server.BindSHM(); err != nil {
		t.Fatal(err)
	}
	if err := server.BindNexusSim(0); err != nil {
		t.Fatal(err)
	}
	s, _ := exportEcho(t, server)
	ref := server.NewRef(s, server.Entries()...)
	// shm is not applicable from another process, so the walk reads two
	// records before it selects the stream entry.
	ref.Server.Process = "elsewhere"
	ht := rt.Health()
	allow := func(r *entryRecord) bool { return ht.Allow(r.key) }
	pool := client.Pool()
	for name, walk := range map[string]func() int{
		"Select": func() int { _, i, _ := pool.Select(ref, client.Locality()); return i },
		"health": func() int { _, i, _ := pool.selectRecord(ref, client.Locality(), allow); return i },
	} {
		if i := walk(); i != 1 {
			t.Fatalf("%s selected table[%d], want the stream entry", name, i)
		}
		if got := testing.AllocsPerRun(1000, func() { walk() }); got != 0 {
			t.Errorf("%s: a re-select allocates %.1f, pinned at 0", name, got)
		}
	}
}

// TestTombstoneEncodesItsFaultOnce: a tombstone encodes its FaultMoved
// when the object leaves, and every stale request's reply carries those
// same bytes, which name the new home. Wire's
// TestEncodedFaultIsSharedNotLent holds that no encoder recycles them.
func TestTombstoneEncodesItsFaultOnce(t *testing.T) {
	_, rt := testWorld(t)
	src, _ := rt.NewContext("src", "mA")
	dst, _ := rt.NewContext("dst", "mB")
	if err := dst.BindSim(0); err != nil {
		t.Fatal(err)
	}
	s, ref := exportEcho(t, src)
	moved, _ := exportEcho(t, dst)
	e, _ := dst.EntryStream()
	src.Unexport(s.ID(), dst.NewRef(moved, e))
	var first *byte
	for i := 0; i < 3; i++ {
		reply := src.Dispatch(&wire.Message{Type: wire.TRequest, Object: string(ref.Object), Method: "echo", RequestID: uint64(i)})
		var f *wire.Fault
		if reply == nil || !errors.As(wire.DecodeFault(reply.Body), &f) || f.Code != wire.FaultMoved {
			t.Fatalf("stale request %d: %+v", i, reply)
		}
		if fwd, err := DecodeRef(f.Data); err != nil || fwd.Object != moved.ID() || fwd.Server != dst.Locality() {
			t.Fatalf("stale request %d forwarded to %+v (%v)", i, fwd, err)
		}
		if first == nil {
			first = unsafe.SliceData(reply.Body)
		} else if unsafe.SliceData(reply.Body) != first {
			t.Fatalf("stale request %d: the tombstone encoded its fault again", i)
		}
		if reply.RequestID != uint64(i) {
			t.Fatalf("stale request %d answered as %d", i, reply.RequestID)
		}
		reply.Release()
	}
}
