package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openhpcxx/internal/future"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/wire"
)

// faultCode extracts the wire fault code from a TFault frame.
func faultCode(t *testing.T, m *wire.Message) wire.FaultCode {
	t.Helper()
	if m == nil || m.Type != wire.TFault {
		t.Fatalf("reply %+v, want a TFault frame", m)
	}
	var f *wire.Fault
	if err := wire.DecodeFault(m.Body); !errors.As(err, &f) {
		t.Fatalf("undecodable fault: %v", err)
	}
	return f.Code
}

// rawCall sends one request frame to ref's first (stream) entry through a
// protocol object of its own on host, bypassing the engine's retries.
func rawCall(t *testing.T, host *Context, ref *ObjectRef, method string) *wire.Message {
	t.Helper()
	f, _ := host.Pool().Lookup(ProtoStream)
	p, err := f.New(ref.Protocols[0], ref, host)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := p.Call(&wire.Message{Type: wire.TRequest, Object: string(ref.Object), Method: method})
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

// TestContextDrainRejectsNewFinishesInFlight: Drain waits for the request
// it admitted, and a request arriving meanwhile — on a new connection:
// the listener stays open — is refused with FaultUnavailable, not run.
func TestContextDrainRejectsNewFinishesInFlight(t *testing.T) {
	_, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mC")
	late, _ := rt.NewContext("late", "mB")
	if err := srv.BindSim(0); err != nil {
		t.Fatal(err)
	}
	entered, gate := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	var calls atomic.Int32
	s, err := srv.Export("Slow", nil, map[string]Method{
		"slow": func(args []byte) ([]byte, error) {
			calls.Add(1)
			close(entered)
			<-gate
			return args, nil
		},
		"echo": func(args []byte) ([]byte, error) { calls.Add(1); return args, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := srv.EntryStream()
	ref := srv.NewRef(s, e)

	fut := client.NewGlobalPtr(ref).InvokeAsync("slow", []byte("slow"))
	<-entered
	drained := make(chan struct{})
	go func() {
		srv.Drain()
		close(drained)
	}()
	for !srv.Draining() {
		select {
		case <-drained:
			t.Fatal("Drain returned with a request in flight")
		default:
			runtime.Gosched()
		}
	}

	if code := faultCode(t, rawCall(t, late, ref, "echo")); code != wire.FaultUnavailable {
		t.Fatalf("request to a draining context got %v, want FaultUnavailable", code)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while the slow request was still running")
	default:
	}

	release()
	if body, err := fut.Wait(); err != nil || string(body) != "slow" {
		t.Fatalf("in-flight request: %q, %v", body, err)
	}
	<-drained
	if got := calls.Load(); got != 1 {
		t.Fatalf("servant ran %d requests, want 1 (the in-flight one)", got)
	}
	if got := rt.Metrics().Counter("srv.drained").Value(); got != 1 {
		t.Fatalf("srv.drained = %d, want 1", got)
	}
}

// TestContextDrainDropsOneWay: a draining context neither runs a one-way
// request nor answers it.
func TestContextDrainDropsOneWay(t *testing.T) {
	_, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	var calls atomic.Int32
	s, err := srv.Export("Counter", nil, map[string]Method{
		"tick": func([]byte) ([]byte, error) { calls.Add(1); return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	if reply := srv.Dispatch(&wire.Message{Type: wire.TControl, Object: string(s.ID()), Method: "tick"}); reply != nil {
		t.Fatalf("one-way to a draining context answered %+v", reply)
	}
	if calls.Load() != 0 || rt.Metrics().Counter("srv.oneway").Value() != 0 {
		t.Fatal("a draining context ran a one-way request")
	}
	reply := srv.Dispatch(&wire.Message{Type: wire.TRequest, Object: string(s.ID()), Method: "tick"})
	if code := faultCode(t, reply); code != wire.FaultUnavailable {
		t.Fatalf("two-way got %v, want FaultUnavailable", code)
	}
}

// TestContextDrainBatchVerdictPerSubRequest: a TBatch reaching a draining
// context over the wire gets one verdict per sub-request — FaultMoved for
// an object that left a tombstone, FaultUnavailable for a live one — not
// one fault for the whole frame.
func TestContextDrainBatchVerdictPerSubRequest(t *testing.T) {
	_, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	dst, _ := rt.NewContext("dst", "mB")
	client, _ := rt.NewContext("client", "mC")
	live, _ := exportEcho(t, srv)
	gone, _ := exportEcho(t, srv)
	_, fwd := exportEcho(t, dst)
	srv.Unexport(gone.ID(), fwd)
	srv.Drain()

	batch, err := wire.EncodeBatch([]*wire.Message{
		{Type: wire.TRequest, RequestID: 1, Object: string(gone.ID()), Method: "echo"},
		{Type: wire.TRequest, RequestID: 2, Object: string(live.ID()), Method: "echo"},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := srv.Binding(ProtoStream)
	mux, err := client.muxes.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := mux.Call(batch)
	if err != nil || reply.Type != wire.TBatch {
		t.Fatalf("batch reply %+v, want a TBatch frame", reply)
	}
	subs, err := wire.DecodeBatch(reply)
	if err != nil || len(subs) != 2 {
		t.Fatalf("batch reply: %d entries, %v", len(subs), err)
	}
	if code := faultCode(t, subs[0]); code != wire.FaultMoved {
		t.Fatalf("tombstoned sub-request got %v, want FaultMoved", code)
	}
	if code := faultCode(t, subs[1]); code != wire.FaultUnavailable {
		t.Fatalf("live sub-request got %v, want FaultUnavailable", code)
	}
	if live.Calls() != 0 {
		t.Fatal("a draining context ran a batched request")
	}
}

// TestBatchedCallsFailOverFromDrainingPrimary: calls that rode one TBatch
// into a draining primary each hear FaultUnavailable and fail over to the
// backup; none is lost to a whole-batch fault.
func TestBatchedCallsFailOverFromDrainingPrimary(t *testing.T) {
	_, _, primary, backup, _, gp := failoverWorld(t)
	if _, err := gp.Invoke("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	const n = 8
	gp.SetBatchPolicy(&transport.BatchPolicy{MaxMessages: n, MaxDelay: time.Second})
	primary.Drain()
	futs := make([]*future.Future, n)
	for i := range futs {
		futs[i] = gp.InvokeAsync("echo", []byte{byte(i)})
	}
	for i, f := range futs {
		if body, err := f.Wait(); err != nil || len(body) != 1 || body[0] != byte(i) {
			t.Fatalf("batched call %d against a draining primary: %v, %v", i, body, err)
		}
	}
	if got := mustServant(t, backup, "shared/echo").Calls(); got != n {
		t.Fatalf("backup served %d calls, want %d", got, n)
	}
	if got := mustServant(t, primary, "shared/echo").Calls(); got != 1 {
		t.Fatalf("draining primary ran %d calls, want only the warm-up", got)
	}
}
