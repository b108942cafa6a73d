package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/future"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/obs/obstest"
	"openhpcxx/internal/transport"
)

// These tests hold InvokeAsync to the completion rule: an asynchronous
// call in flight is a registered continuation, not a parked goroutine;
// the first attempt is finished where its reply resolves, and only what
// may block (a retry, a fault's settling) gets a goroutine.

// stacksWith returns the stacks of the goroutines that have frame on
// them.
func stacksWith(frame string) []string {
	var buf bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 2)
	var out []string
	for _, g := range strings.Split(buf.String(), "\n\n") {
		if strings.Contains(g, frame) {
			out = append(out, g)
		}
	}
	return out
}

// asyncWorld exports methods on a server context reachable over pid
// from a client context on the same machine (so shm applies too).
func asyncWorld(t *testing.T, pid ProtoID, methods map[string]Method) (rt *Runtime, srv, client *Context, gp *GlobalPtr) {
	t.Helper()
	_, rt = testWorld(t)
	srv, _ = rt.NewContext("srv", "mA")
	client, _ = rt.NewContext("client", "mA")
	var entry ProtoEntry
	var err error
	switch pid {
	case ProtoNexus:
		if err = srv.BindNexusSim(0); err == nil {
			entry, err = srv.EntryNexus()
		}
	case ProtoSHM:
		if err = srv.BindSHM(); err == nil {
			entry, err = srv.EntrySHM()
		}
	default:
		if err = srv.BindSim(0); err == nil {
			entry, err = srv.EntryStream()
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	s, err := srv.Export("Async", nil, methods)
	if err != nil {
		t.Fatal(err)
	}
	gp = client.NewGlobalPtr(srv.NewRef(s, entry))
	if got, err := gp.SelectedProtocol(); err != nil || got != pid {
		t.Fatalf("selected %s (%v), want %s", got, err, pid)
	}
	return rt, srv, client, gp
}

func seqPayload(i int) []byte {
	return binary.BigEndian.AppendUint32([]byte("call-"), uint32(i))
}

// TestAsyncCallsParkNoGoroutine: with 1 000 asynchronous calls in flight
// on a servant held at a barrier, no goroutine is inside the GP — over
// every pipelined protocol, batched or not — and opening the barrier
// resolves every future with its own reply.
func TestAsyncCallsParkNoGoroutine(t *testing.T) {
	const n = 1000
	for _, pid := range []ProtoID{ProtoStream, ProtoSHM, ProtoNexus} {
		for _, batched := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/batched=%v", pid, batched), func(t *testing.T) {
				barrier := make(chan struct{})
				_, _, _, gp := asyncWorld(t, pid, map[string]Method{
					"hold": func(args []byte) ([]byte, error) { <-barrier; return args, nil },
				})
				gp.SetMaxInFlight(n)
				if batched {
					policy := transport.DefaultBatchPolicy()
					gp.SetBatchPolicy(&policy)
				}
				// An earlier test's runtime may still be winding a retry down.
				stragglers := len(stacksWith("core.(*GlobalPtr)"))
				futs := make([]*future.Future, n)
				for i := range futs {
					futs[i] = gp.InvokeAsync("hold", seqPayload(i))
				}
				if parked := stacksWith("core.(*GlobalPtr)"); len(parked) > stragglers {
					close(barrier)
					t.Fatalf("%d goroutines inside a GP with %d calls in flight (%d before), e.g.\n%s",
						len(parked), n, stragglers, parked[len(parked)-1])
				}
				close(barrier)
				for i, f := range futs {
					if body, err := f.Wait(); err != nil || !bytes.Equal(body, seqPayload(i)) {
						t.Fatalf("future %d: %q, %v", i, body, err)
					}
				}
			})
		}
	}
}

// TestAsyncWindowSurvivesConnectionDeath: the connection dies under a
// full window (the server's machine crashes, then comes back). Every
// continuation runs on the failing read loop; every future still
// resolves, once, with its own reply from the re-dialled connection, and
// every attempt — first and retried — was counted and timed once.
func TestAsyncWindowSurvivesConnectionDeath(t *testing.T) {
	const window, port = 64, 7311
	n, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mC")
	if err := srv.BindSim(port); err != nil {
		t.Fatal(err)
	}
	var held atomic.Int32
	gate := make(chan struct{})
	s, err := srv.Export("Held", nil, map[string]Method{
		"hold": func(args []byte) ([]byte, error) { held.Add(1); <-gate; return args, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := srv.EntryStream()
	gp := client.NewGlobalPtr(srv.NewRef(s, entry))
	gp.SetMaxInFlight(window)
	gp.SetRetryBudget(RetryBudgetConfig{Disabled: true}) // 64 retries at once are the point
	col := obstest.Attach(t, rt.Tracer())

	futs := make([]*future.Future, window)
	for i := range futs {
		futs[i] = gp.InvokeAsync("hold", seqPayload(i))
	}
	for held.Load() != window {
		clock.Sleep(clock.Real{}, time.Millisecond)
	}
	n.Crash("mA")
	n.Restart("mA")
	if err := srv.BindSim(port); err != nil {
		t.Fatal(err)
	}
	close(gate)
	for i, f := range futs {
		if body, err := f.Wait(); err != nil || !bytes.Equal(body, seqPayload(i)) {
			t.Fatalf("future %d: %q, %v", i, body, err)
		}
	}
	roots := col.WaitForSpans(t, "invoke", window, 5*time.Second)
	if got := len(obstest.Named(roots, "invoke")); got != window {
		t.Fatalf("%d root spans for %d invocations: something resolved twice", got, window)
	}
	c := readEngineCounts(rt, ProtoStream)
	if c.calls != c.latencyCount || c.calls < 2*window || c.transportErrors < window {
		t.Fatalf("accounting: %+v, want calls == latency count >= %d and >= %d transport errors", c, 2*window, window)
	}
	if got := s.Calls(); got != 2*window {
		t.Fatalf("servant ran %d calls, want %d (each call once before the crash, once after)", got, 2*window)
	}
	for deadline := time.Now().Add(2 * time.Second); rt.inflightGauge.Value() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("rpc.inflight = %d after every future resolved", rt.inflightGauge.Value())
		}
		clock.Sleep(clock.Real{}, time.Millisecond)
	}
}

// TestCanceledAsyncCallsLeaveNothingBehind: against a peer that never
// answers, canceling a future frees its slot and abandons its exchange
// at once — no goroutine and no mux entry waits out the call timeout.
func TestCanceledAsyncCallsLeaveNothingBehind(t *testing.T) {
	const calls, limit = 1000, 32
	n, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mC")
	s, ref := exportEcho(t, srv)
	gp := client.NewGlobalPtr(ref)
	gp.SetMaxInFlight(limit)
	if _, err := gp.Invoke("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	addr, _ := srv.Binding(ProtoStream)
	mux, err := client.muxes.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	served, goroutines := s.Calls(), runtime.NumGoroutine()

	n.SetBlackhole("mC", "mA", true)
	defer n.SetBlackhole("mC", "mA", false)
	window := make([]*future.Future, 0, limit)
	for i := 0; i < calls; i++ {
		window = append(window, gp.InvokeAsync("echo", seqPayload(i)))
		if len(window) < limit {
			continue
		}
		for _, f := range window {
			if !f.Cancel() {
				t.Fatal("Cancel lost to a reply that cannot have arrived")
			}
			if _, err := f.Wait(); !errors.Is(err, future.ErrCanceled) {
				t.Fatalf("canceled future: %v", err)
			}
		}
		window = window[:0]
	}
	for _, f := range window {
		f.Cancel()
	}
	// Far inside transport.DefaultCallTimeout (30 s).
	for deadline := time.Now().Add(3 * time.Second); ; {
		g, inflight, slots := runtime.NumGoroutine(), mux.InFlight(), rt.inflightGauge.Value()
		if g <= goroutines+2 && inflight == 0 && slots == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("left behind: %d goroutines (%d before), %d exchanges in the mux, rpc.inflight %d",
				g, goroutines, inflight, slots)
		}
		clock.Sleep(clock.Real{}, 5*time.Millisecond)
	}
	if got := s.Calls(); got != served {
		t.Fatalf("servant ran %d calls through a blackhole", got-served)
	}
	if errs := readEngineCounts(rt, ProtoStream).transportErrors; errs != 0 {
		t.Fatalf("%d transport errors: a Cancel was charged to the endpoint", errs)
	}
}

// TestCancelRacesBatchedReplies: 10 000 batched asynchronous calls, a
// seeded random half of them canceled from another goroutine after a
// random number of yields, so the Cancel races the reply's arrival. A
// Cancel that wins leaves ErrCanceled; one that loses leaves the echo;
// either way the future resolved once and stays resolved. Afterwards the
// whole in-flight window is free again, rpc.inflight and
// future.Outstanding are back where they started, and no goroutine is
// left over.
func TestCancelRacesBatchedReplies(t *testing.T) {
	const calls, window, seed = 10000, 64, 38
	_, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mB")
	_, ref := exportEcho(t, srv)
	gp := client.NewGlobalPtr(ref)
	gp.SetMaxInFlight(window)
	policy := transport.DefaultBatchPolicy()
	gp.SetBatchPolicy(&policy)
	if _, err := gp.Invoke("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	outstanding, goroutines := future.Outstanding(), runtime.NumGoroutine()

	rng := rand.New(rand.NewSource(seed))
	var won, lost atomic.Int64
	for base := 0; base < calls; base += window {
		futs := make([]*future.Future, window)
		canceled := make([]atomic.Bool, window)
		var cancels sync.WaitGroup
		for i := range futs {
			futs[i] = gp.InvokeAsync("echo", seqPayload(base+i))
			if rng.Intn(2) == 0 {
				continue
			}
			cancels.Add(1)
			go func(i, yields int) {
				defer cancels.Done()
				for ; yields > 0; yields-- {
					runtime.Gosched()
				}
				if futs[i].Cancel() {
					canceled[i].Store(true)
					won.Add(1)
				} else {
					lost.Add(1)
				}
			}(i, rng.Intn(64))
		}
		cancels.Wait()
		for i, f := range futs {
			body, err := f.Wait()
			if canceled[i].Load() {
				if !errors.Is(err, future.ErrCanceled) {
					t.Fatalf("call %d: Cancel won, the future holds %q, %v", base+i, body, err)
				}
			} else if err != nil || !bytes.Equal(body, seqPayload(base+i)) {
				t.Fatalf("call %d: %q, %v", base+i, body, err)
			}
			if again, errAgain, ok := f.TryResult(); !ok || !bytes.Equal(again, body) || errAgain != err {
				t.Fatalf("call %d resolved twice: %q, %v then %q, %v", base+i, body, err, again, errAgain)
			}
		}
	}
	t.Logf("seed %d: %d Cancels won, %d lost to the reply", seed, won.Load(), lost.Load())
	if won.Load() == 0 {
		t.Fatal("no Cancel beat its reply: the race was never run")
	}

	for deadline := time.Now().Add(3 * time.Second); ; {
		gp.mu.Lock()
		slots := len(gp.inflight)
		gp.mu.Unlock()
		g, gauge, left := runtime.NumGoroutine(), rt.inflightGauge.Value(), future.Outstanding()-outstanding
		if slots == 0 && gauge == 0 && left == 0 && g <= goroutines+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("left behind: %d of %d slots held, rpc.inflight %d, %d futures outstanding, %d goroutines (%d before)",
				slots, window, gauge, left, g, goroutines)
		}
		clock.Sleep(clock.Real{}, 5*time.Millisecond)
	}
}

// TestAsyncFaultSettlesOffTheReadLoop: settling a fault may call the
// GP's reference-refresh hook — a directory lookup, here one that rides
// the very connection the fault arrived on. On the read loop it would
// wait for a reply only the read loop can deliver.
func TestAsyncFaultSettlesOffTheReadLoop(t *testing.T) {
	_, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mC")
	gone, goneRef := exportEcho(t, srv)
	stay, err := srv.Export("Echo", nil, echoMethods())
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := srv.EntryStream()
	stayRef := srv.NewRef(stay, entry)
	directory := client.NewGlobalPtr(stayRef)
	if _, err := directory.Invoke("echo", nil); err != nil {
		t.Fatal(err)
	}
	gp := client.NewGlobalPtr(goneRef)
	gp.SetRefresh(func() (*ObjectRef, error) {
		if _, err := directory.Invoke("echo", []byte("lookup")); err != nil {
			return nil, err
		}
		return stayRef, nil
	})
	srv.Unexport(gone.ID(), nil)

	f := gp.InvokeAsync("upper", []byte("found"))
	select {
	case <-f.Done():
	case <-clock.After(clock.Real{}, 5*time.Second):
		t.Fatal("the refresh hook's lookup deadlocked against the read loop it ran on")
	}
	if body, err := f.Wait(); err != nil || string(body) != "FOUND" {
		t.Fatalf("%q, %v", body, err)
	}
}

// TestInvokeAsyncAllocs pins the steady-state allocations of one
// asynchronous call over shm, client and server together. The parent of
// the change that made completion a continuation spent 16; the one before
// the mux's deadline timer and the server's dispatch workers, 14.
func TestInvokeAsyncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	_, _, _, gp := asyncWorld(t, ProtoSHM, echoMethods())
	args := []byte("steady")
	call := func() {
		if _, err := gp.InvokeAsync("echo", args).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		call()
	}
	const pin = 10
	if got := testing.AllocsPerRun(2000, call); got > pin {
		t.Fatalf("%.1f allocations per asynchronous call, pinned at %d", got, pin)
	}
}

// finishedOnReadLoop is a span recorder that notes, for each send span
// (named after its protocol), whether the goroutine ending it — the one
// running finish — is a mux read loop.
type finishedOnReadLoop struct {
	obs.Recorder
	proto string
	mu    sync.Mutex
	where []bool // one per attempt, in finish order
}

func (r *finishedOnReadLoop) Record(s obs.Span) {
	if s.Name == r.proto {
		buf := make([]byte, 16<<10)
		stack := string(buf[:runtime.Stack(buf, false)])
		r.mu.Lock()
		r.where = append(r.where, strings.Contains(stack, "transport.(*Mux).readLoop"))
		r.mu.Unlock()
	}
	r.Recorder.Record(s)
}
