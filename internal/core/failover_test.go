package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/health"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/obs/obstest"
	"openhpcxx/internal/wire"
)

// failoverWorld builds a primary/backup pair of server contexts hosting
// the same echo object under one id, plus a client whose reference's
// protocol table is the failover chain [primary, backup].
func failoverWorld(t *testing.T) (n *netsim.Network, rt *Runtime, primary, backup, client *Context, gp *GlobalPtr) {
	t.Helper()
	n, rt = testWorld(t)
	primary, _ = rt.NewContext("primary", "mA")
	backup, _ = rt.NewContext("backup", "mB")
	client, _ = rt.NewContext("client", "mC")
	const port = 7201
	if err := primary.BindSim(port); err != nil {
		t.Fatal(err)
	}
	if err := backup.BindSim(0); err != nil {
		t.Fatal(err)
	}
	s, err := primary.ExportAs("shared/echo", "Echo", nil, echoMethods(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backup.ExportAs("shared/echo", "Echo", nil, echoMethods(), 0); err != nil {
		t.Fatal(err)
	}
	pe, _ := primary.EntryStream()
	be, _ := backup.EntryStream()
	gp = client.NewGlobalPtr(primary.NewRef(s, pe, be))
	return n, rt, primary, backup, client, gp
}

// primaryPort extracts the fixed port the primary bound (for re-binding
// after a restart).
const failoverPrimaryPort = 7201

func TestServerShedsExpiredRequests(t *testing.T) {
	_, rt := testWorld(t)
	ctx, _ := rt.NewContext("srv", "mA")
	s, err := ctx.Export("Echo", nil, echoMethods())
	if err != nil {
		t.Fatal(err)
	}
	before := rt.Metrics().Counter("srv.expired").Value()
	reply := ctx.Dispatch(&wire.Message{
		Type:     wire.TRequest,
		Object:   string(s.ID()),
		Method:   "echo",
		Deadline: rt.Clock().Now().Add(-time.Second).UnixNano(),
		Body:     []byte("late"),
	})
	if reply == nil || reply.Type != wire.TFault {
		t.Fatalf("expired request got %+v, want a fault", reply)
	}
	var f *wire.Fault
	if err := wire.DecodeFault(reply.Body); !errors.As(err, &f) || f.Code != wire.FaultExpired {
		t.Fatalf("fault %v, want FaultExpired", err)
	}
	if rt.Metrics().Counter("srv.expired").Value() != before+1 {
		t.Fatal("srv.expired metric not incremented")
	}
	if s.Calls() != 0 {
		t.Fatal("servant executed an expired request")
	}
	// A request with a future deadline executes normally.
	reply = ctx.Dispatch(&wire.Message{
		Type:     wire.TRequest,
		Object:   string(s.ID()),
		Method:   "echo",
		Deadline: rt.Clock().Now().Add(time.Hour).UnixNano(),
		Body:     []byte("ok"),
	})
	if reply == nil || reply.Type != wire.TReply || string(reply.Body) != "ok" {
		t.Fatalf("in-deadline request got %+v", reply)
	}
}

func TestDefaultDeadlineTravelsAndExpires(t *testing.T) {
	_, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mC")
	_, ref := exportEcho(t, srv)
	gp := client.NewGlobalPtr(ref)
	// An already-expired default deadline: the server sheds the request
	// and the client sees the terminal FaultExpired (no futile retries).
	gp.SetDefaultDeadline(time.Nanosecond)
	_, err := gp.Invoke("echo", []byte("x"))
	var f *wire.Fault
	if !errors.As(err, &f) || f.Code != wire.FaultExpired {
		t.Fatalf("err = %v, want FaultExpired", err)
	}
	// Clearing the default restores normal service.
	gp.SetDefaultDeadline(0)
	if _, err := gp.Invoke("echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestInvokeCtxCancelsMidFlight(t *testing.T) {
	_, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mC")
	if err := srv.BindSim(0); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	methods := map[string]Method{
		"block": func(args []byte) ([]byte, error) { <-release; return args, nil },
	}
	s, err := srv.Export("Blocker", nil, methods)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := srv.EntryStream()
	gp := client.NewGlobalPtr(srv.NewRef(s, e))

	start := time.Now()
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		_, err = gp.InvokeCtx(ctx, "block", nil)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: err = %v, want DeadlineExceeded", i, err)
		}
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not interrupt the in-flight calls")
	}
	// Each deadline expiry mid-flight demoted the endpoint; two in a row
	// trip its breaker (default threshold).
	key := entryHealthKey(gp.Ref().Protocols[0])
	if rt.Health().State(key) != health.Open {
		t.Fatalf("overdue endpoint's breaker is %v, want Open after repeated expiries", rt.Health().State(key))
	}
}

func TestInvokeCtxPreCancelled(t *testing.T) {
	_, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mC")
	_, ref := exportEcho(t, srv)
	gp := client.NewGlobalPtr(ref)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := gp.InvokeCtx(ctx, "echo", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// TestFailoverCrashRestartNoLostRequests is the deterministic acceptance
// scenario: every non-expired request issued through a machine crash
// completes (the ordered protocol table serves as the failover chain),
// and after restart plus one probe pass the GP is promoted back to the
// preferred entry.
func TestFailoverCrashRestartNoLostRequests(t *testing.T) {
	n, rt, primary, backup, _, gp := failoverWorld(t)
	_ = backup

	for i := 0; i < 5; i++ {
		if _, err := gp.Invoke("echo", []byte("pre")); err != nil {
			t.Fatalf("pre-crash call %d: %v", i, err)
		}
	}
	if idx, _, err := gp.SelectedEntry(); err != nil || idx != 0 {
		t.Fatalf("bound to table[%d] (%v), want the primary", idx, err)
	}

	n.Crash("mA")
	// Every call through the outage still completes: transport errors
	// demote the primary's breaker and the retry falls through to the
	// backup entry — zero lost requests.
	for i := 0; i < 10; i++ {
		if _, err := gp.Invoke("echo", []byte("during")); err != nil {
			t.Fatalf("call %d during the outage was lost: %v", i, err)
		}
	}
	if idx, _, err := gp.SelectedEntry(); err != nil || idx != 1 {
		t.Fatalf("bound to table[%d] (%v) during the outage, want the backup", idx, err)
	}
	pKey := entryHealthKey(gp.Ref().Protocols[0])
	if rt.Health().State(pKey) != health.Open {
		t.Fatalf("primary breaker %v during the outage, want Open", rt.Health().State(pKey))
	}

	// Supervisor restarts the machine and re-binds the advertised port.
	n.Restart("mA")
	if err := primary.BindSim(failoverPrimaryPort); err != nil {
		t.Fatalf("re-bind after restart: %v", err)
	}
	// One deterministic probe pass re-closes the breaker...
	rt.Health().ProbeNow()
	if rt.Health().State(pKey) != health.Closed {
		t.Fatalf("primary breaker %v after probe, want Closed", rt.Health().State(pKey))
	}
	// ...and the next invocation is promoted back to the preferred entry.
	pCalls := mustServant(t, primary, "shared/echo").Calls()
	if _, err := gp.Invoke("echo", []byte("post")); err != nil {
		t.Fatalf("post-restart call: %v", err)
	}
	if idx, _, err := gp.SelectedEntry(); err != nil || idx != 0 {
		t.Fatalf("bound to table[%d] (%v) after recovery, want the primary", idx, err)
	}
	if got := mustServant(t, primary, "shared/echo").Calls(); got != pCalls+1 {
		t.Fatalf("primary served %d calls after recovery, want %d", got, pCalls+1)
	}
}

func mustServant(t *testing.T, ctx *Context, id ObjectID) *Servant {
	t.Helper()
	s, ok := ctx.Servant(id)
	if !ok {
		t.Fatalf("no servant %s in %s", id, ctx.Name())
	}
	return s
}

// TestDrainTripsBreakerAndFailsOver covers the deliberate-refusal path:
// a draining context answers FaultUnavailable, which trips the breaker
// outright, and the retry lands on the backup without losing the call.
// The failover itself is asserted on the invocation's trace: one trace,
// a retry span caused by "unavailable", and the backup's server spans
// joined to it.
func TestDrainTripsBreakerAndFailsOver(t *testing.T) {
	_, rt, primary, backup, _, gp := failoverWorld(t)
	if _, err := gp.Invoke("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	col := obstest.Attach(t, rt.Tracer())
	primary.Drain()
	if _, err := gp.Invoke("echo", []byte("lame-duck")); err != nil {
		t.Fatalf("call against a draining primary was lost: %v", err)
	}
	tr := col.TraceOf(t, obstest.Root("echo"))
	obstest.AssertRetried(t, tr, "unavailable")
	obstest.AssertConnected(t, tr)
	// The primary's refusal and the backup's service are the same trace.
	// The refusal is the primary's dispatch span, with cause "draining"
	// and no servant under it (the context is the one lame duck), then
	// retry, re-select, and a served dispatch on the backup.
	obstest.AssertPath(t, tr, "invoke→select→decode→dispatch→retry→select→decode→dispatch→servant")
	if d := obstest.Named(tr, "dispatch"); len(d) != 2 || d[0].Cause != "draining" || d[0].Err == "" || d[1].Cause != "" {
		t.Fatalf("dispatch spans, want a refusal with cause draining, then service:\n%s", obstest.Format(d))
	}
	if got := mustServant(t, backup, "shared/echo").Calls(); got == 0 {
		t.Fatal("backup never served the failed-over call")
	}
	pKey := entryHealthKey(gp.Ref().Protocols[0])
	if rt.Health().State(pKey) != health.Open {
		t.Fatalf("draining primary's breaker %v, want Open (tripped, not counted)", rt.Health().State(pKey))
	}
}

// TestFailoverDisabledKeepsPreferredEntry pins the control mode the
// Figure R1 experiment compares against: with failover off, health state
// never vetoes selection and calls against a dead primary fail.
func TestFailoverDisabledKeepsPreferredEntry(t *testing.T) {
	n, rt, _, _, _, gp := failoverWorld(t)
	rt.SetFailover(false)
	if _, err := gp.Invoke("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	n.Crash("mA")
	if _, err := gp.Invoke("echo", []byte("doomed")); err == nil {
		t.Fatal("call against the crashed primary succeeded with failover off")
	}
	if idx, _, err := gp.SelectedEntry(); err != nil || idx != 0 {
		t.Fatalf("bound to table[%d] (%v), want the preferred entry pinned", idx, err)
	}
}

// TestSharedGlobalPtrCrashRestartStress hammers one shared GP from many
// goroutines while the primary machine crashes and restarts repeatedly —
// the -race regression for the failover machinery. With a healthy backup
// in the table no request may be lost.
func TestSharedGlobalPtrCrashRestartStress(t *testing.T) {
	n, rt, primary, _, _, gp := failoverWorld(t)
	// Fast, bounded probes so recovery happens inside the test.
	rt.SetHealthOptions(health.Options{ProbeInterval: 5 * time.Millisecond, ProbeTimeout: 200 * time.Millisecond})

	const (
		workers = 8
		perGoro = 30
		cycles  = 3
	)
	var failures atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				_, err := gp.InvokeCtx(ctx, "echo", []byte{byte(w), byte(i)})
				cancel()
				if err != nil {
					failures.Add(1)
					t.Errorf("worker %d call %d lost: %v", w, i, err)
					return
				}
				clock.Sleep(clock.Real{}, time.Millisecond)
			}
		}(w)
	}

	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		for c := 0; c < cycles; c++ {
			clock.Sleep(clock.Real{}, 8*time.Millisecond)
			n.Crash("mA")
			clock.Sleep(clock.Real{}, 8*time.Millisecond)
			n.Restart("mA")
			_ = primary.BindSim(failoverPrimaryPort)
		}
	}()

	wg.Wait()
	chaosWG.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d requests lost through crash/restart cycles", failures.Load())
	}
}

// TestInvokeAsyncCtxCancellation: a cancelled context fails the future
// with the context's error instead of leaving it pending.
func TestInvokeAsyncCtxCancellation(t *testing.T) {
	_, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mC")
	if err := srv.BindSim(0); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	methods := map[string]Method{
		"block": func(args []byte) ([]byte, error) { <-release; return args, nil },
		"echo":  func(args []byte) ([]byte, error) { return args, nil },
	}
	s, err := srv.Export("Blocker", nil, methods)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := srv.EntryStream()
	gp := client.NewGlobalPtr(srv.NewRef(s, e))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	f := gp.InvokeAsyncCtx(ctx, "block", nil)
	if _, err := f.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("future error = %v, want DeadlineExceeded", err)
	}
	// The GP still works for later calls.
	if _, err := gp.Invoke("echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

// TestSyncTimeoutKeepsSharedConnection: a synchronous call that hits the
// mux's per-call timeout fails alone. The connection it shared stays up,
// so an asynchronous call already in flight on it completes, its method
// run once, with no transport error of its own.
func TestSyncTimeoutKeepsSharedConnection(t *testing.T) {
	_, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mC")
	if err := srv.BindSim(0); err != nil {
		t.Fatal(err)
	}
	stall, gate, entered := make(chan struct{}), make(chan struct{}), make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(func() { close(stall); openGate() })
	var gated atomic.Int32
	s, err := srv.Export("Staller", nil, map[string]Method{
		"stall": func(args []byte) ([]byte, error) { <-stall; return args, nil },
		"gate": func(args []byte) ([]byte, error) {
			if gated.Add(1) == 1 {
				close(entered)
			}
			<-gate
			return args, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := srv.EntryStream()
	ref := srv.NewRef(s, e)
	fut := client.NewGlobalPtr(ref).InvokeAsync("gate", []byte("a"))
	<-entered

	addr, _ := srv.Binding(ProtoStream)
	mux, err := client.muxes.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	mux.SetTimeout(20 * time.Millisecond) // the async call keeps the timeout it began with
	caller := client.NewGlobalPtr(ref)
	caller.SetRetryBudget(RetryBudgetConfig{MaxTokens: 0.5}) // one attempt: no token for a retry
	before := readEngineCounts(rt, ProtoStream).transportErrors
	var be *errs.BudgetExhausted
	if _, err := caller.Invoke("stall", nil); !errors.As(err, &be) || be.Code != errs.Expired {
		t.Fatalf("sync call to a stalled method: %v, want a timeout", err)
	}
	openGate()
	if body, err := fut.Wait(); err != nil || string(body) != "a" {
		t.Fatalf("async call on the shared connection: %q, %v", body, err)
	}
	if got := gated.Load(); got != 1 {
		t.Fatalf("async method ran %d times, want 1", got)
	}
	if got := readEngineCounts(rt, ProtoStream).transportErrors - before; got != 1 {
		t.Fatalf("%d transport errors, want 1 (the sync timeout alone)", got)
	}
}
