package core

import (
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/future"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/obs/obstest"
	"openhpcxx/internal/transport"
)

// These tests are the acceptance checks for end-to-end invocation
// tracing: every sync, async, one-way, batched, and failover-retried
// invocation yields ONE connected trace — client-side spans and
// server-side spans share the trace ID that traveled in the wire
// header.

func TestSyncInvokeYieldsConnectedTrace(t *testing.T) {
	_, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mC")
	_, ref := exportEcho(t, srv)
	gp := client.NewGlobalPtr(ref)
	col := obstest.Attach(t, rt.Tracer())

	if _, err := gp.Invoke("echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// A sync Invoke returns only after the reply round trip, so the
	// whole trace — including the server half — is already collected.
	tr := col.TraceOf(t, obstest.Root("echo"))
	obstest.AssertConnected(t, tr)
	obstest.AssertPath(t, tr, "invoke→select→hpcx-tcp→decode→dispatch→servant")
	obstest.AssertNotBatched(t, tr)

	root := tr[0]
	if root.Name != "invoke" || root.Method != "echo" || root.Object == "" {
		t.Fatalf("root span: %+v", root)
	}
	for _, s := range tr {
		if s.Name == "select" && s.Proto != string(ProtoStream) {
			t.Fatalf("select span chose proto %q, want %q", s.Proto, ProtoStream)
		}
	}
}

func TestAsyncInvokeYieldsConnectedTrace(t *testing.T) {
	_, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mC")
	_, ref := exportEcho(t, srv)
	gp := client.NewGlobalPtr(ref)
	col := obstest.Attach(t, rt.Tracer())

	f := gp.InvokeAsync("upper", []byte("x"))
	if body, err := f.Wait(); err != nil || string(body) != "X" {
		t.Fatalf("async echo: %q %v", body, err)
	}
	// The root span ends on the settle goroutine, which may run after
	// the future resolves — wait on the collector, never on the clock.
	col.WaitForSpans(t, "invoke", 1, 5*time.Second)
	tr := col.TraceOf(t, obstest.Root("upper"))
	obstest.AssertConnected(t, tr)
	obstest.AssertPath(t, tr, "invoke→select→hpcx-tcp→decode→dispatch→servant")
}

func TestPostYieldsConnectedTrace(t *testing.T) {
	_, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mC")
	_, ref := exportEcho(t, srv)
	gp := client.NewGlobalPtr(ref)
	col := obstest.Attach(t, rt.Tracer())

	if err := gp.Post("echo", []byte("fire-and-forget")); err != nil {
		t.Fatal(err)
	}
	// One-way: the server half lands whenever the frame is handled.
	col.WaitForSpans(t, "servant", 1, 5*time.Second)
	tr := col.TraceOf(t, func(s obs.Span) bool {
		return s.Name == "post" && s.Parent == 0
	})
	obstest.AssertConnected(t, tr)
	obstest.AssertPath(t, tr, "post→select→hpcx-tcp→servant")
}

func TestBatchedInvocationsEachCarryBatchSpan(t *testing.T) {
	_, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mC")
	_, ref := exportEcho(t, srv)
	gp := client.NewGlobalPtr(ref)
	gp.SetBatchPolicy(&transport.BatchPolicy{MaxMessages: 8, MaxDelay: 2 * time.Millisecond})
	col := obstest.Attach(t, rt.Tracer())

	const n = 32
	fs := make([]*future.Future, n)
	for i := range fs {
		fs[i] = gp.InvokeAsync("echo", []byte{byte(i)})
	}
	if err := future.WaitAll(fs...); err != nil {
		t.Fatal(err)
	}
	// All n roots ended means all n settles ran to completion.
	col.WaitForSpans(t, "invoke", n, 5*time.Second)
	spans := col.WaitFor(t, 5*time.Second, "a coalesced batch span", func(spans []obs.Span) bool {
		for _, s := range spans {
			if s.Name == "batch" && s.Batch >= 2 {
				return true
			}
		}
		return false
	})
	// Pick one rider that was coalesced and check its whole trace is
	// still a single connected invocation.
	var batched obs.Span
	for _, s := range spans {
		if s.Name == "batch" && s.Batch >= 2 {
			batched = s
			break
		}
	}
	tr := obstest.Trace(spans, batched.Trace)
	obstest.AssertBatched(t, tr, 2)
	obstest.AssertConnected(t, tr)
	obstest.AssertPath(t, tr, "invoke→batch→servant")
}

// TestFailoverRetryYieldsSingleTrace pins the retry span contract: a
// crashed primary produces retry spans with a transport cause inside
// the SAME trace that finally lands on the backup.
func TestFailoverRetryYieldsSingleTrace(t *testing.T) {
	n, rt, _, _, _, gp := failoverWorld(t)
	if _, err := gp.Invoke("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	col := obstest.Attach(t, rt.Tracer())
	n.Crash("mA")

	if _, err := gp.Invoke("echo", []byte("during")); err != nil {
		t.Fatalf("call during the outage was lost: %v", err)
	}
	tr := col.TraceOf(t, obstest.Root("echo"))
	obstest.AssertConnected(t, tr)
	retries := obstest.AssertRetried(t, tr, "")
	for _, r := range retries {
		if r.Cause == "" {
			t.Fatalf("retry span with no cause: %+v", r)
		}
	}
	// The eventual server half (the backup) shares the client's trace.
	obstest.AssertPath(t, tr, "invoke→select→retry→select→dispatch→servant")
}

// TestTailKeeperEndToEndRetention drives real invocations through a
// runtime whose recorder is a tail store: the errored invocation's
// whole trace (client and server halves) is retained, the healthy
// invocation against a high slow bar is dropped — the tail-based
// policy applied to live wire traffic, not synthetic spans.
func TestTailKeeperEndToEndRetention(t *testing.T) {
	_, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mC")
	_, ref := exportEcho(t, srv)
	gp := client.NewGlobalPtr(ref)

	tk := obs.NewStore(obs.StoreOptions{
		Tail:     true,
		MaxSpans: 512,
		MinSlow:  time.Hour, // nothing is slow; only errors survive
		Baseline: -1,        // no baseline reservoir
		Clock:    rt.Clock(),
	})
	rt.Tracer().SetRecorder(tk)
	defer rt.Tracer().SetRecorder(nil)

	if _, err := gp.Invoke("echo", []byte("fine")); err != nil {
		t.Fatal(err)
	}
	if _, err := gp.Invoke("fail", []byte("x")); err == nil {
		t.Fatal("fail method did not fail")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if tr := findKeptRoot(tk, "invoke"); tr != 0 {
			if got := tk.Policy(tr); got != obs.PolicyError {
				t.Fatalf("kept policy %q, want %q", got, obs.PolicyError)
			}
			spans := tk.Trace(tr)
			names := make(map[string]bool, len(spans))
			for _, s := range spans {
				names[s.Name] = true
			}
			if !names["invoke"] || !names["dispatch"] {
				t.Fatalf("retained trace missing client or server half: %v", names)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("errored trace never retained; stats %+v", tk.Stats())
		}
		clock.Sleep(clock.Real{}, time.Millisecond)
	}

	// The healthy echo must NOT be retained: every kept root is the
	// errored invocation's.
	for _, s := range tk.Spans() {
		if s.Parent == 0 && s.Err == "" {
			t.Fatalf("healthy trace retained: %+v", s)
		}
	}
}

// findKeptRoot returns the trace ID of a kept root span with the given
// name and a recorded error, or 0.
func findKeptRoot(tk *obs.Store, name string) obs.TraceID {
	for _, s := range tk.Spans() {
		if s.Parent == 0 && s.Name == name && s.Err != "" {
			return s.Trace
		}
	}
	return 0
}
