package obstest_test

import (
	"strings"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/obs/obstest"
)

// fakeTrace records a synthetic connected trace: client invoke with
// select and send spans, server dispatch and servant spans.
func fakeTrace(tr *obs.Tracer) obs.TraceID {
	root := tr.StartRoot(obs.KindClient, "invoke")
	root.SetRPC("ctx/obj-1", "echo")
	sel := root.Child("select")
	sel.SetProto("hpcx-tcp", "sim://mB:7000")
	sel.End()
	send := root.Child("hpcx-tcp")
	srv := tr.StartChild(root.TraceID(), root.SpanID(), obs.KindServer, "dispatch")
	sv := srv.Child("servant")
	sv.End()
	srv.End()
	send.End()
	root.End()
	return root.TraceID()
}

func TestCollectorTraceOfAndAsserts(t *testing.T) {
	tr := obs.NewTracer(nil)
	col := obstest.Attach(t, tr)
	id := fakeTrace(tr)

	trace := col.TraceOf(t, obstest.Root("echo"))
	if trace[0].Trace != id {
		t.Fatalf("trace id %d, want %d", trace[0].Trace, id)
	}
	obstest.AssertPath(t, trace, "invoke→select→hpcx-tcp→dispatch→servant")
	obstest.AssertPath(t, trace, "invoke->dispatch") // ASCII arrows, subsequence
	obstest.AssertConnected(t, trace)
	obstest.AssertNotBatched(t, trace)
}

func TestWaitForSpansWakesWithoutPolling(t *testing.T) {
	tr := obs.NewTracer(nil)
	col := obstest.Attach(t, tr)
	go func() {
		clock.Sleep(clock.Real{}, 5*time.Millisecond)
		fakeTrace(tr)
	}()
	spans := col.WaitForSpans(t, "servant", 1, 2*time.Second)
	if len(spans) != 1 {
		t.Fatalf("got %d servant spans", len(spans))
	}
}

func TestAssertRetriedAndBatched(t *testing.T) {
	tr := obs.NewTracer(nil)
	col := obstest.Attach(t, tr)

	root := tr.StartRoot(obs.KindClient, "invoke")
	rs := root.Child("retry")
	rs.SetCause("unavailable")
	rs.End()
	bs := root.Child("batch")
	bs.SetBatch(4)
	bs.End()
	root.End()

	trace := col.TraceOf(t, obstest.Root(""))
	retries := obstest.AssertRetried(t, trace, "unavailable")
	if len(retries) != 1 {
		t.Fatalf("%d retries", len(retries))
	}
	obstest.AssertBatched(t, trace, 4)
	obstest.AssertBatched(t, trace, 0) // "any real batch"
}

func TestResetAndNamed(t *testing.T) {
	tr := obs.NewTracer(nil)
	col := obstest.Attach(t, tr)
	fakeTrace(tr)
	col.Reset()
	if len(col.Spans()) != 0 {
		t.Fatal("reset did not clear collector")
	}
	fakeTrace(tr)
	if got := obstest.Named(col.Spans(), "select"); len(got) != 1 {
		t.Fatalf("%d select spans after reset", len(got))
	}
}

func TestAttachRestoresPreviousRecorder(t *testing.T) {
	tr := obs.NewTracer(nil)
	ring := obs.NewStore(obs.StoreOptions{MaxSpans: 8})
	tr.SetRecorder(ring)
	t.Run("inner", func(t *testing.T) {
		obstest.Attach(t, tr)
		fakeTrace(tr)
	})
	if tr.Recorder() != obs.Recorder(ring) {
		t.Fatal("Attach cleanup did not restore the previous recorder")
	}
}

func TestFormatMentionsKeyFields(t *testing.T) {
	spans := []obs.Span{{
		Kind: obs.KindClient, Trace: 3, Seq: 1, Name: "retry",
		Object: "o", Method: "m", Proto: "shm", Caps: "quota", Cause: "transport", Batch: 2, Err: "boom",
	}}
	out := obstest.Format(spans)
	for _, want := range []string{"retry", "o.m", "proto=shm", "caps=quota", "cause=transport", "batch=2", `err="boom"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
}

func TestAssertRetainedAndDroppedByPolicy(t *testing.T) {
	tk := obs.NewStore(obs.StoreOptions{
		Tail:     true,
		MaxSpans: 64,
		MinSlow:  time.Hour,
		Baseline: -1,
	})
	tr := obs.NewTracer(nil)
	tr.SetRecorder(tk)

	// An errored trace is retained, a healthy one is dropped normal.
	bad := tr.StartRoot(obs.KindClient, "invoke")
	bad.SetErr(errFake{})
	bad.End()
	good := tr.StartRoot(obs.KindClient, "invoke")
	good.End()

	obstest.AssertRetained(t, tk, bad.TraceID(), obs.PolicyError)
	obstest.AssertRetained(t, tk, bad.TraceID(), "") // any policy
	obstest.AssertDroppedByPolicy(t, tk, obs.DropNormal, 1)
}

type errFake struct{}

func (errFake) Error() string { return "fake" }

// TestScrapeWhileSampling is the -race regression for the keeper as a
// store: concurrent recording, hint queries, and every read surface.
func TestScrapeWhileSampling(t *testing.T) {
	tk := obs.NewStore(obs.StoreOptions{Tail: true, MaxSpans: 128, Baseline: 2})
	tr := obs.NewTracer(nil)
	tr.SetRecorder(tk)

	stop := make(chan struct{})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				root := tr.StartRoot(obs.KindClient, "invoke")
				c := root.Child("send")
				c.End()
				if (g+i)%7 == 0 {
					root.SetErr(errFake{})
				}
				tr.KeepHintFor(root.TraceID())
				root.End()
			}
		}(g)
	}
	// Scrape until the writers have demonstrably produced traffic (at
	// least 200 scrape rounds either way), so the storm really overlaps.
	for i := 0; i < 200 || tk.Total() == 0; i++ {
		tk.Spans()
		tk.Stats()
		tk.Total()
		_, _, _ = tk.SnapshotSince(0)
		_ = tk.WriteJSON(discard{})
		tk.FlushIdle()
	}
	close(stop)
	for g := 0; g < 4; g++ {
		<-done
	}
	if tk.Stats().TotalSpans == 0 {
		t.Fatal("no spans recorded during the scrape storm")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
