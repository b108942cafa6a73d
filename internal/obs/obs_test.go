package obs

import (
	"testing"
	"time"

	"openhpcxx/internal/clock"
)

// capture is a minimal recorder for tracer-level tests.
type capture struct{ spans []Span }

func (c *capture) Record(s Span) { c.spans = append(c.spans, s) }

func TestDisabledTracerCostsNothingAndMintsNothing(t *testing.T) {
	tr := NewTracer(nil)
	if tr.Enabled() {
		t.Fatal("tracer with no recorder reports enabled")
	}
	if a := tr.StartRoot(KindClient, "invoke"); a != nil {
		t.Fatal("StartRoot must return nil when disabled")
	}
	if a := tr.StartChild(7, 8, KindServer, "dispatch"); a != nil {
		t.Fatal("StartChild must return nil when disabled")
	}
	// The whole Active surface is nil-safe.
	var a *Active
	a.SetRPC("o", "m")
	a.SetProto("p", "e")
	a.SetCaps("c")
	a.SetCause("x")
	a.SetBatch(3)
	a.SetBytes(9)
	a.SetErr(nil)
	if a.TraceID() != 0 || a.SpanID() != 0 {
		t.Fatal("nil span must have zero ids")
	}
	if a.Child("sub") != nil {
		t.Fatal("nil span's child must be nil")
	}
	a.End()
}

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.Recorder() != nil {
		t.Fatal("nil tracer has a recorder")
	}
	if tr.StartChild(1, 2, KindClient, "x") != nil {
		t.Fatal("nil tracer minted a span")
	}
}

func TestRootAndChildSpansShareTrace(t *testing.T) {
	tr := NewTracer(nil)
	rec := &capture{}
	tr.SetRecorder(rec)

	root := tr.StartRoot(KindClient, "invoke")
	if root == nil {
		t.Fatal("enabled tracer returned nil root")
	}
	root.SetRPC("ctx/obj-1", "Echo")
	child := root.Child("select")
	child.SetProto("hpcx-tcp", "sim://mB:7000")
	child.End()
	// Server continues the trace from wire-carried IDs.
	srv := tr.StartChild(root.TraceID(), root.SpanID(), KindServer, "dispatch")
	srv.End()
	root.SetErr(nil)
	root.End()

	if len(rec.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(rec.spans))
	}
	for _, s := range rec.spans {
		if s.Trace != TraceID(root.TraceID()) {
			t.Fatalf("span %q trace %d, want %d", s.Name, s.Trace, root.TraceID())
		}
	}
	sel, disp, inv := rec.spans[0], rec.spans[1], rec.spans[2]
	if sel.Name != "select" || sel.Parent != inv.ID || sel.Proto != "hpcx-tcp" {
		t.Fatalf("select span: %+v", sel)
	}
	if disp.Kind != KindServer || disp.Parent != inv.ID {
		t.Fatalf("dispatch span: %+v", disp)
	}
	if inv.Name != "invoke" || inv.Object != "ctx/obj-1" || inv.Method != "Echo" || inv.Parent != 0 {
		t.Fatalf("root span: %+v", inv)
	}
	if !(inv.Seq < sel.Seq && sel.Seq < disp.Seq) {
		t.Fatalf("seq not in start order: %d %d %d", inv.Seq, sel.Seq, disp.Seq)
	}
}

func TestStartChildZeroTraceIsUntraced(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetRecorder(&capture{})
	if tr.StartChild(0, 0, KindServer, "dispatch") != nil {
		t.Fatal("zero trace id (untraced peer) must not start a span")
	}
}

func TestSpanDurationsFollowInjectedClock(t *testing.T) {
	fc := clock.NewFake(time.Unix(100, 0))
	tr := NewTracer(fc)
	rec := &capture{}
	tr.SetRecorder(rec)

	a := tr.StartRoot(KindClient, "invoke")
	fc.Advance(250 * time.Millisecond)
	a.End()
	if d := rec.spans[0].Dur; d != 250*time.Millisecond {
		t.Fatalf("span duration %v, want 250ms (simulated)", d)
	}
	if got := rec.spans[0].Start; !got.Equal(time.Unix(100, 0)) {
		t.Fatalf("span start %v, want fake epoch", got)
	}
}

func TestRecorderSwapMidSpan(t *testing.T) {
	tr := NewTracer(nil)
	first, second := &capture{}, &capture{}
	tr.SetRecorder(first)
	a := tr.StartRoot(KindClient, "invoke")
	tr.SetRecorder(second)
	a.End()
	if len(first.spans) != 0 || len(second.spans) != 1 {
		t.Fatalf("span went to wrong recorder: first=%d second=%d", len(first.spans), len(second.spans))
	}
	tr.SetRecorder(nil)
	if tr.Enabled() {
		t.Fatal("tracer still enabled after recorder removal")
	}
	b := tr.StartRoot(KindClient, "invoke")
	if b != nil {
		t.Fatal("span started while disabled")
	}
}

func TestKindString(t *testing.T) {
	if KindClient.String() != "client" || KindServer.String() != "server" {
		t.Fatalf("kind strings: %q %q", KindClient, KindServer)
	}
}

func TestSetErrRecordsMessage(t *testing.T) {
	tr := NewTracer(nil)
	rec := &capture{}
	tr.SetRecorder(rec)
	a := tr.StartRoot(KindClient, "invoke")
	a.SetErr(errTest)
	a.End()
	if rec.spans[0].Err != "boom" {
		t.Fatalf("err %q", rec.spans[0].Err)
	}
}

var errTest = errSentinel("boom")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

// BenchmarkUntracedStartRoot measures the no-recorder fast path the
// invocation hot path pays per call: one nil check and one atomic load.
// The acceptance bar is "a few hundred ns" — this is a few ns.
func BenchmarkUntracedStartRoot(b *testing.B) {
	tr := NewTracer(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := tr.StartRoot(KindClient, "invoke")
		a.SetRPC("o", "m")
		a.SetBytes(16)
		a.SetErr(nil)
		a.End()
	}
}

// BenchmarkTracedSpan measures the full record path with a ring
// recorder installed.
func BenchmarkTracedSpan(b *testing.B) {
	tr := NewTracer(nil)
	tr.SetRecorder(NewStore(StoreOptions{MaxSpans: 1024}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := tr.StartRoot(KindClient, "invoke")
		a.SetRPC("o", "m")
		a.End()
	}
}
