package obs

import (
	"strings"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/stats"
)

// mkSpan builds a hinted span; id doubles as trace, span, and seq so
// tests read naturally.
func mkSpan(trace TraceID, id SpanID, parent SpanID, dur time.Duration) Span {
	return Span{Trace: trace, ID: id, Parent: parent, Seq: uint64(id), Hint: true, Dur: dur}
}

func TestTailKeeperKeepsErroredTrace(t *testing.T) {
	k := NewStore(StoreOptions{Tail: true, Baseline: -1, MinSlow: time.Hour})
	child := mkSpan(1, 11, 10, time.Millisecond)
	child.Err = "boom"
	k.Record(child)
	k.Record(mkSpan(1, 10, 0, 2*time.Millisecond)) // root ends last
	if got := k.Spans(); len(got) != 2 {
		t.Fatalf("kept %d spans, want 2", len(got))
	}
	if k.Policy(1) != PolicyError {
		t.Fatalf("policy %q, want %q", k.Policy(1), PolicyError)
	}
	st := k.Stats()
	if st.KeptTraces[PolicyError] != 1 || st.KeptSpans != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTailKeeperDropsNormalKeepsSlow(t *testing.T) {
	k := NewStore(StoreOptions{Tail: true, Baseline: -1, MinSlow: 10 * time.Millisecond})
	k.Record(mkSpan(1, 10, 0, time.Millisecond)) // fast: dropped
	k.Record(mkSpan(2, 20, 0, 50*time.Millisecond))
	if k.Policy(1) != "" || k.Policy(2) != PolicySlow {
		t.Fatalf("policies %q/%q", k.Policy(1), k.Policy(2))
	}
	st := k.Stats()
	if st.DroppedTraces[DropNormal] != 1 || st.KeptTraces[PolicySlow] != 1 {
		t.Fatalf("stats %+v", st)
	}
	if got := k.Trace(2); len(got) != 1 || got[0].Trace != 2 {
		t.Fatalf("Trace(2) = %+v", got)
	}
}

// The moving p99 adapts: after a window of 1ms roots, a 100ms root is
// slow with no explicit floor configured.
func TestTailKeeperMovingP99(t *testing.T) {
	k := NewStore(StoreOptions{Tail: true, Baseline: -1})
	for i := TraceID(1); i <= 200; i++ {
		k.Record(mkSpan(i, SpanID(i*100), 0, time.Millisecond))
	}
	k.Record(mkSpan(999, 99900, 0, 100*time.Millisecond))
	if k.Policy(999) != PolicySlow {
		t.Fatalf("100ms root not kept as slow; policy %q", k.Policy(999))
	}
	// 1ms roots are within the window's p99 bucket: not slow. (The very
	// first roots may be kept while the window is cold; check the last.)
	if k.Policy(200) == PolicySlow {
		t.Fatal("1ms root kept as slow against a 1ms window")
	}
}

func TestTailKeeperBaselineReservoir(t *testing.T) {
	k := NewStore(StoreOptions{Tail: true, Baseline: 4, MinSlow: time.Hour, Seed: 7})
	for i := TraceID(1); i <= 500; i++ {
		k.Record(mkSpan(i, SpanID(i*100), 0, time.Millisecond))
	}
	st := k.Stats()
	base := st.KeptTraces[PolicyBaseline]
	if base == 0 {
		t.Fatal("reservoir kept no baseline traces")
	}
	// Admission probability decays as slots/i: far fewer than all 500.
	if base > 100 {
		t.Fatalf("reservoir kept %d of 500 normal traces", base)
	}
	if base+st.DroppedTraces[DropNormal] != 500 {
		t.Fatalf("accounting leak: %+v", st)
	}
}

func TestTailKeeperDiscardsUnhinted(t *testing.T) {
	k := NewStore(StoreOptions{Tail: true})
	s := mkSpan(5, 51, 50, time.Millisecond)
	s.Hint = false
	k.Record(s)
	st := k.Stats()
	if st.PendingSpans != 0 || st.DroppedTraces[DropUnhinted] != 1 || st.DroppedSpans != 1 {
		t.Fatalf("unhinted span was buffered: %+v", st)
	}
	if k.Total() != 1 {
		t.Fatalf("total %d", k.Total())
	}
}

func TestTailKeeperOverflowEvictsOldest(t *testing.T) {
	// MaxSpans 8: pending budget 4, kept budget 4.
	k := NewStore(StoreOptions{Tail: true, MaxSpans: 8, Baseline: -1, MinSlow: time.Hour})
	for i := TraceID(1); i <= 6; i++ {
		k.Record(mkSpan(i, SpanID(i*100+1), SpanID(i*100), time.Millisecond)) // rootless
	}
	st := k.Stats()
	if st.PendingSpans != 4 {
		t.Fatalf("pending %d, want 4", st.PendingSpans)
	}
	if st.DroppedTraces[DropOverflow] != 2 {
		t.Fatalf("overflow drops %d, want 2 (stats %+v)", st.DroppedTraces[DropOverflow], st)
	}
	// Saturated: new traces should not be hinted.
	if k.KeepHint(999) {
		t.Fatal("KeepHint said yes while the pending budget is full")
	}
	// A pending trace is still a candidate; an evicted one is not.
	if !k.KeepHint(6) {
		t.Fatal("KeepHint said no for a pending trace")
	}
	if k.KeepHint(1) {
		t.Fatal("KeepHint said yes for an evicted trace")
	}
}

// Regression: the creation-order queue must not accumulate the ids of
// decided traces. In normal operation every trace is decided at root
// end and the pending budget never overflows, so without compaction the
// queue grows by one id per trace forever — unbounded memory in a
// recorder documented as hard-bounded.
func TestTailKeeperQueueCompacts(t *testing.T) {
	k := NewStore(StoreOptions{Tail: true, Baseline: -1, MinSlow: time.Hour})
	const traces = 10_000
	for i := TraceID(1); i <= traces; i++ {
		k.Record(mkSpan(i, SpanID(i*100), 0, time.Millisecond)) // root: decided immediately
	}
	k.mu.Lock()
	qlen, plen := len(k.queue), len(k.pending)
	k.mu.Unlock()
	if plen != 0 {
		t.Fatalf("pending %d, want 0", plen)
	}
	// Compaction triggers once stale ids dominate; anything near the
	// trace count means decided ids are leaking.
	if qlen >= 128 {
		t.Fatalf("queue holds %d ids after %d decided traces", qlen, traces)
	}
}

func TestTailKeeperStragglerFollowsDecision(t *testing.T) {
	k := NewStore(StoreOptions{Tail: true, Baseline: -1, MinSlow: 10 * time.Millisecond})
	root := mkSpan(1, 10, 0, 50*time.Millisecond)
	root.Err = "late"
	k.Record(root) // decided: kept (error)
	k.Record(mkSpan(1, 12, 10, time.Millisecond))
	if got := k.Spans(); len(got) != 2 {
		t.Fatalf("straggler not appended: %d spans", len(got))
	}
	// Straggler of a dropped trace stays dropped.
	k.Record(mkSpan(2, 20, 0, time.Millisecond))
	k.Record(mkSpan(2, 22, 20, time.Millisecond))
	if got := k.Trace(2); len(got) != 0 {
		t.Fatalf("dropped trace retained %d spans", len(got))
	}
}

func TestTailKeeperIdleFlushDecidesRootless(t *testing.T) {
	fc := clock.NewFake(time.Unix(100, 0))
	k := NewStore(StoreOptions{Tail: true, Clock: fc, IdleFlush: time.Second, Baseline: -1, MinSlow: time.Hour})
	errSpan := mkSpan(1, 11, 5, time.Millisecond) // parent is remote: no local root
	errSpan.Err = "server boom"
	k.Record(errSpan)
	k.Record(mkSpan(2, 21, 6, time.Millisecond)) // healthy rootless trace
	k.FlushIdle()                                // not idle yet: nothing decided
	if st := k.Stats(); st.PendingSpans != 2 {
		t.Fatalf("early flush decided traces: %+v", st)
	}
	fc.Advance(time.Second)
	k.FlushIdle()
	st := k.Stats()
	if st.PendingSpans != 0 {
		t.Fatalf("idle traces not flushed: %+v", st)
	}
	if st.KeptTraces[PolicyError] != 1 || st.DroppedTraces[DropNormal] != 1 {
		t.Fatalf("idle decisions wrong: %+v", st)
	}
}

// The background loop wakes on the injected clock and flushes idle
// traces without any real sleeping; Close provably stops it.
func TestTailKeeperFlushLoop(t *testing.T) {
	fc := clock.NewFake(time.Unix(100, 0))
	k := NewStore(StoreOptions{Tail: true, Clock: fc, IdleFlush: time.Second, Baseline: -1, MinSlow: time.Hour})
	s := mkSpan(1, 11, 5, time.Millisecond)
	s.Err = "x"
	k.Record(s)
	k.Start()
	// Wait until the loop is parked on the fake clock, then advance
	// past the idle window twice (arm, then decide).
	for fc.Waiters() == 0 {
		clock.Sleep(clock.Real{}, 100*time.Microsecond)
	}
	fc.Advance(time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for k.Stats().PendingSpans != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("loop never flushed: %+v", k.Stats())
		}
		for fc.Waiters() == 0 {
			clock.Sleep(clock.Real{}, 100*time.Microsecond)
		}
		fc.Advance(time.Second)
	}
	k.Close() // must return: the loop exits
	if st := k.Stats(); st.KeptTraces[PolicyError] != 1 {
		t.Fatalf("loop flush decision wrong: %+v", st)
	}
}

func TestTailKeeperSetMetrics(t *testing.T) {
	reg := stats.New()
	k := NewStore(StoreOptions{Tail: true, Baseline: -1, MinSlow: 10 * time.Millisecond})
	k.SetMetrics(reg)
	k.Record(mkSpan(1, 10, 0, 50*time.Millisecond)) // slow: kept
	k.Record(mkSpan(2, 20, 0, time.Millisecond))    // normal: dropped
	snap := reg.Snapshot()
	if snap.Counters["obs.spans_total"] != 2 {
		t.Fatalf("obs.spans_total = %d", snap.Counters["obs.spans_total"])
	}
	if snap.Counters[`obs.kept_traces{policy="slow"}`] != 1 {
		t.Fatalf("kept_traces: %+v", snap.Counters)
	}
	if snap.Counters[`obs.dropped_traces{policy="normal"}`] != 1 {
		t.Fatalf("dropped_traces: %+v", snap.Counters)
	}
}

func TestTailKeeperWriteJSON(t *testing.T) {
	k := NewStore(StoreOptions{Tail: true, Baseline: -1, MinSlow: 10 * time.Millisecond})
	k.Record(mkSpan(1, 10, 0, 50*time.Millisecond))
	var sb strings.Builder
	if err := k.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"total": 1`, `"retained": 1`, `"kept_traces"`, `"spans"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %s:\n%s", want, out)
		}
	}
}

func TestTailKeeperSnapshotSinceCursor(t *testing.T) {
	k := NewStore(StoreOptions{Tail: true, Baseline: -1, MinSlow: 10 * time.Millisecond})
	k.Record(mkSpan(1, 10, 0, 50*time.Millisecond))
	spans, dropped, next := k.SnapshotSince(0)
	if len(spans) != 1 || dropped != 0 {
		t.Fatalf("snapshot %d/%d", len(spans), dropped)
	}
	second := mkSpan(2, 20, 0, time.Millisecond)
	second.Err = "boom" // unambiguous keep
	k.Record(second)
	spans, _, _ = k.SnapshotSince(next)
	if len(spans) != 1 || spans[0].Trace != 2 {
		t.Fatalf("cursor poll %+v", spans)
	}
}

// The tracer consults an installed Hinter for the wire keep-hint bit.
func TestTracerKeepHintFor(t *testing.T) {
	tr := NewTracer(nil)
	if tr.KeepHintFor(1) {
		t.Fatal("disabled tracer hinted")
	}
	tr.SetRecorder(NewStore(StoreOptions{MaxSpans: 8})) // keep-everything: hint everything
	if !tr.KeepHintFor(1) {
		t.Fatal("ring-backed tracer must hint")
	}
	k := NewStore(StoreOptions{Tail: true, MaxSpans: 8})
	tr.SetRecorder(k)
	if !tr.KeepHintFor(1) {
		t.Fatal("unsaturated keeper must hint")
	}
	if tr.KeepHintFor(0) {
		t.Fatal("zero trace hinted")
	}
}

// Hint inheritance: children of an unhinted continuation stay
// unhinted, so a whole non-candidate subtree is discardable.
func TestHintInheritance(t *testing.T) {
	tr := NewTracer(nil)
	k := NewStore(StoreOptions{Tail: true})
	tr.SetRecorder(k)
	cont := tr.StartChild(9, 1, KindServer, "dispatch")
	cont.SetHint(false)
	sub := cont.Child("servant")
	sub.End()
	cont.End()
	st := k.Stats()
	if st.DroppedTraces[DropUnhinted] != 2 || st.PendingSpans != 0 {
		t.Fatalf("unhinted subtree buffered: %+v", st)
	}
	// Hinted roots buffer normally.
	root := tr.StartRoot(KindClient, "invoke")
	c := root.Child("send")
	c.End()
	if st := k.Stats(); st.PendingSpans != 1 {
		t.Fatalf("hinted child not buffered: %+v", st)
	}
	root.End()
}

func TestRingSetMetrics(t *testing.T) {
	reg := stats.New()
	r := NewStore(StoreOptions{MaxSpans: 2})
	r.SetMetrics(reg)
	for i := 0; i < 5; i++ {
		r.Record(Span{Trace: TraceID(i + 1)})
	}
	snap := reg.Snapshot()
	if snap.Counters["obs.spans_total"] != 5 {
		t.Fatalf("spans_total %d", snap.Counters["obs.spans_total"])
	}
	if snap.Counters["obs.dropped_spans"] != 3 {
		t.Fatalf("dropped_spans %d", snap.Counters["obs.dropped_spans"])
	}
	if r.Stats().DroppedSpans != 3 {
		t.Fatalf("Dropped() %d", r.Stats().DroppedSpans)
	}
}
