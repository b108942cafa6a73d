// Package obstest turns invocation traces into a first-class testing
// instrument: instead of sleeping and diffing aggregate counters, a
// test attaches a Collector to the runtime's tracer, drives traffic,
// and asserts over what actually happened — which spans ran, in what
// order, through which protocol, with how many retries, coalesced into
// how large a batch.
//
//	col := obstest.Attach(t, rt.Tracer())
//	gp.Invoke("echo", []byte("x"))
//	tr := col.TraceOf(t, obstest.Root("echo"))
//	obstest.AssertPath(t, tr, "invoke→select→hpcx-tcp→dispatch→servant")
//	obstest.AssertConnected(t, tr)
package obstest

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/obs"
)

// Collector is a Recorder that accumulates every span and lets tests
// wait for spans to arrive without wall-clock sleeps.
type Collector struct {
	mu     sync.Mutex
	spans  []obs.Span
	notify chan struct{}
}

var _ obs.Recorder = (*Collector)(nil)

// NewCollector returns an unattached collector (use Attach for the
// common install-and-restore pattern).
func NewCollector() *Collector {
	return &Collector{notify: make(chan struct{})}
}

// Attach installs a fresh Collector as tr's recorder and restores the
// previous recorder when the test ends.
func Attach(t testing.TB, tr *obs.Tracer) *Collector {
	t.Helper()
	if tr == nil {
		t.Fatal("obstest: Attach on a nil tracer")
	}
	c := NewCollector()
	prev := tr.Recorder()
	tr.SetRecorder(c)
	t.Cleanup(func() { tr.SetRecorder(prev) })
	return c
}

// Record implements obs.Recorder.
func (c *Collector) Record(s obs.Span) {
	c.mu.Lock()
	c.spans = append(c.spans, s)
	close(c.notify)
	c.notify = make(chan struct{})
	c.mu.Unlock()
}

// Spans snapshots every collected span, in record (End) order.
func (c *Collector) Spans() []obs.Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]obs.Span, len(c.spans))
	copy(out, c.spans)
	return out
}

// Reset discards collected spans (e.g. after a warm-up call).
func (c *Collector) Reset() {
	c.mu.Lock()
	c.spans = nil
	c.mu.Unlock()
}

// WaitFor blocks until pred is satisfied by the collected spans or the
// timeout elapses (test failure). It wakes on every recorded span — no
// polling sleeps — and returns the snapshot that satisfied pred.
func (c *Collector) WaitFor(t testing.TB, timeout time.Duration, desc string, pred func([]obs.Span) bool) []obs.Span {
	t.Helper()
	deadline := clock.After(clock.Real{}, timeout)
	for {
		c.mu.Lock()
		snap := make([]obs.Span, len(c.spans))
		copy(snap, c.spans)
		ch := c.notify
		c.mu.Unlock()
		if pred(snap) {
			return snap
		}
		select {
		case <-ch:
		case <-deadline:
			t.Fatalf("obstest: timed out after %v waiting for %s; have %d spans:\n%s",
				timeout, desc, len(snap), Format(snap))
			return nil
		}
	}
}

// WaitForSpans waits until at least n spans named name were recorded
// and returns them.
func (c *Collector) WaitForSpans(t testing.TB, name string, n int, timeout time.Duration) []obs.Span {
	t.Helper()
	snap := c.WaitFor(t, timeout, fmt.Sprintf("%d %q spans", n, name), func(spans []obs.Span) bool {
		return len(Named(spans, name)) >= n
	})
	return Named(snap, name)
}

// TraceOf finds the first span satisfying pred and returns its whole
// trace, in start order. It fails the test when nothing matches.
func (c *Collector) TraceOf(t testing.TB, pred func(obs.Span) bool) []obs.Span {
	t.Helper()
	spans := c.Spans()
	for _, s := range spans {
		if pred(s) {
			return Trace(spans, s.Trace)
		}
	}
	t.Fatalf("obstest: no span matches; have %d spans:\n%s", len(spans), Format(spans))
	return nil
}

// Root matches the root invocation span for a method ("" = any): use
// with TraceOf to pull one invocation's full trace.
func Root(method string) func(obs.Span) bool {
	return func(s obs.Span) bool {
		return s.Parent == 0 && s.Kind == obs.KindClient &&
			(method == "" || s.Method == method)
	}
}

// Trace filters spans down to one trace and sorts them by start (Seq).
func Trace(spans []obs.Span, id obs.TraceID) []obs.Span {
	var out []obs.Span
	for _, s := range spans {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Named returns the spans with the given name, preserving order.
func Named(spans []obs.Span, name string) []obs.Span {
	var out []obs.Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Format renders spans one per line for failure messages.
func Format(spans []obs.Span) string {
	var b strings.Builder
	for _, s := range spans {
		fmt.Fprintf(&b, "  [%s] trace=%x seq=%d %s", s.Kind, uint64(s.Trace), s.Seq, s.Name)
		if s.Method != "" {
			fmt.Fprintf(&b, " %s.%s", s.Object, s.Method)
		}
		if s.Proto != "" {
			fmt.Fprintf(&b, " proto=%s", s.Proto)
		}
		if s.Caps != "" {
			fmt.Fprintf(&b, " caps=%s", s.Caps)
		}
		if s.Cause != "" {
			fmt.Fprintf(&b, " cause=%s", s.Cause)
		}
		if s.Batch != 0 {
			fmt.Fprintf(&b, " batch=%d", s.Batch)
		}
		if s.Err != "" {
			fmt.Fprintf(&b, " err=%q", s.Err)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// splitPath accepts "a→b→c" or "a->b->c".
func splitPath(path string) []string {
	path = strings.ReplaceAll(path, "->", "→")
	parts := strings.Split(path, "→")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// AssertPath asserts that the trace's spans, in start order, contain
// the given span names as a subsequence — "what path did this
// invocation actually take". Elements are span names separated by "→"
// (or "->"), e.g. "invoke→select→glue.process→hpcx-tcp→dispatch→servant".
func AssertPath(t testing.TB, trace []obs.Span, path string) {
	t.Helper()
	want := splitPath(path)
	sorted := append([]obs.Span(nil), trace...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	i := 0
	for _, s := range sorted {
		if i < len(want) && s.Name == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("obstest: path %q not taken (matched %d/%d elements, stuck at %q); trace:\n%s",
			path, i, len(want), want[i], Format(sorted))
	}
}

// AssertConnected asserts the trace has both client- and server-side
// spans under one trace ID — i.e. the IDs propagated through the wire
// header and the server continued the caller's trace.
func AssertConnected(t testing.TB, trace []obs.Span) {
	t.Helper()
	if len(trace) == 0 {
		t.Fatal("obstest: empty trace")
	}
	id := trace[0].Trace
	var client, server bool
	for _, s := range trace {
		if s.Trace != id {
			t.Fatalf("obstest: span %q has trace %x, want %x (not one trace)", s.Name, uint64(s.Trace), uint64(id))
		}
		switch s.Kind {
		case obs.KindClient:
			client = true
		case obs.KindServer:
			server = true
		}
	}
	if !client || !server {
		t.Fatalf("obstest: trace not connected across the wire (client=%v server=%v):\n%s",
			client, server, Format(trace))
	}
}

// AssertRetried asserts the invocation was retried at least once, and
// — when cause is non-empty — that some retry span's recorded cause
// contains it. It returns the retry spans for further inspection.
func AssertRetried(t testing.TB, trace []obs.Span, cause string) []obs.Span {
	t.Helper()
	retries := Named(trace, "retry")
	if len(retries) == 0 {
		t.Fatalf("obstest: no retry spans in trace:\n%s", Format(trace))
	}
	if cause != "" {
		for _, r := range retries {
			if strings.Contains(r.Cause, cause) {
				return retries
			}
		}
		t.Fatalf("obstest: no retry with cause containing %q; retries:\n%s", cause, Format(retries))
	}
	return retries
}

// AssertBatched asserts the invocation rode in a TBatch of at least
// min requests (min <= 0 means "any real batch", i.e. >= 2).
func AssertBatched(t testing.TB, trace []obs.Span, min int) {
	t.Helper()
	if min <= 0 {
		min = 2
	}
	for _, s := range trace {
		if s.Name == "batch" && s.Batch >= min {
			return
		}
	}
	t.Fatalf("obstest: no batch span with >= %d coalesced requests in trace:\n%s", min, Format(trace))
}

// AssertNotBatched asserts the invocation went out alone (no batch
// span, or a batch of one).
func AssertNotBatched(t testing.TB, trace []obs.Span) {
	t.Helper()
	for _, s := range trace {
		if s.Name == "batch" && s.Batch >= 2 {
			t.Fatalf("obstest: invocation was coalesced into a batch of %d:\n%s", s.Batch, Format(trace))
		}
	}
}

// AssertRetained asserts a tail store kept the trace — and, when
// policy is non-empty, that it was kept under that policy
// (obs.PolicyError/PolicySlow/PolicyBaseline).
func AssertRetained(t testing.TB, tk *obs.Store, id obs.TraceID, policy string) {
	t.Helper()
	got := tk.Policy(id)
	if got == "" {
		t.Fatalf("obstest: trace %x not retained; store stats %+v", uint64(id), tk.Stats())
	}
	if policy != "" && got != policy {
		t.Fatalf("obstest: trace %x retained under %q, want %q", uint64(id), got, policy)
	}
	if len(tk.Trace(id)) == 0 {
		t.Fatalf("obstest: trace %x marked kept but has no spans", uint64(id))
	}
}

// AssertDroppedByPolicy asserts a tail store dropped at least min traces
// under the given drop policy (obs.DropNormal/DropOverflow/DropUnhinted;
// min <= 0 means "at least one").
func AssertDroppedByPolicy(t testing.TB, tk *obs.Store, policy string, min uint64) {
	t.Helper()
	if min == 0 {
		min = 1
	}
	if got := tk.Stats().DroppedTraces[policy]; got < min {
		t.Fatalf("obstest: %d traces dropped under %q, want >= %d; stats %+v",
			got, policy, min, tk.Stats())
	}
}
