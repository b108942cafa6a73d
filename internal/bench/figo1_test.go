package bench

import (
	"testing"
	"time"

	"openhpcxx/internal/obs"
	"openhpcxx/internal/obs/obstest"
)

// TestFigureO1RecordsSpansOnlyWhenTraced pins the figure's mechanics:
// the untraced mode runs with no recorder (the default runtime state),
// the ring mode actually captures connected span trees, and the two
// points are measured on the same deployment.
func TestFigureO1RecordsSpansOnlyWhenTraced(t *testing.T) {
	res, err := RunFigureO1(O1Config{MinReps: 50, MinDuration: 10 * time.Millisecond, RingSize: 4096}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	base, traced := res.Points[0], res.Points[1]
	if base.Mode != ModeUntraced || traced.Mode != ModeRing {
		t.Fatalf("point order %q,%q", base.Mode, traced.Mode)
	}
	if base.SpansTotal != 0 {
		t.Fatalf("untraced mode recorded %d spans", base.SpansTotal)
	}
	if traced.SpansTotal == 0 || traced.SpansRetained == 0 {
		t.Fatalf("ring mode recorded nothing: %+v", traced)
	}
	if base.AvgRTT <= 0 || traced.AvgRTT <= 0 {
		t.Fatalf("degenerate RTTs: %v %v", base.AvgRTT, traced.AvgRTT)
	}
	// The captured spans form connected traces: take the NEWEST exchange
	// invocation (the oldest's siblings may have been evicted by ring
	// wrap-around) and check its client and server halves share a trace.
	spans := res.Store.Spans()
	var root obs.Span
	for _, s := range spans {
		if s.Parent == 0 && s.Kind == obs.KindClient && s.Method == "exchange" {
			root = s
		}
	}
	if root.Trace == 0 {
		t.Fatalf("no exchange root span among %d retained spans", len(spans))
	}
	tr := obstest.Trace(spans, root.Trace)
	obstest.AssertConnected(t, tr)
	obstest.AssertPath(t, tr, "invoke→select→hpcx-tcp→decode→dispatch→servant")
}
