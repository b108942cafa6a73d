package bench

import (
	"testing"
	"time"

	"openhpcxx/internal/obs"
)

// TestFigureO2Shapes pins the figure's claim: at equal span memory under
// the burst-then-calm schedule, the tail keeper retains (essentially)
// all >p99 traces and the FIFO ring (essentially) none. The schedule is
// seeded, so the retention fractions are deterministic; the live
// overhead cells are timing-dependent and only sanity-checked.
func TestFigureO2Shapes(t *testing.T) {
	r, err := RunFigureO2(O2Config{MinReps: 50, MinDuration: 5 * time.Millisecond}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 || r.Points[0].Mode != ModeFIFO || r.Points[1].Mode != ModeTail {
		t.Fatalf("points = %+v, want [fifo tail]", r.Points)
	}
	fifo, tail := r.Points[0], r.Points[1]

	if r.SlowTraces == 0 || fifo.SlowTotal != r.SlowTraces || tail.SlowTotal != r.SlowTraces {
		t.Fatalf("slow accounting inconsistent: figure %d, fifo %d, tail %d",
			r.SlowTraces, fifo.SlowTotal, tail.SlowTotal)
	}
	// The stragglers run 60–100ms; the calm stream's p99 must sit far
	// below them for ">p99" to mean anything.
	if r.CalmP99 <= 0 || r.CalmP99 >= 60*time.Millisecond {
		t.Fatalf("calm p99 = %v, want well under the 60ms stragglers", r.CalmP99)
	}

	if tail.RetentionPct < 95 {
		t.Fatalf("tail keeper retained %.1f%% of >p99 traces, want >= 95%%\nkept=%v dropped=%v",
			tail.RetentionPct, tail.KeptTraces, tail.DroppedTraces)
	}
	if fifo.RetentionPct >= 5 {
		t.Fatalf("FIFO ring retained %.1f%% of >p99 traces, want < 5%% (calm tail should flush it)",
			fifo.RetentionPct)
	}
	// Equal memory: neither store may exceed the shared span budget.
	if fifo.SpansRetained > r.SpanBudget || tail.SpansRetained > r.SpanBudget {
		t.Fatalf("span budget %d exceeded: fifo %d, tail %d",
			r.SpanBudget, fifo.SpansRetained, tail.SpansRetained)
	}
	// The keeper must account for the calm bulk it dropped.
	if tail.DroppedTraces[obs.DropNormal] == 0 {
		t.Fatalf("keeper drop accounting empty: %v", tail.DroppedTraces)
	}
	if tail.KeptTraces[obs.PolicySlow] == 0 {
		t.Fatalf("keeper kept no traces under the slow policy: %v", tail.KeptTraces)
	}

	if len(r.Overhead) != 2 || r.Overhead[0].Mode != ModeUntraced || r.Overhead[1].Mode != ModeTail {
		t.Fatalf("overhead = %+v, want [untraced tail]", r.Overhead)
	}
	for _, o := range r.Overhead {
		if o.Reps < 50 || o.AvgRTT <= 0 {
			t.Fatalf("overhead cell %+v not measured", o)
		}
	}
}
