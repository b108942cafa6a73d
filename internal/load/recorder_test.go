package load

import (
	"testing"
	"testing/quick"
	"time"

	"openhpcxx/internal/clock"
)

// TestRecorderOneSamplePerRecord: every Record is exactly one sample,
// however long the latency, and a negative latency (clock skew) clamps
// to zero instead of being dropped.
func TestRecorderOneSamplePerRecord(t *testing.T) {
	r := new(Recorder)
	r.Record(10 * time.Second)
	r.Record(-time.Second)
	if got := r.Count(); got != 2 {
		t.Fatalf("2 records left %d samples", got)
	}
	if p := r.Percentile(0); p != 0 {
		t.Fatalf("negative latency recorded as %v, want 0", p)
	}
}

// stallRun replays one simulated run on a fake clock: ops arrive every
// interval; service time is fast except for one stall of stallDur
// starting at op stallAt, during which the (single-threaded, closed-
// loop) server works off its backlog one op at a time. The same run
// feeds two recorders: open records from each op's *intended* start,
// closed from its actual service start — the coordinated-omission trap.
func stallRun(ops int, interval, service, stallDur time.Duration, stallAt int) (open, closed *Recorder) {
	fake := clock.NewFake(time.Unix(5000, 0))
	start := fake.Now()
	open, closed = new(Recorder), new(Recorder)
	free := start // when the server is next free
	for k := 0; k < ops; k++ {
		intended := start.Add(time.Duration(k) * interval)
		svc := service
		if k == stallAt {
			svc = stallDur
		}
		// The op begins when both it was scheduled and the server is
		// free; a closed-loop generator would not even have issued it
		// until `free`.
		begin := intended
		if free.After(begin) {
			begin = free
		}
		fake.Set(begin.Add(svc))
		end := fake.Now()
		free = end
		open.RecordFrom(intended, end)
		closed.Record(end.Sub(begin))
	}
	return open, closed
}

// TestQuickCoordinatedOmission is the harness's load-bearing property:
// under an injected server stall, the open recorder's p99 must reflect
// the time ops spent waiting from their intended start, while a
// closed-loop recording of the *same run* under-reports it — the gap is
// asserted, so this test fails if anyone "simplifies" the recorder to
// measure from actual start.
func TestQuickCoordinatedOmission(t *testing.T) {
	f := func(stallMS uint16, at uint8) bool {
		const (
			ops      = 1000
			interval = time.Millisecond
			service  = 50 * time.Microsecond
		)
		// Stall between 100ms and 1.6s, placed in the first half of the
		// run.
		stall := time.Duration(stallMS%1500+100) * time.Millisecond
		stallAt := int(at) % (ops / 2)
		open, closed := stallRun(ops, interval, service, stall, stallAt)

		// Open-loop truth: roughly stall/interval ops queued behind the
		// stall, the worst waiting almost the whole stall; p99 must land
		// within the stall's order of magnitude.
		if open.Percentile(0.99) < stall/8 {
			return false
		}
		// Closed-loop lie: only the one stalled op is slow; every other
		// sample is the service time, so p99 collapses to it. (With one
		// slow op in 1000, p99 sits well below 1% of the stall.)
		if closed.Percentile(0.99) >= stall/100 {
			return false
		}
		// And the gap itself: open p99 dominates closed p99 by a wide
		// multiple — the coordinated omission the recorder exists to fix.
		return open.Percentile(0.99) >= 10*closed.Percentile(0.99)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatedOmissionCounts pins the other half: measuring from the
// intended start needs no synthesized samples — both recorders hold
// exactly one sample per op.
func TestCoordinatedOmissionCounts(t *testing.T) {
	const ops = 500
	open, closed := stallRun(ops, time.Millisecond, 50*time.Microsecond, 200*time.Millisecond, 100)
	if open.Count() != ops || closed.Count() != ops {
		t.Fatalf("recorders hold %d (open) and %d (closed) samples, want %d each", open.Count(), closed.Count(), ops)
	}
}

// TestRecorderMerge keeps per-worker merging exact.
func TestRecorderMerge(t *testing.T) {
	a, b := new(Recorder), new(Recorder)
	for i := 1; i <= 100; i++ {
		a.Record(time.Duration(i) * time.Millisecond)
	}
	for i := 101; i <= 200; i++ {
		b.Record(time.Duration(i) * time.Millisecond)
	}
	a.Merge(b)
	a.Merge(nil)
	if got := a.Count(); got != 200 {
		t.Fatalf("merged count %d, want 200", got)
	}
	if p := a.Percentile(1.0); p < 200*time.Millisecond {
		t.Fatalf("merged max percentile %v lost b's tail", p)
	}
}
