package health

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/stats"
)

func TestUnknownEndpointsAreClosed(t *testing.T) {
	tr := NewTracker(Options{})
	defer tr.Close()
	if !tr.Allow("never-seen") {
		t.Fatal("unknown endpoint not allowed")
	}
	if tr.State("never-seen") != Closed {
		t.Fatal("unknown endpoint not Closed")
	}
	if tr.Generation() != 0 {
		t.Fatal("generation moved without a transition")
	}
}

func TestThresholdTripsBreaker(t *testing.T) {
	tr := NewTracker(Options{FailureThreshold: 2})
	defer tr.Close()
	tr.ReportFailure("ep")
	if !tr.Allow("ep") {
		t.Fatal("one failure below threshold tripped the breaker")
	}
	g := tr.Generation()
	tr.ReportFailure("ep")
	if tr.Allow("ep") || tr.State("ep") != Open {
		t.Fatal("threshold failures did not trip the breaker")
	}
	if tr.Generation() == g {
		t.Fatal("trip did not bump the generation")
	}
}

func TestSuccessResetsStreakAndRecloses(t *testing.T) {
	tr := NewTracker(Options{FailureThreshold: 2})
	defer tr.Close()
	tr.ReportFailure("ep")
	tr.ReportSuccess("ep")
	tr.ReportFailure("ep")
	if !tr.Allow("ep") {
		t.Fatal("success did not reset the failure streak")
	}
	tr.Trip("ep")
	if tr.Allow("ep") {
		t.Fatal("Trip did not open the breaker")
	}
	g := tr.Generation()
	tr.ReportSuccess("ep")
	if tr.State("ep") != Closed {
		t.Fatal("live success did not re-close the breaker")
	}
	if tr.Generation() == g {
		t.Fatal("re-close did not bump the generation")
	}
}

func TestProbeNowReclosesOnSuccess(t *testing.T) {
	tr := NewTracker(Options{})
	defer tr.Close()
	var mu sync.Mutex
	probeErr := errors.New("still dead")
	tr.SetProbe("ep", func() error {
		mu.Lock()
		defer mu.Unlock()
		return probeErr
	})
	tr.Trip("ep")

	tr.ProbeNow()
	if tr.State("ep") != Open {
		t.Fatal("failed probe did not re-open the breaker")
	}
	mu.Lock()
	probeErr = nil
	mu.Unlock()
	g := tr.Generation()
	tr.ProbeNow()
	if tr.State("ep") != Closed || !tr.Allow("ep") {
		t.Fatal("successful probe did not re-close the breaker")
	}
	if tr.Generation() == g {
		t.Fatal("probe re-close did not bump the generation")
	}
}

func TestProbeNowSkipsClosedEndpoints(t *testing.T) {
	tr := NewTracker(Options{})
	defer tr.Close()
	called := false
	tr.SetProbe("ep", func() error { called = true; return nil })
	tr.ProbeNow()
	if called {
		t.Fatal("probe ran against a Closed endpoint")
	}
}

func TestHalfOpenStillVetoed(t *testing.T) {
	tr := NewTracker(Options{})
	defer tr.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	tr.SetProbe("ep", func() error {
		close(started)
		<-release
		return nil
	})
	tr.Trip("ep")
	go tr.ProbeNow()
	<-started
	if tr.Allow("ep") {
		t.Fatal("HalfOpen endpoint allowed while the probe is in flight")
	}
	if tr.State("ep") != HalfOpen {
		t.Fatalf("state %v, want HalfOpen", tr.State("ep"))
	}
	close(release)
}

func TestLiveSuccessBeatsInFlightProbe(t *testing.T) {
	tr := NewTracker(Options{})
	defer tr.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	tr.SetProbe("ep", func() error {
		close(started)
		<-release
		return errors.New("probe says dead")
	})
	tr.Trip("ep")
	done := make(chan struct{})
	go func() { tr.ProbeNow(); close(done) }()
	<-started
	// Live traffic proves the endpoint while the probe is in flight; the
	// probe's stale verdict must not re-open it.
	tr.ReportSuccess("ep")
	close(release)
	<-done
	if tr.State("ep") != Closed {
		t.Fatalf("state %v after live success, want Closed (probe verdict was stale)", tr.State("ep"))
	}
}

func TestProbeTimeoutCountsAsFailure(t *testing.T) {
	// The probe timeout runs on the injected clock: a hung probe is
	// driven to its deadline by advancing a fake clock, so the test
	// never sleeps and never depends on wall-clock scheduling.
	fc := clock.NewFake(time.Unix(1000, 0))
	tr := NewTracker(Options{ProbeTimeout: 10 * time.Millisecond, Clock: fc})
	defer tr.Close()
	release := make(chan struct{})
	defer close(release)
	tr.SetProbe("ep", func() error { <-release; return nil })
	tr.Trip("ep")

	done := make(chan struct{})
	go func() {
		tr.ProbeNow()
		close(done)
	}()
	// Advance only once ProbeNow has armed its timeout. SetProbe started
	// the background prober, whose interval timer waits on the same fake
	// clock, so one waiter is not yet proof of that: wait for both. The
	// advance is shorter than the probe interval and fires the timeout
	// alone.
	for fc.Waiters() < 2 {
		select {
		case <-done:
			t.Fatal("ProbeNow returned before the hung probe timed out")
		default:
			runtime.Gosched()
		}
	}
	fc.Advance(10 * time.Millisecond)
	<-done
	if tr.State("ep") != Open {
		t.Fatal("hung probe did not leave the breaker Open")
	}
}

func TestBackgroundProberRecloses(t *testing.T) {
	tr := NewTracker(Options{ProbeInterval: 5 * time.Millisecond})
	defer tr.Close()
	tr.SetProbe("ep", func() error { return nil })
	tr.Trip("ep")
	deadline := time.Now().Add(2 * time.Second)
	for tr.State("ep") != Closed {
		if time.Now().After(deadline) {
			t.Fatal("background prober never re-closed the breaker")
		}
		clock.Sleep(clock.Real{}, 2*time.Millisecond)
	}
}

func TestStatesAreIndependent(t *testing.T) {
	tr := NewTracker(Options{})
	defer tr.Close()
	tr.Trip("a")
	if tr.Allow("a") || !tr.Allow("b") {
		t.Fatal("breakers are not independent per endpoint")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Closed: "closed", Open: "open", HalfOpen: "half-open", State(42): "unknown"} {
		if s.String() != want {
			t.Fatalf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	tr := NewTracker(Options{})
	tr.SetProbe("ep", func() error { return nil })
	tr.Close()
	tr.Close()
	// SetProbe after Close must not start a prober.
	tr.SetProbe("late", func() error { return nil })
}

func TestSnapshotExportsBreakerState(t *testing.T) {
	fc := clock.NewFake(time.Unix(100, 0))
	tr := NewTracker(Options{FailureThreshold: 1, ProbeInterval: 40 * time.Millisecond, Clock: fc})
	defer tr.Close()
	tr.ReportSuccess("b|ok")
	tr.Trip("a|bad")
	tr.ReportFailure("c|shaky") // threshold 1: trips

	snap := tr.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d endpoints, want 3", len(snap))
	}
	// Sorted by key.
	if snap[0].Key != "a|bad" || snap[1].Key != "b|ok" || snap[2].Key != "c|shaky" {
		t.Fatalf("snapshot not sorted by key: %+v", snap)
	}
	if snap[0].State != "open" || snap[1].State != "closed" || snap[2].State != "open" {
		t.Fatalf("states wrong: %+v", snap)
	}
	if snap[2].ConsecutiveFailures != 1 {
		t.Fatalf("consecutive failures = %d, want 1", snap[2].ConsecutiveFailures)
	}
	if !snap[0].LastTransition.Equal(fc.Now()) {
		t.Fatalf("last transition = %v, want fake now %v", snap[0].LastTransition, fc.Now())
	}
	// No probe registered: no NextProbe even while open.
	if !snap[0].NextProbe.IsZero() {
		t.Fatalf("NextProbe set without a registered probe: %+v", snap[0])
	}
}

func TestSnapshotNextProbeEstimate(t *testing.T) {
	fc := clock.NewFake(time.Unix(100, 0))
	tr := NewTracker(Options{FailureThreshold: 1, ProbeInterval: 40 * time.Millisecond, Clock: fc})
	defer tr.Close()
	tr.Trip("a|bad")
	tr.SetProbe("a|bad", func() error { return errors.New("still down") })

	// Before the first pass: one interval from now.
	want := fc.Now().Add(40 * time.Millisecond)
	snap := tr.Snapshot()
	if !snap[0].NextProbe.Equal(want) {
		t.Fatalf("NextProbe before first pass = %v, want %v", snap[0].NextProbe, want)
	}

	fc.Advance(time.Second)
	tr.ProbeNow() // pass runs (and fails); lastProbe = now
	want = fc.Now().Add(40 * time.Millisecond)
	snap = tr.Snapshot()
	if !snap[0].NextProbe.Equal(want) {
		t.Fatalf("NextProbe after a pass = %v, want lastProbe+interval %v", snap[0].NextProbe, want)
	}
	if snap[0].State != "open" {
		t.Fatalf("failed probe should leave the breaker open, got %s", snap[0].State)
	}
}

func TestMetricsGauges(t *testing.T) {
	reg := stats.New()
	tr := NewTracker(Options{FailureThreshold: 1, Metrics: reg})
	defer tr.Close()
	tr.Trip("a")
	tr.Trip("b")
	tr.ReportSuccess("a")

	s := reg.Snapshot()
	if got := s.Gauges["health.open_endpoints"]; got != 1 {
		t.Fatalf("open_endpoints = %d, want 1", got)
	}
	if got := s.Gauges[`health.breaker_state{endpoint="a"}`]; got != int64(Closed) {
		t.Fatalf("breaker_state{a} = %d, want closed(0)", got)
	}
	if got := s.Gauges[`health.breaker_state{endpoint="b"}`]; got != int64(Open) {
		t.Fatalf("breaker_state{b} = %d, want open(1)", got)
	}
	// a: closed->open->closed, b: closed->open = 3 transitions.
	if got := s.Counters["health.transitions"]; got != 3 {
		t.Fatalf("transitions = %d, want 3", got)
	}
}
