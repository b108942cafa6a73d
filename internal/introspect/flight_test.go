package introspect

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/stats"
)

// flightOver builds a flight recorder over reg driven by a fake clock,
// without starting the sampler goroutine — tests call SampleNow and
// advance the clock deterministically.
func flightOver(reg *stats.Registry, fc *clock.Fake) *Flight {
	return NewFlight(reg.Snapshot, fc, 0, 0)
}

func TestFlightRatesAreCounterDeltasOverElapsedTime(t *testing.T) {
	reg := stats.New()
	fc := clock.NewFake(time.Unix(100, 0))
	f := flightOver(reg, fc)

	reg.CounterWith("rpc.calls", stats.Labels{"proto": "sim"}).Add(5)
	f.SampleNow()
	fc.Advance(2 * time.Second)
	reg.CounterWith("rpc.calls", stats.Labels{"proto": "sim"}).Add(20) // 10 calls/s over the window
	reg.CounterWith("rpc.faults", stats.Labels{"proto": "sim"}).Add(4)
	reg.CounterWith("rpc.transport_errors", stats.Labels{"proto": "sim"}).Add(1)
	reg.Gauge("rpc.inflight").Set(3)
	f.SampleNow()

	w, ok := f.Rates(2 * time.Second)
	if !ok {
		t.Fatal("two samples recorded but Rates reported not-ok")
	}
	if w.Seconds != 2 {
		t.Fatalf("window seconds = %v, want 2", w.Seconds)
	}
	if got := w.Rates[`rpc.calls{proto="sim"}`]; got != 10 {
		t.Fatalf("calls rate = %v, want 10 (delta 20 over 2s)", got)
	}
	if got := w.Rates[`rpc.faults{proto="sim"}`]; got != 2 {
		t.Fatalf("faults rate = %v, want 2", got)
	}
	if got := w.Gauges["rpc.inflight"]; got != 3 {
		t.Fatalf("gauge = %d, want the newest sample's value 3", got)
	}
	// (4 faults + 1 transport error) / 20 calls over the window.
	if w.ErrorRatio != 0.25 {
		t.Fatalf("error ratio = %v, want 0.25", w.ErrorRatio)
	}
}

func TestFlightPerCodeErrorRatio(t *testing.T) {
	reg := stats.New()
	fc := clock.NewFake(time.Unix(100, 0))
	f := flightOver(reg, fc)

	unavailable := reg.CounterWith("rpc.errors", stats.Labels{"code": "unavailable"})
	quota := reg.CounterWith("rpc.errors", stats.Labels{"code": "quota"})
	stale := reg.CounterWith("rpc.errors", stats.Labels{"code": "auth"})
	stale.Add(7) // before the window: must not appear
	f.SampleNow()
	fc.Advance(2 * time.Second)
	reg.CounterWith("rpc.calls", stats.Labels{"proto": "sim"}).Add(20)
	unavailable.Add(4)
	quota.Add(1)
	// Another family with a code label is not an error count.
	reg.CounterWith("rpc.retry.budget_exhausted", stats.Labels{"code": "transport"}).Add(9)
	f.SampleNow()

	w, ok := f.Rates(2 * time.Second)
	if !ok {
		t.Fatal("Rates not ok")
	}
	if got := w.ErrorRatioByCode["unavailable"]; got != 0.2 {
		t.Fatalf("unavailable ratio = %v, want 0.2 (4/20)", got)
	}
	if got := w.ErrorRatioByCode["quota"]; got != 0.05 {
		t.Fatalf("quota ratio = %v, want 0.05 (1/20)", got)
	}
	if _, present := w.ErrorRatioByCode["auth"]; present {
		t.Fatal("auth erred only before the window but appears in the per-code ratios")
	}
	if len(w.ErrorRatioByCode) != 2 {
		t.Fatalf("per-code ratios %v, want exactly unavailable and quota", w.ErrorRatioByCode)
	}
	// The labeled counters still get plain rates too.
	if got := w.Rates[`rpc.errors{code="unavailable"}`]; got != 2 {
		t.Fatalf("labeled counter rate = %v, want 2/s", got)
	}
	// And they must not double into the blanket ratio (rpc.errors is
	// neither rpc.faults nor rpc.transport_errors): 0 faults recorded,
	// so the blanket ratio stays 0.
	if w.ErrorRatio != 0 {
		t.Fatalf("blanket error ratio = %v, want 0 (per-code counters are a split, not an addition)", w.ErrorRatio)
	}
}

func TestFlightHistogramWindowTracksQuantileMovement(t *testing.T) {
	reg := stats.New()
	fc := clock.NewFake(time.Unix(100, 0))
	f := flightOver(reg, fc)

	h := reg.HistogramWith("rpc.latency_us", stats.Labels{"proto": "sim"})
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	f.SampleNow()
	base := reg.Snapshot().Histograms[`rpc.latency_us{proto="sim"}`]

	fc.Advance(time.Second)
	for i := 0; i < 50; i++ {
		h.Observe(10000) // a slow endpoint appears: p99 jumps
	}
	f.SampleNow()
	cur := reg.Snapshot().Histograms[`rpc.latency_us{proto="sim"}`]

	w, ok := f.Rates(time.Second)
	if !ok {
		t.Fatal("Rates not ok")
	}
	hw, ok := w.Histograms[`rpc.latency_us{proto="sim"}`]
	if !ok {
		t.Fatalf("histogram missing from window: %v", w.Histograms)
	}
	if hw.CountRate != 50 {
		t.Fatalf("count rate = %v, want 50 obs/s", hw.CountRate)
	}
	if hw.P99 != cur.P99 || hw.P50 != cur.P50 {
		t.Fatalf("window quantiles %d/%d, want current %d/%d", hw.P50, hw.P99, cur.P50, cur.P99)
	}
	if want := cur.P99 - base.P99; hw.P99Delta != want || hw.P99Delta <= 0 {
		t.Fatalf("p99 delta = %d, want %d (>0: the slow tail moved p99)", hw.P99Delta, want)
	}
}

func TestFlightWindowSelectionPicksYoungestOldEnoughSample(t *testing.T) {
	reg := stats.New()
	fc := clock.NewFake(time.Unix(100, 0))
	f := flightOver(reg, fc)
	c := reg.CounterWith("rpc.calls", stats.Labels{"proto": "sim"})

	// 13 samples, 1s apart, +1 call between each: rate is 1/s whatever
	// the base, but Seconds reveals which sample was chosen.
	f.SampleNow()
	for i := 0; i < 12; i++ {
		fc.Advance(time.Second)
		c.Inc()
		f.SampleNow()
	}
	w, ok := f.Rates(10 * time.Second)
	if !ok || w.Seconds != 10 {
		t.Fatalf("10s window spans %.1fs (ok=%v), want exactly 10 (youngest sample >= 10s old)", w.Seconds, ok)
	}
	if w.Rates[`rpc.calls{proto="sim"}`] != 1 {
		t.Fatalf("rate = %v, want 1/s", w.Rates[`rpc.calls{proto="sim"}`])
	}
	// Not enough history for 60s: fall back to the oldest sample and
	// report the actual span.
	w, ok = f.Rates(60 * time.Second)
	if !ok || w.Seconds != 12 {
		t.Fatalf("60s window spans %.1fs (ok=%v), want the full 12s of history", w.Seconds, ok)
	}
}

func TestFlightNeedsTwoSamples(t *testing.T) {
	reg := stats.New()
	fc := clock.NewFake(time.Unix(100, 0))
	f := flightOver(reg, fc)
	if _, ok := f.Rates(time.Second); ok {
		t.Fatal("Rates ok with zero samples")
	}
	f.SampleNow()
	if _, ok := f.Rates(time.Second); ok {
		t.Fatal("Rates ok with one sample")
	}
}

func TestFlightRingWrapKeepsNewest(t *testing.T) {
	reg := stats.New()
	fc := clock.NewFake(time.Unix(100, 0))
	f := NewFlight(reg.Snapshot, fc, 0, 4)
	c := reg.Counter("n")
	for i := 0; i < 6; i++ {
		c.Inc()
		f.SampleNow()
		fc.Advance(time.Second)
	}
	if got := f.Samples(); got != 4 {
		t.Fatalf("retained %d samples, want capacity 4", got)
	}
	// The oldest retained sample is the 3rd (counter=3): a full-history
	// window spans 3 seconds and rises 3 counts.
	w, ok := f.Rates(time.Hour)
	if !ok || w.Seconds != 3 || w.Rates["n"] != 1 {
		t.Fatalf("window after wrap: seconds=%v rate=%v ok=%v, want 3/1/true", w.Seconds, w.Rates["n"], ok)
	}
}

func TestFlightVarz(t *testing.T) {
	reg := stats.New()
	fc := clock.NewFake(time.Unix(100, 0))
	f := flightOver(reg, fc)
	c := reg.CounterWith("rpc.calls", stats.Labels{"proto": "sim"})
	f.SampleNow()
	for i := 0; i < 15; i++ {
		fc.Advance(time.Second)
		c.Inc()
		f.SampleNow()
	}
	v := f.Varz()
	if v.Samples != 16 {
		t.Fatalf("varz samples = %d, want 16", v.Samples)
	}
	if !v.Now.Equal(fc.Now()) {
		t.Fatalf("varz now = %v, want the clock's %v", v.Now, fc.Now())
	}
	if _, ok := v.Windows["1s"]; !ok {
		t.Fatalf("varz missing 1s window: %v", v.Windows)
	}
	if w, ok := v.Windows["10s"]; !ok || w.Seconds != 10 {
		t.Fatalf("varz 10s window = %+v (ok=%v)", w, ok)
	}
	// Short history: the 60s window falls back to the oldest sample and
	// reports the actual span instead of disappearing.
	if w, ok := v.Windows["60s"]; !ok || w.Seconds != 15 {
		t.Fatalf("varz 60s window = %+v (ok=%v), want a 15s fallback span", w, ok)
	}
	// Current carries the newest raw snapshot.
	if v.Current.Counters[`rpc.calls{proto="sim"}`] != 15 {
		t.Fatalf("varz current counter = %d, want 15", v.Current.Counters[`rpc.calls{proto="sim"}`])
	}
}

func TestFlightSamplerLoopDrivenByFakeClock(t *testing.T) {
	reg := stats.New()
	fc := clock.NewFake(time.Unix(100, 0))
	f := NewFlight(reg.Snapshot, fc, 100*time.Millisecond, 16)
	f.Start()
	defer f.Close()
	if f.Samples() != 1 {
		t.Fatalf("Start must take one immediate sample, got %d", f.Samples())
	}
	// The loop waits on clock.After(fake): advancing the fake clock past
	// the interval wakes it. Advancing may race with the loop's timer
	// registration, so advance repeatedly until the sample lands.
	deadline := time.Now().Add(5 * time.Second)
	for f.Samples() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("sampler never ticked: %d samples", f.Samples())
		}
		fc.Advance(100 * time.Millisecond)
	}
}

func TestFlightCloseBeforeStart(t *testing.T) {
	f := NewFlight(stats.New().Snapshot, clock.NewFake(time.Unix(0, 0)), 0, 0)
	f.Close() // must not hang waiting for a loop that never ran
	f.Close() // and must be idempotent
}

func TestFlightNilIsNoOp(t *testing.T) {
	var f *Flight
	f.Start()
	f.SampleNow()
	f.Close()
	if f.Samples() != 0 {
		t.Fatal("nil flight has samples?")
	}
	if _, ok := f.Rates(time.Second); ok {
		t.Fatal("nil flight produced a window")
	}
	v := f.Varz()
	if v.Windows == nil || len(v.Windows) != 0 {
		t.Fatalf("nil flight varz = %+v", v)
	}
	f.DumpOnCrash(&bytes.Buffer{}) // no panic in flight: no-op
}

func TestDumpOnCrashWritesRecordingAndRepanics(t *testing.T) {
	reg := stats.New()
	fc := clock.NewFake(time.Unix(100, 0))
	f := flightOver(reg, fc)
	reg.CounterWith("rpc.calls", stats.Labels{"proto": "sim"}).Add(7)
	f.SampleNow()

	var buf bytes.Buffer
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		defer f.DumpOnCrash(&buf)
		panic("boom")
	}()
	if recovered != "boom" {
		t.Fatalf("recovered %v, want the original panic value", recovered)
	}
	var v Varz
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		t.Fatalf("crash dump is not valid Varz JSON: %v\n%s", err, buf.String())
	}
	// DumpOnCrash takes one final sample before writing.
	if v.Samples != 2 {
		t.Fatalf("crash dump samples = %d, want 2 (one pre-crash + the final one)", v.Samples)
	}
	if v.Current.Counters[`rpc.calls{proto="sim"}`] != 7 {
		t.Fatalf("crash dump missing counters:\n%s", buf.String())
	}

	// A normal return must not write or panic.
	buf.Reset()
	func() {
		defer f.DumpOnCrash(&buf)
	}()
	if buf.Len() != 0 {
		t.Fatal("DumpOnCrash wrote during a normal return")
	}
}
