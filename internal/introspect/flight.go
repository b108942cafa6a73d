// The flight recorder: a bounded ring of timestamped metric snapshots
// sampled on the runtime clock, from which per-window rates are
// computed on demand — calls/s, bytes/s, error ratio, and percentile
// movement over the last 1s/10s/60s. It is the body behind /varz and
// the data source ohpc-top renders; on a crash, DumpOnCrash writes the
// whole recording before re-panicking, so the minutes leading up to a
// failure survive it.
//
// Counters in the registry are cumulative, so a rate is just the delta
// between two snapshots divided by the wall (or simulated) time between
// them. Histograms are cumulative too: the recorder reports the current
// quantiles plus their movement since the window-ago sample — a rising
// p99 with a flat p50 is the classic "one endpoint went bad" signature
// the Figure R1 experiment produces.
package introspect

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/stats"
)

// Flight recorder defaults.
const (
	// DefaultFlightInterval is the sampler period. 250ms resolves the
	// 1s window into four samples while keeping a 60s window inside
	// DefaultFlightDepth samples.
	DefaultFlightInterval = 250 * time.Millisecond
	// DefaultFlightDepth is the number of snapshots retained (256 at
	// 250ms ≈ 64s of history — one full 60s window plus slack).
	DefaultFlightDepth = 256
)

// sample is one timestamped registry snapshot.
type sample struct {
	at   time.Time
	snap stats.RegistrySnapshot
}

// Flight is a bounded flight recorder over a metrics source. The
// sampler goroutine waits on the injected clock, so tests drive it with
// clock.Fake (or call SampleNow directly) instead of sleeping.
// All methods are safe on a nil *Flight (no-ops / zero values), so an
// unattached runtime pays nothing.
type Flight struct {
	clk      clock.Clock
	src      func() stats.RegistrySnapshot
	interval time.Duration

	mu      sync.Mutex
	buf     []sample
	next    int
	wrapped bool

	startOnce sync.Once
	closeOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewFlight builds a recorder sampling src every interval on clk,
// retaining up to depth samples. Zero values select the defaults
// (clock.Real, DefaultFlightInterval, DefaultFlightDepth). The sampler
// does not run until Start.
func NewFlight(src func() stats.RegistrySnapshot, clk clock.Clock, interval time.Duration, depth int) *Flight {
	if clk == nil {
		clk = clock.Real{}
	}
	if interval <= 0 {
		interval = DefaultFlightInterval
	}
	if depth <= 0 {
		depth = DefaultFlightDepth
	}
	return &Flight{
		clk:      clk,
		src:      src,
		interval: interval,
		buf:      make([]sample, depth),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the background sampler (idempotent). It takes one
// sample immediately so rates become available after the next tick.
func (f *Flight) Start() {
	if f == nil {
		return
	}
	f.startOnce.Do(func() {
		f.SampleNow()
		go f.loop()
	})
}

func (f *Flight) loop() {
	defer close(f.done)
	for {
		// Waiting on the injected clock keeps the sampler nosleep-clean
		// and lets a fake clock drive it deterministically.
		select {
		case <-f.stop:
			return
		case <-clock.After(f.clk, f.interval):
			f.SampleNow()
		}
	}
}

// Close stops the sampler and waits for it to exit. The recording stays
// readable after Close.
func (f *Flight) Close() {
	if f == nil {
		return
	}
	f.closeOnce.Do(func() { close(f.stop) })
	f.startOnce.Do(func() { close(f.done) }) // never started: nothing to wait for
	<-f.done
}

// SampleNow records one snapshot immediately. The sampler loop calls
// it on every tick; deterministic tests call it directly.
func (f *Flight) SampleNow() {
	if f == nil {
		return
	}
	s := sample{at: f.clk.Now(), snap: f.src()}
	f.mu.Lock()
	f.buf[f.next] = s
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
		f.wrapped = true
	}
	f.mu.Unlock()
}

// Samples reports how many snapshots are currently retained.
func (f *Flight) Samples() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.retainedLocked()
}

func (f *Flight) retainedLocked() int {
	if f.wrapped {
		return len(f.buf)
	}
	return f.next
}

// samplesLocked returns the retained samples oldest first. Caller holds mu.
func (f *Flight) samplesLocked() []sample {
	if !f.wrapped {
		return f.buf[:f.next]
	}
	out := make([]sample, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	out = append(out, f.buf[:f.next]...)
	return out
}

// HistWindow is a histogram's view over one window: the observation
// rate plus current quantiles and their movement since the window-ago
// sample.
type HistWindow struct {
	CountRate float64 `json:"count_rate"` // observations per second over the window
	P50       int64   `json:"p50"`        // current (lifetime) quantiles ...
	P90       int64   `json:"p90"`
	P99       int64   `json:"p99"`
	P50Delta  int64   `json:"p50_delta"` // ... and their movement over the window
	P99Delta  int64   `json:"p99_delta"`
}

// Window is the rate view between two samples of the recording.
type Window struct {
	// Seconds is the actual elapsed time between the two samples the
	// window was computed from (it may differ from the requested
	// window when history is short or sampling is coarse).
	Seconds float64 `json:"seconds"`
	// Rates maps every counter to its per-second rate over the window.
	Rates map[string]float64 `json:"rates"`
	// Gauges carries the newest sample's gauge values.
	Gauges map[string]int64 `json:"gauges"`
	// Histograms maps every histogram to its windowed view.
	Histograms map[string]HistWindow `json:"histograms"`
	// ErrorRatio is (faults + transport errors) / calls over the
	// window, across every protocol; 0 when no calls happened.
	ErrorRatio float64 `json:"error_ratio"`
	// ErrorRatioByCode splits the ratio by taxonomy code (the
	// rpc.errors{code=...} counters the settle path keeps): errors with
	// that code over the window / calls over the window. Only codes
	// that actually erred during the window appear.
	ErrorRatioByCode map[string]float64 `json:"error_ratio_by_code,omitempty"`
}

// Rates computes the rate view for the given look-back window. ok is
// false until at least two samples exist.
func (f *Flight) Rates(window time.Duration) (Window, bool) {
	if f == nil {
		return Window{}, false
	}
	f.mu.Lock()
	samples := append([]sample(nil), f.samplesLocked()...)
	f.mu.Unlock()
	if len(samples) < 2 {
		return Window{}, false
	}
	newest := samples[len(samples)-1]
	// Oldest-to-newest scan: pick the youngest sample at least `window`
	// older than the newest; short history falls back to the oldest.
	base := samples[0]
	for _, s := range samples {
		if newest.at.Sub(s.at) >= window {
			base = s
		} else {
			break
		}
	}
	secs := newest.at.Sub(base.at).Seconds()
	if secs <= 0 {
		return Window{}, false
	}
	return computeWindow(base, newest, secs), true
}

func computeWindow(base, newest sample, secs float64) Window {
	w := Window{
		Seconds:    secs,
		Rates:      make(map[string]float64, len(newest.snap.Counters)),
		Gauges:     make(map[string]int64, len(newest.snap.Gauges)),
		Histograms: make(map[string]HistWindow, len(newest.snap.Histograms)),
	}
	var calls, errs uint64
	byCode := map[string]uint64{}
	for key, v := range newest.snap.Counters {
		delta := v - base.snap.Counters[key] // missing old counter reads 0
		w.Rates[key] = float64(delta) / secs
		switch name, labels := stats.SplitKey(key); name {
		case "rpc.calls":
			calls += delta
		case "rpc.faults", "rpc.transport_errors":
			errs += delta
		case "rpc.errors":
			if code := labels["code"]; code != "" && delta > 0 {
				byCode[code] += delta
			}
		}
	}
	if calls > 0 {
		w.ErrorRatio = float64(errs) / float64(calls)
		if len(byCode) > 0 {
			w.ErrorRatioByCode = make(map[string]float64, len(byCode))
			for code, n := range byCode {
				w.ErrorRatioByCode[code] = float64(n) / float64(calls)
			}
		}
	}
	for name, v := range newest.snap.Gauges {
		w.Gauges[name] = v
	}
	for name, h := range newest.snap.Histograms {
		old := base.snap.Histograms[name] // zero value when new
		w.Histograms[name] = HistWindow{
			CountRate: float64(h.Count-old.Count) / secs,
			P50:       h.P50,
			P90:       h.P90,
			P99:       h.P99,
			P50Delta:  h.P50 - old.P50,
			P99Delta:  h.P99 - old.P99,
		}
	}
	return w
}

// Varz is the /varz payload: the standard windows plus the newest raw
// snapshot.
type Varz struct {
	Now      time.Time `json:"now"`
	Interval float64   `json:"interval_seconds"`
	Samples  int       `json:"samples"`
	// Windows holds the rate views for the standard look-backs that
	// had enough history ("1s", "10s", "60s").
	Windows map[string]Window      `json:"windows"`
	Current stats.RegistrySnapshot `json:"current"`
}

// varzWindows are the standard /varz look-backs.
var varzWindows = map[string]time.Duration{
	"1s":  time.Second,
	"10s": 10 * time.Second,
	"60s": 60 * time.Second,
}

// Varz assembles the /varz payload from the recording.
func (f *Flight) Varz() Varz {
	if f == nil {
		return Varz{Windows: map[string]Window{}}
	}
	v := Varz{
		Now:      f.clk.Now(),
		Interval: f.interval.Seconds(),
		Samples:  f.Samples(),
		Windows:  make(map[string]Window, len(varzWindows)),
	}
	for name, d := range varzWindows {
		if w, ok := f.Rates(d); ok {
			v.Windows[name] = w
		}
	}
	f.mu.Lock()
	if n := f.retainedLocked(); n > 0 {
		idx := f.next - 1
		if idx < 0 {
			idx = len(f.buf) - 1
		}
		v.Current = f.buf[idx].snap
	}
	f.mu.Unlock()
	return v
}

// WriteJSON dumps the Varz payload as one indented JSON document.
func (f *Flight) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.Varz())
}

// DumpOnCrash is meant to be deferred directly at the top of a
// goroutine the recorder should out-live:
//
//	defer fr.DumpOnCrash(os.Stderr)
//
// On a panic it takes one final sample, writes the whole recording to
// w, and re-panics — the flight data lands next to the stack trace.
// During a normal return it does nothing.
func (f *Flight) DumpOnCrash(w io.Writer) {
	r := recover()
	if r == nil {
		return
	}
	if f != nil {
		f.SampleNow()
		// Best-effort by design: the process is crashing; the re-panic
		// below must not be masked by a write error.
		_ = f.WriteJSON(w)
	}
	panic(r)
}
