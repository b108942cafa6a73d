// Figure O1: the cost of end-to-end invocation tracing. The same
// exchange workload runs over the stream protocol on an unshaped
// simulated LAN three ways:
//
//   - "untraced": the tracer is present but has no recorder installed —
//     the default state of every runtime. This is the per-call price the
//     instrumentation adds to the PR2 invocation path: one nil check and
//     one atomic load per would-be span.
//   - "ring": a Ring recorder collects every span, the state an operator
//     flips on to diagnose a live system (ohpc-bench -fig=o1 -trace=FILE
//     dumps the resulting spans as JSON).
//
// The acceptance bar is that "untraced" stays within a couple of percent
// of the pre-instrumentation baseline; since instrumentation cannot be
// compiled out per run, the figure reports both modes' absolute RTTs and
// the relative overhead of enabling the ring, and the untraced span path
// is pinned separately by BenchmarkUntracedStartRoot (single-digit ns).
package bench

import (
	"fmt"
	"time"

	"openhpcxx/internal/netsim"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/testbed"
)

// O1 figure mode names.
const (
	ModeUntraced  = "untraced"
	ModeRing      = "ring"
	O1FigureTitle = "Figure O1: invocation tracing overhead (stream protocol, unshaped LAN)"
)

// O1Config parameterizes the tracing-overhead experiment.
type O1Config struct {
	// Ints is the array length exchanged per call (default 16: small
	// payloads make per-call overhead visible).
	Ints int
	// MinReps / MinDuration bound each measurement cell (defaults
	// 2000 reps, 250ms).
	MinReps     int
	MinDuration time.Duration
	// RingSize is the keep-everything store's span capacity for the
	// traced mode (default obs.DefaultMaxSpans).
	RingSize int
}

func (c *O1Config) fill(o Options) {
	setDefault(&c.Ints, 16)
	setDefault(&c.MinReps, o.Reps)
	setDefault(&c.MinReps, pick(o, 2000, 200))
	setDefault(&c.MinDuration, pick(o, 250*time.Millisecond, 30*time.Millisecond))
	setDefault(&c.RingSize, obs.DefaultMaxSpans)
}

// O1Point is one mode's measurement.
type O1Point struct {
	Mode   string        `json:"mode"`
	Reps   int           `json:"reps"`
	AvgRTT time.Duration `json:"avg_rtt_ns"`
	// OverheadPct is this mode's AvgRTT relative to the untraced mode
	// (0 for the untraced row itself).
	OverheadPct float64 `json:"overhead_pct"`
	// SpansTotal / SpansRetained report the ring recorder's view after
	// the run (zero for the untraced mode).
	SpansTotal    uint64 `json:"spans_total,omitempty"`
	SpansRetained int    `json:"spans_retained,omitempty"`
}

// O1Result is the whole figure. Store holds the traced run's spans so
// callers can export it (ohpc-bench -trace=FILE).
type O1Result struct {
	Ints   int        `json:"ints"`
	Points []O1Point  `json:"points"`
	Store  *obs.Store `json:"-"`
}

// tracingOverhead measures the exchange workload untraced — the default
// runtime state — and then with rec installed, on one deployment so
// connection state and protocol selection are shared (stream protocol,
// unshaped LAN).
func tracingOverhead(label string, ints, minReps int, minDuration time.Duration, rec obs.Recorder, o Options) (base, traced Measurement, err error) {
	tb := testbed.New(label, o.OnRuntime)
	defer tb.Close()
	tb.LAN("lan", "campus", netsim.ProfileUnshaped, "client-m", "server-m")
	client := tb.Context("client", "client-m")
	server := tb.Context("server", "server-m").Bind(0).Echo("")
	ref := server.Ref(server.Stream())
	if err = tb.Build(); err != nil {
		return
	}
	gp := client.Ctx.NewGlobalPtr(ref)
	if base, err = measure(gp, ints, minReps, minDuration, "%s untraced", label); err != nil {
		return
	}
	tb.RT.Tracer().SetRecorder(rec)
	defer tb.RT.Tracer().SetRecorder(nil)
	traced, err = measure(gp, ints, minReps, minDuration, "%s traced", label)
	return
}

// overheadPct is traced's average round trip relative to base's.
func overheadPct(base, traced Measurement) float64 {
	if base.AvgRTT <= 0 {
		return 0
	}
	return 100 * (float64(traced.AvgRTT)/float64(base.AvgRTT) - 1)
}

// RunFigureO1 measures the exchange workload with tracing disabled and
// with a ring recorder installed: every invocation then records its
// span tree.
func RunFigureO1(cfg O1Config, o Options) (*O1Result, error) {
	cfg.fill(o)
	res := &O1Result{Ints: cfg.Ints, Store: obs.NewStore(obs.StoreOptions{MaxSpans: cfg.RingSize})}
	base, traced, err := tracingOverhead("bench-o1", cfg.Ints, cfg.MinReps, cfg.MinDuration, res.Store, o)
	if err != nil {
		return nil, err
	}
	res.Points = []O1Point{
		{Mode: ModeUntraced, Reps: base.Reps, AvgRTT: base.AvgRTT},
		{Mode: ModeRing, Reps: traced.Reps, AvgRTT: traced.AvgRTT, OverheadPct: overheadPct(base, traced),
			SpansTotal: res.Store.Total(), SpansRetained: len(res.Store.Spans())},
	}
	return res, nil
}

// Format implements Report.
func (r *O1Result) Format() string { return FormatFigureO1(r) }

// FormatFigureO1 renders the figure as a text table.
func FormatFigureO1(r *O1Result) string {
	out := fmt.Sprintf("%s\n  %d-int exchange per call\n\n  %-10s %8s %12s %10s %12s\n",
		O1FigureTitle, r.Ints, "mode", "reps", "avg rtt", "overhead", "spans")
	for _, p := range r.Points {
		spans := "-"
		if p.SpansTotal > 0 {
			spans = fmt.Sprintf("%d", p.SpansTotal)
		}
		out += fmt.Sprintf("  %-10s %8d %12v %9.2f%% %12s\n",
			p.Mode, p.Reps, p.AvgRTT.Round(10*time.Nanosecond), p.OverheadPct, spans)
	}
	out += "\n  'untraced' is the default runtime state: the span path costs one atomic load per call.\n"
	return out
}
