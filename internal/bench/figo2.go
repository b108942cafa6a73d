// Figure O2: what tail-based retention actually retains. A deterministic
// burst-then-calm trace schedule — the S1 overload shape: a calm stream
// of ~1ms invocations with sparse 60–100ms stragglers during the
// overload window, then a long calm tail — is teed into two span stores
// with the SAME span budget:
//
//   - "fifo": an obs.Store in keep-everything mode. By the time anyone
//     looks, the calm tail has flushed the FIFO; the slow traces the
//     overload produced are exactly the ones evicted.
//   - "tail": an obs.Store in tail mode. Decisions are made when each
//     trace's root ends, so the slow traces are exactly the ones
//     retained (plus a small baseline reservoir), and the calm bulk is
//     dropped with per-policy accounting.
//
// The figure reports each store's retention of the >p99 traces (ground
// truth: the schedule's generated stragglers, all far above the calm
// p99) and, separately, the live overhead of running with a tail keeper
// installed versus the untraced baseline on the exchange workload.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"openhpcxx/internal/obs"
)

// O2 figure mode names.
const (
	ModeFIFO      = "fifo"
	ModeTail      = "tail"
	O2FigureTitle = "Figure O2: tail-based trace retention vs FIFO at equal span memory"
)

// O2Config parameterizes the retention experiment.
type O2Config struct {
	// Traces is the schedule length (default 2048).
	Traces int
	// SpansPerTrace is the tree size per trace: one root plus children
	// (default 3, the sync invoke shape: invoke/select/send).
	SpansPerTrace int
	// StoreSpans is the span budget both stores get (default 256 — a
	// keeper at MaxSpans=N occupies the same span memory as a ring of
	// size N).
	StoreSpans int
	// SlowEvery spaces the overload stragglers: within the overload
	// window every SlowEvery-th trace runs 60–100ms (default 150 —
	// under 1% of traffic, the tail the keeper's moving p99 targets).
	SlowEvery int
	// OverloadFrac is the fraction of the schedule covered by the
	// overload window, measured from the start; the rest is the calm
	// tail that flushes a FIFO ring (default 0.6).
	OverloadFrac float64
	// Seed drives the duration jitter (0 uses 1).
	Seed int64
	// MinReps / MinDuration bound the overhead measurement cells
	// (defaults 2000 reps, 250ms); Ints is the exchange payload
	// (default 16).
	MinReps     int
	MinDuration time.Duration
	Ints        int
}

func (c *O2Config) fill(o Options) {
	setDefault(&c.Traces, 2048)
	setDefault(&c.SpansPerTrace, 3)
	setDefault(&c.StoreSpans, 256)
	setDefault(&c.SlowEvery, 150)
	if c.OverloadFrac <= 0 || c.OverloadFrac > 1 {
		c.OverloadFrac = 0.6
	}
	setDefault(&c.Seed, 1)
	setDefault(&c.MinReps, o.Reps)
	setDefault(&c.MinReps, pick(o, 2000, 200))
	setDefault(&c.MinDuration, pick(o, 250*time.Millisecond, 30*time.Millisecond))
	setDefault(&c.Ints, 16)
}

// O2Point is one store's retention outcome.
type O2Point struct {
	Mode string `json:"mode"`
	// SlowRetained / SlowTotal is the store's coverage of the schedule's
	// >p99 traces at the end of the run; RetentionPct is the ratio.
	SlowTotal     int     `json:"slow_total"`
	SlowRetained  int     `json:"slow_retained"`
	RetentionPct  float64 `json:"retention_pct"`
	SpansRetained int     `json:"spans_retained"`
	// KeptTraces / DroppedTraces is the keeper's per-policy accounting
	// (absent for the FIFO ring, which cannot say why it evicted).
	KeptTraces    map[string]uint64 `json:"kept_traces,omitempty"`
	DroppedTraces map[string]uint64 `json:"dropped_traces,omitempty"`
}

// O2Overhead is one mode of the live overhead measurement.
type O2Overhead struct {
	Mode   string        `json:"mode"`
	Reps   int           `json:"reps"`
	AvgRTT time.Duration `json:"avg_rtt_ns"`
	// OverheadPct is relative to the untraced mode (0 for that row).
	OverheadPct float64 `json:"overhead_pct"`
}

// O2Result is the whole figure.
type O2Result struct {
	Traces        int           `json:"traces"`
	SpansPerTrace int           `json:"spans_per_trace"`
	SpanBudget    int           `json:"span_budget"`
	SlowTraces    int           `json:"slow_traces"`
	CalmP99       time.Duration `json:"calm_p99_ns"`
	Points        []O2Point     `json:"points"`
	Overhead      []O2Overhead  `json:"overhead"`
}

// RunFigureO2 runs the retention comparison and the live overhead
// measurement.
func RunFigureO2(cfg O2Config, o Options) (*O2Result, error) {
	cfg.fill(o)
	res := &O2Result{
		Traces:        cfg.Traces,
		SpansPerTrace: cfg.SpansPerTrace,
		SpanBudget:    cfg.StoreSpans,
	}

	ring := obs.NewStore(obs.StoreOptions{MaxSpans: cfg.StoreSpans})
	tail := obs.NewStore(obs.StoreOptions{MaxSpans: cfg.StoreSpans, Tail: true, Seed: cfg.Seed})

	// Deterministic schedule generation: every span goes to both stores.
	rng := rand.New(rand.NewSource(cfg.Seed))
	overloadEnd := int(float64(cfg.Traces) * cfg.OverloadFrac)
	slow := make(map[obs.TraceID]bool)
	var calm []time.Duration
	var seq, nextID uint64
	record := func(s obs.Span) {
		seq++
		s.Seq = seq
		s.Hint = true
		ring.Record(s)
		tail.Record(s)
	}
	for i := 0; i < cfg.Traces; i++ {
		nextID++
		trace := obs.TraceID(nextID)
		rootID := obs.SpanID(nextID)
		// Calm traffic sits tightly under 1ms; overload stragglers run
		// 60–100ms — far past any plausible p99 of the calm stream.
		dur := time.Duration(600+rng.Intn(400)) * time.Microsecond
		if i < overloadEnd && i%cfg.SlowEvery == cfg.SlowEvery-1 {
			dur = time.Duration(60+rng.Intn(40)) * time.Millisecond
			slow[trace] = true
		} else {
			calm = append(calm, dur)
		}
		// Children end before the root, as live spans do.
		for c := 1; c < cfg.SpansPerTrace; c++ {
			nextID++
			record(obs.Span{
				Trace: trace, ID: obs.SpanID(nextID), Parent: rootID,
				Kind: obs.KindClient, Name: "send",
				Dur: dur / time.Duration(cfg.SpansPerTrace),
			})
		}
		record(obs.Span{
			Trace: trace, ID: rootID,
			Kind: obs.KindClient, Name: "invoke", Dur: dur,
		})
	}
	res.SlowTraces = len(slow)
	_, res.CalmP99 = percentiles(calm)

	point := func(mode string, spans []obs.Span) O2Point {
		p := O2Point{Mode: mode, SlowTotal: len(slow), SpansRetained: len(spans)}
		// A trace counts as retained only if its root survived: without
		// the root there is no duration, no attribution, no tree.
		for _, s := range spans {
			if s.Parent == 0 && slow[s.Trace] {
				p.SlowRetained++
			}
		}
		if p.SlowTotal > 0 {
			p.RetentionPct = 100 * float64(p.SlowRetained) / float64(p.SlowTotal)
		}
		return p
	}
	res.Points = append(res.Points, point(ModeFIFO, ring.Spans()))
	tp := point(ModeTail, tail.Spans())
	st := tail.Stats()
	tp.KeptTraces, tp.DroppedTraces = st.KeptTraces, st.DroppedTraces
	res.Points = append(res.Points, tp)

	// The live overhead of running with a tail keeper installed, on the
	// exchange workload (the O1 shape).
	tk := obs.NewStore(obs.StoreOptions{Tail: true})
	tk.Start()
	defer tk.Close()
	base, traced, err := tracingOverhead("bench-o2", cfg.Ints, cfg.MinReps, cfg.MinDuration, tk, o)
	if err != nil {
		return nil, err
	}
	res.Overhead = []O2Overhead{
		{Mode: ModeUntraced, Reps: base.Reps, AvgRTT: base.AvgRTT},
		{Mode: ModeTail, Reps: traced.Reps, AvgRTT: traced.AvgRTT, OverheadPct: overheadPct(base, traced)},
	}
	return res, nil
}

// Format implements Report.
func (r *O2Result) Format() string { return FormatFigureO2(r) }

// FormatFigureO2 renders the figure as a text table.
func FormatFigureO2(r *O2Result) string {
	out := fmt.Sprintf("%s\n  %d traces x %d spans, %d-span budget per store, calm p99 %v, %d overload stragglers\n\n  %-6s %14s %12s %12s\n",
		O2FigureTitle, r.Traces, r.SpansPerTrace, r.SpanBudget, r.CalmP99.Round(time.Microsecond),
		r.SlowTraces, "store", ">p99 retained", "retention", "spans held")
	for _, p := range r.Points {
		out += fmt.Sprintf("  %-6s %8d/%-5d %11.1f%% %12d\n",
			p.Mode, p.SlowRetained, p.SlowTotal, p.RetentionPct, p.SpansRetained)
		if len(p.DroppedTraces) > 0 {
			out += fmt.Sprintf("         dropped by policy: %v; kept by policy: %v\n", p.DroppedTraces, p.KeptTraces)
		}
	}
	out += "\n  live overhead (exchange workload):\n"
	for _, o := range r.Overhead {
		out += fmt.Sprintf("  %-10s %8d reps %12v %9.2f%%\n",
			o.Mode, o.Reps, o.AvgRTT.Round(10*time.Nanosecond), o.OverheadPct)
	}
	out += "\n  the FIFO ring's calm tail evicts exactly the overload's slow traces;\n  the tail keeper decides at trace end and keeps them all.\n"
	return out
}
