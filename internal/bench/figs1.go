// Figure S1: the saturation sweep. Offered load is stepped up an
// open-loop ladder until the system collapses, and the figure plots
// goodput against offered load next to the p99/p999 latency tail. The
// knee is the capacity story the closed-loop figures cannot tell:
// goodput plateaus at the service capacity while, past the knee, the
// latency of the *intended* arrival schedule diverges without bound —
// visible only because the load harness measures from intended start
// times (coordinated-omission-safe; see internal/load.Recorder).
//
// Three curves run the same ladder:
//
//   - plain: pipelined async traffic, no batching.
//   - batched: the same traffic through the adaptive micro-batcher.
//     The figure's link charges a deliberately expensive per-frame
//     overhead (an S1 profile registered with the load harness), so
//     coalescing k calls into one frame amortizes the dominant cost and
//     the batched curve saturates at a measurably higher offered load.
//   - failover: batching plus a mid-step crash/restart of one server
//     with runtime failover on — capacity under churn, not just at
//     steady state.
//
// The sweep is scenario-driven end to end: every point is an
// internal/load scenario, so `ohpc-load` can replay any cell of the
// figure from a file.
package bench

import (
	"context"
	"fmt"
	"time"

	"openhpcxx/internal/load"
	"openhpcxx/internal/netsim"
)

// S1 curve names.
const (
	S1ModePlain    = "plain"
	S1ModeBatched  = "batched"
	S1ModeFailover = "batched+failover"
	S1FigureTitle  = "Figure S1: goodput and latency tail vs offered load (saturation sweep)"
)

// S1ProfileName is the link profile the sweep registers with the load
// harness: moderate rate, heavy per-frame overhead — the regime where
// micro-batching moves the knee.
const S1ProfileName = "s1-constrained"

// s1Profile: 150µs latency, 20 Mbps, 800 bytes of per-frame overhead.
// An unbatched small call costs ~350µs of serialization, almost all of
// it overhead; a 16-call batch pays the overhead once.
var s1Profile = netsim.LinkProfile{
	Name:          S1ProfileName,
	Latency:       150 * time.Microsecond,
	BitsPerSec:    20e6,
	FrameOverhead: 800,
}

func init() {
	if err := load.RegisterProfile(S1ProfileName, s1Profile); err != nil {
		panic(err)
	}
}

// S1Config parameterizes the sweep.
type S1Config struct {
	// Rates is the offered-load ladder in requests/sec (default a
	// geometric ladder from 1k to 16k).
	Rates []float64
	// StepDuration is the open-loop window per rate (default 400ms).
	StepDuration time.Duration
	// Workers is the client pool draining the arrival queue (default 32).
	Workers int
	// Servers spread over the grid (default 3).
	Servers int
	// Ints is the array length exchanged per call (default 4 — small
	// calls, the regime batching targets).
	Ints int
	// Deadline bounds each call (default 80ms); past the knee the
	// backlog expires against it, which is what bounds collapse.
	Deadline time.Duration
	// SaturationFraction defines the knee: the highest rung whose
	// goodput still covers this fraction of the offered load (default
	// 0.75).
	SaturationFraction float64
}

func (c *S1Config) fill(o Options) {
	if len(c.Rates) == 0 {
		c.Rates = pick(o, []float64{1000, 2000, 4000, 8000, 16000}, []float64{1000, 2000, 4000, 8000})
	}
	setDefault(&c.StepDuration, pick(o, 400*time.Millisecond, 150*time.Millisecond))
	setDefault(&c.Workers, pick(o, 32, 24))
	setDefault(&c.Servers, 3)
	setDefault(&c.Ints, 4)
	setDefault(&c.Deadline, pick(o, 80*time.Millisecond, 50*time.Millisecond))
	if c.SaturationFraction <= 0 || c.SaturationFraction >= 1 {
		c.SaturationFraction = 0.75
	}
}

// S1Point is one rung of one curve.
type S1Point struct {
	OfferedPerSec float64       `json:"offered_per_sec"`
	GoodputPerSec float64       `json:"goodput_per_sec"`
	Issued        int           `json:"issued"`
	Completed     int           `json:"completed"`
	Failed        int           `json:"failed"`
	P50           time.Duration `json:"p50_ns"`
	P99           time.Duration `json:"p99_ns"`
	P999          time.Duration `json:"p999_ns"`
	Saturated     bool          `json:"saturated"`
}

// S1Curve is one mode's ladder.
type S1Curve struct {
	Mode     string    `json:"mode"`
	Batching bool      `json:"batching"`
	Failover bool      `json:"failover"`
	Points   []S1Point `json:"points"`
	// SaturationRate is the highest offered load the curve still served
	// at SaturationFraction goodput — the knee location. 0 if even the
	// lowest rung collapsed.
	SaturationRate float64 `json:"saturation_rate_per_sec"`
}

// S1Result is the whole figure.
type S1Result struct {
	Profile            string        `json:"profile"`
	StepDuration       time.Duration `json:"step_duration_ns"`
	Workers            int           `json:"workers"`
	Servers            int           `json:"servers"`
	Ints               int           `json:"ints"`
	SaturationFraction float64       `json:"saturation_fraction"`
	Curves             []S1Curve     `json:"curves"`
}

// s1Scenario builds the load scenario for one (mode, rate) cell.
func s1Scenario(cfg S1Config, mode string, rate float64) *load.Scenario {
	sc := &load.Scenario{
		Name: fmt.Sprintf("s1-%s-%.0f", mode, rate),
		Topology: load.Topology{
			// Four LANs, two machines each: the client owns lan0 and the
			// three servers land one per remaining LAN, so the client
			// LAN's shared medium — capped at the S1 rate with the S1
			// frame overhead — is the single aggregate bottleneck every
			// request crosses. Cross-LAN links ride the (cheap) campus
			// backbone; nothing but the shared medium charges the heavy
			// per-frame cost, which is exactly what batching amortizes.
			LANs:           4,
			MachinesPerLAN: 2,
			Profile:        S1ProfileName,
			LANCapacityBps: s1Profile.BitsPerSec,
		},
		Servers:    cfg.Servers,
		Workers:    cfg.Workers,
		Workload:   []load.WorkloadSpec{{Kind: load.KindAsync, Weight: 1, Ints: cfg.Ints}},
		Arrival:    load.Arrival{Mode: load.ArrivalOpen, RatePerSec: rate},
		DurationMS: int(cfg.StepDuration / time.Millisecond),
		DeadlineMS: int(cfg.Deadline / time.Millisecond),
		Batching:   mode != S1ModePlain,
		Failover:   mode == S1ModeFailover,
	}
	if mode == S1ModeFailover {
		// Crash the first server a third into the step, restart at two
		// thirds; the first server machine is lan1-m0 (lan0-m0 is the
		// client's).
		third := sc.DurationMS / 3
		sc.Faults = []load.FaultSpec{
			{AtMS: third, Kind: load.FaultCrash, Machine: "lan1-m0"},
			{AtMS: 2 * third, Kind: load.FaultRestart, Machine: "lan1-m0"},
		}
	}
	return sc
}

// runS1Curve walks one mode up the ladder.
func runS1Curve(cfg S1Config, mode string, o Options) (S1Curve, error) {
	curve := S1Curve{
		Mode:     mode,
		Batching: mode != S1ModePlain,
		Failover: mode == S1ModeFailover,
	}
	for _, rate := range cfg.Rates {
		// Every rung is a load scenario on the real clock: the netsim
		// shapes traffic in wall-clock time.
		res, err := load.RunScenario(context.Background(), s1Scenario(cfg, mode, rate), nil, o.OnRuntime)
		if err != nil {
			return curve, err
		}
		pt := S1Point{
			OfferedPerSec: rate,
			GoodputPerSec: res.GoodputPerSec,
			Issued:        res.Issued,
			Completed:     res.Completed,
			Failed:        res.Failed,
			P50:           time.Duration(res.Latency.P50),
			P99:           time.Duration(res.Latency.P99),
			P999:          time.Duration(res.Latency.P999),
		}
		pt.Saturated = pt.GoodputPerSec >= cfg.SaturationFraction*rate
		if pt.Saturated {
			curve.SaturationRate = rate
		}
		curve.Points = append(curve.Points, pt)
	}
	return curve, nil
}

// RunFigureS1 produces the saturation figure: the same offered-load
// ladder under the three modes.
func RunFigureS1(cfg S1Config, o Options) (*S1Result, error) {
	cfg.fill(o)
	res := &S1Result{
		Profile:            S1ProfileName,
		StepDuration:       cfg.StepDuration,
		Workers:            cfg.Workers,
		Servers:            cfg.Servers,
		Ints:               cfg.Ints,
		SaturationFraction: cfg.SaturationFraction,
	}
	for _, mode := range []string{S1ModePlain, S1ModeBatched, S1ModeFailover} {
		c, err := runS1Curve(cfg, mode, o)
		if err != nil {
			return nil, err
		}
		res.Curves = append(res.Curves, c)
	}
	return res, nil
}

// Format implements Report.
func (r *S1Result) Format() string { return FormatFigureS1(r) }

// Curve returns the named curve (nil if absent).
func (r *S1Result) Curve(mode string) *S1Curve {
	for i := range r.Curves {
		if r.Curves[i].Mode == mode {
			return &r.Curves[i]
		}
	}
	return nil
}

// FormatFigureS1 renders the figure as text tables.
func FormatFigureS1(r *S1Result) string {
	out := fmt.Sprintf("%s\n  profile %s, %v per rung, %d workers, %d servers, %d-int calls; knee = last rung with goodput >= %.0f%% of offered\n",
		S1FigureTitle, r.Profile, r.StepDuration.Round(time.Millisecond), r.Workers, r.Servers, r.Ints,
		100*r.SaturationFraction)
	for _, c := range r.Curves {
		out += fmt.Sprintf("\n  %s (batching %v, failover %v)\n", c.Mode, c.Batching, c.Failover)
		out += fmt.Sprintf("  %10s %10s %8s %8s %7s %10s %10s %10s\n",
			"offered/s", "goodput/s", "done", "failed", "knee", "p50", "p99", "p999")
		for _, p := range c.Points {
			mark := ""
			if p.Saturated {
				mark = "<="
			}
			out += fmt.Sprintf("  %10.0f %10.0f %8d %8d %7s %10v %10v %10v\n",
				p.OfferedPerSec, p.GoodputPerSec, p.Completed, p.Failed, mark,
				p.P50.Round(10*time.Microsecond), p.P99.Round(10*time.Microsecond), p.P999.Round(10*time.Microsecond))
		}
		out += fmt.Sprintf("  saturates at %.0f req/s\n", c.SaturationRate)
	}
	plain, batched := r.Curve(S1ModePlain), r.Curve(S1ModeBatched)
	if plain != nil && batched != nil && plain.SaturationRate > 0 {
		out += fmt.Sprintf("\n  micro-batching moves the knee %.1fx up the ladder (%.0f -> %.0f req/s) by amortizing the %d-byte frame overhead\n",
			batched.SaturationRate/plain.SaturationRate, plain.SaturationRate, batched.SaturationRate,
			s1Profile.FrameOverhead)
	}
	return out
}
