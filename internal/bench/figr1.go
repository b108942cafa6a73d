// Figure R1: availability of a remote service through a scripted fault
// schedule — a machine crash and restart, then a one-way blackhole — with
// the ORB's failover machinery (deadlines, per-endpoint circuit breakers,
// fall-through down the reference's ordered protocol table, and probe-
// driven re-promotion) switched on versus off.
//
// The deployment is a client plus two replicas of a stateless servant:
// the preferred table entry points at the primary machine, the second at
// a backup. The paper's protocol table (§3.1) ranks how a server is
// willing to be accessed; this figure shows the same ordered table doing
// double duty as a failover chain: when the primary's breaker trips, the
// next entry serves, and when the background probe proves the primary
// recovered, traffic is promoted back.
package bench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/health"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/testbed"
	"openhpcxx/internal/wire"
)

// R1 figure mode names.
const (
	ModeFailover   = "failover"
	ModeNoFailover = "no-failover"
	R1FigureTitle  = "Figure R1: availability under crash/restart and blackhole faults"
)

// r1SimPort is the primary's fixed stream port, so the restart hook can
// re-bind the same address the protocol table advertises.
const r1SimPort = 7101

// R1Config parameterizes the availability experiment.
type R1Config struct {
	// Profile shapes the LAN joining client, primary, and backup
	// (default ProfileEthernet). The netsim shapes traffic in real time,
	// so the fault schedule below runs on the wall clock.
	Profile netsim.LinkProfile
	// Duration is the total run length (default 1.2s). The schedule
	// scales with it: crash at 1/6, restart at 2/5, blackhole at 3/5,
	// heal at 3/4.
	Duration time.Duration
	// Deadline bounds each call (default 50ms); it travels in the wire
	// header and is enforced client-side through the call context.
	Deadline time.Duration
	// Pace is the gap between consecutive calls (default 1ms).
	Pace time.Duration
	// Ints is the array length exchanged per call (default 16).
	Ints int
}

func (c *R1Config) fill(o Options) {
	setDefault(&c.Profile, netsim.ProfileEthernet)
	setDefault(&c.Duration, pick(o, 1200*time.Millisecond, 600*time.Millisecond))
	setDefault(&c.Deadline, 50*time.Millisecond)
	setDefault(&c.Pace, time.Millisecond)
	setDefault(&c.Ints, 16)
}

// R1Point is one row of the figure: one failover mode through the same
// fault schedule.
type R1Point struct {
	Mode string `json:"mode"`
	// Total calls issued; OK completed; Expired hit their deadline;
	// Failed errored any other way.
	Total   int `json:"total"`
	OK      int `json:"ok"`
	Expired int `json:"expired"`
	Failed  int `json:"failed"`
	// Availability is OK/Total.
	Availability float64 `json:"availability"`
	// P50/P99 are latency percentiles over successful calls.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	// Promoted reports whether the GP ended the run bound to the
	// preferred (primary) table entry again — probe-driven re-promotion
	// after the faults healed.
	Promoted bool `json:"promoted"`
}

// R1Result is the whole figure.
type R1Result struct {
	Profile  string        `json:"profile"`
	Duration time.Duration `json:"duration_ns"`
	Deadline time.Duration `json:"deadline_ns"`
	// Schedule describes the fault events, in order.
	Schedule []string  `json:"schedule"`
	Points   []R1Point `json:"points"`
}

const r1Object = core.ObjectID("r1/exchange")

// runR1Mode drives the call stream through the fault schedule under one
// failover setting.
func runR1Mode(cfg R1Config, mode string, o Options) (R1Point, []string, error) {
	tb := testbed.New("bench-r1-"+mode, o.OnRuntime)
	defer tb.Close()
	tb.LAN("lan", "campus", cfg.Profile, "client-m", "primary-m", "backup-m")
	tb.RT.SetFailover(mode == ModeFailover)
	if mode == ModeFailover {
		// Fast probes so re-promotion lands inside the run; bounded so a
		// probe into the blackhole cannot wedge the prober.
		tb.RT.SetHealthOptions(health.Options{
			ProbeInterval: 20 * time.Millisecond,
			ProbeTimeout:  150 * time.Millisecond,
		})
	}
	client := tb.Context("client", "client-m")
	// The same stateless servant on both machines, under one object id:
	// the backup is a replica, and the reference's ordered table is the
	// failover chain. The primary's port is fixed so the restart hook
	// can re-bind the address the table advertises.
	primary := tb.Context("primary", "primary-m").Bind(r1SimPort).Echo(r1Object)
	backup := tb.Context("backup", "backup-m").Bind(0).Echo(r1Object)
	ref := primary.Ref(primary.Stream(), backup.Stream())
	if err := tb.Build(); err != nil {
		return R1Point{}, nil, err
	}

	gp := client.Ctx.NewGlobalPtr(ref)
	gp.SetDefaultDeadline(cfg.Deadline)
	arr := testbed.Ints(cfg.Ints)
	// Warm-up before the schedule starts: selection + connection setup.
	if _, err := exchange(gp, arr); err != nil {
		return R1Point{}, nil, errs.Wrapf(errs.CodeOf(err), err, "bench: %s warm-up", mode)
	}

	// The schedule scales with the run: crash at 1/6, restart at 2/5,
	// blackhole at 3/5, heal at 3/4.
	plan := new(netsim.FaultPlan).
		CrashAt(cfg.Duration/6, "primary-m").
		RestartAt(cfg.Duration*2/5, "primary-m", primary.Rebind).
		BlackholeAt(cfg.Duration*3/5, "client-m", "primary-m", true).
		Add(cfg.Duration*3/4, "heal blackhole client-m->primary-m", func(n *netsim.Network) {
			n.SetBlackhole("client-m", "primary-m", false)
		})
	t := paced{Duration: cfg.Duration, Deadline: cfg.Deadline, Pace: cfg.Pace, Workers: 1}.run(tb, plan,
		func(ctx context.Context, _, _ int) (string, bool) {
			_, err := core.CallCtx[*core.Int32Slice, core.Int32Slice](ctx, gp, "exchange", arr)
			switch {
			case err == nil:
				return "ok", true
			case errors.Is(err, context.DeadlineExceeded) || isFaultCode(err, wire.FaultExpired):
				return "expired", false
			default:
				return "failed", false
			}
		})

	pt := R1Point{
		Mode: mode, Total: t.Total, OK: t.By["ok"], Expired: t.By["expired"], Failed: t.By["failed"],
		Availability: ratio(t.By["ok"], t.Total), P50: t.P50, P99: t.P99,
	}
	if idx, _, err := gp.SelectedEntry(); err == nil {
		pt.Promoted = idx == 0
	}
	return pt, plan.Schedule(), nil
}

// isFaultCode reports whether err carries the given wire fault code.
func isFaultCode(err error, code wire.FaultCode) bool {
	var f *wire.Fault
	return errors.As(err, &f) && f.Code == code
}

// RunFigureR1 produces the availability figure: the same fault schedule
// with failover on and off.
func RunFigureR1(cfg R1Config, o Options) (*R1Result, error) {
	cfg.fill(o)
	res := &R1Result{
		Profile:  cfg.Profile.Name,
		Duration: cfg.Duration,
		Deadline: cfg.Deadline,
	}
	for _, mode := range []string{ModeFailover, ModeNoFailover} {
		pt, schedule, err := runR1Mode(cfg, mode, o)
		if err != nil {
			return nil, err
		}
		res.Schedule = schedule
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Format implements Report.
func (r *R1Result) Format() string { return FormatFigureR1(r) }

// FormatFigureR1 renders the figure as a text table.
func FormatFigureR1(r *R1Result) string {
	out := fmt.Sprintf("%s\n  profile %s, run %v, per-call deadline %v\n  fault schedule:\n",
		R1FigureTitle, r.Profile, r.Duration.Round(time.Millisecond), r.Deadline.Round(time.Millisecond))
	for _, ev := range r.Schedule {
		out += "    " + ev + "\n"
	}
	out += fmt.Sprintf("\n  %-12s %7s %6s %8s %7s %13s %10s %10s %9s\n",
		"mode", "total", "ok", "expired", "failed", "availability", "p50", "p99", "promoted")
	for _, p := range r.Points {
		out += fmt.Sprintf("  %-12s %7d %6d %8d %7d %12.2f%% %10v %10v %9v\n",
			p.Mode, p.Total, p.OK, p.Expired, p.Failed, 100*p.Availability,
			p.P50.Round(10*time.Microsecond), p.P99.Round(10*time.Microsecond), p.Promoted)
	}
	var on, off float64
	for _, p := range r.Points {
		if p.Mode == ModeFailover {
			on = p.Availability
		} else {
			off = p.Availability
		}
	}
	out += fmt.Sprintf("\n  failover keeps the service at %.1f%% availability through the schedule; without it the same faults leave %.1f%%\n",
		100*on, 100*off)
	return out
}
