// Figure E1: goodput and retry amplification through an overload-plus-
// crash schedule with class-keyed retry budgets on versus off.
//
// The deployment models the classic retry-storm casualty: a shared
// client worker pool serving a mixed workload against two dependencies
// — a steady one that stays up, and a flaky, capacity-limited one that
// crashes mid-run and restarts later. Every other task needs the flaky
// dependency; the rest only need the steady one.
//
// Without budgets, each task against the crashed dependency burns the
// full retry allowance — attempts plus exponential backoffs, ~14ms of
// worker time per doomed call — so the pool spends the outage waiting
// out backoffs instead of serving the steady traffic that could have
// completed. With budgets, the outage drains each GP's bucket after a
// handful of doomed calls and everything after that fails fast with a
// typed errs.BudgetExhausted, so the workers keep the steady path near
// full speed through the same outage. The flaky dependency's concurrency
// cap adds the overload half of the schedule: the post-restart herd
// draws FaultUnavailable refusals, which budgeted mode sheds cheaply
// and unbudgeted mode retries at full amplification.
//
// Failover stays off: there is deliberately no backup replica, because
// the figure isolates what retries cost the retrying client; Figure R1
// covers the failover chain.
package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/stats"
	"openhpcxx/internal/testbed"
	"openhpcxx/internal/wire"
)

// E1 figure mode names.
const (
	ModeBudgeted   = "budgeted"
	ModeUnbudgeted = "unbudgeted"
	E1FigureTitle  = "Figure E1: goodput and retry amplification under overload + crash, retry budgets on vs off"
)

// Fixed stream ports for the two servers, so the restart hook can
// re-bind the address the flaky reference advertises.
const (
	e1SteadyPort = 7401
	e1FlakyPort  = 7402
)

// E1Config parameterizes the retry-budget experiment.
type E1Config struct {
	// Profile shapes the LAN (default ProfileEthernet). The netsim
	// shapes traffic in real time, so the schedule runs on the wall
	// clock.
	Profile netsim.LinkProfile
	// Duration is the total run length (default 1.2s); the flaky
	// dependency crashes at 1/6 and restarts at 1/2 of it.
	Duration time.Duration
	// Deadline bounds each call (default 50ms).
	Deadline time.Duration
	// Pace is each worker's gap between tasks (default 200µs).
	Pace time.Duration
	// Workers is the closed-loop client pool size (default 4).
	Workers int
	// Mix routes every Mix-th task to the flaky dependency (default 2).
	Mix int
	// Cap is the flaky servant's concurrency cap (default 2): attempts
	// beyond it are refused with FaultUnavailable.
	Cap int
	// Hold is the servant-side service time per call (default 500µs).
	Hold time.Duration
	// MaxTokens and Ratio configure the budgeted mode's buckets
	// (defaults core.DefaultRetryBudget).
	MaxTokens float64
	Ratio     float64
	// Ints is the array length exchanged per call (default 16).
	Ints int
}

func (c *E1Config) fill(o Options) {
	setDefault(&c.Profile, netsim.ProfileEthernet)
	setDefault(&c.Duration, pick(o, 1200*time.Millisecond, 600*time.Millisecond))
	setDefault(&c.Deadline, 50*time.Millisecond)
	setDefault(&c.Pace, 200*time.Microsecond)
	setDefault(&c.Workers, 4)
	setDefault(&c.Mix, 2)
	setDefault(&c.Cap, 2)
	setDefault(&c.Hold, 500*time.Microsecond)
	setDefault(&c.MaxTokens, core.DefaultRetryBudget.MaxTokens)
	setDefault(&c.Ratio, core.DefaultRetryBudget.Ratio)
	setDefault(&c.Ints, 16)
}

// E1Point is one row of the figure: one budget mode through the same
// overload + crash schedule.
type E1Point struct {
	Mode string `json:"mode"`
	// Total tasks issued by the worker pool; OK completed (split into
	// the steady and flaky paths); Exhausted failed with a typed
	// errs.BudgetExhausted; Failed errored any other way (transport
	// errors, refusals, expiries).
	Total     int `json:"total"`
	OK        int `json:"ok"`
	SteadyOK  int `json:"steady_ok"`
	FlakyOK   int `json:"flaky_ok"`
	Exhausted int `json:"exhausted"`
	Failed    int `json:"failed"`
	// Attempts is the number of wire attempts actually sent (the sum of
	// the per-endpoint rpc.calls counters — retries included), and
	// Amplification the attempts-per-task ratio the budgets bound.
	Attempts      uint64  `json:"attempts"`
	Amplification float64 `json:"amplification"`
	// Goodput is completed calls per second of run time.
	Goodput float64 `json:"goodput_per_sec"`
	// P50/P99 are time-to-answer percentiles over every task, success
	// or failure — a doomed call stuck in retry backoffs shows up here.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	// ErrorsByCode tallies the per-code error counters the settle path
	// keeps (the same rpc.errors{code=...} family /varz rates).
	ErrorsByCode map[string]uint64 `json:"errors_by_code,omitempty"`
}

// E1Result is the whole figure.
type E1Result struct {
	Profile  string        `json:"profile"`
	Duration time.Duration `json:"duration_ns"`
	Deadline time.Duration `json:"deadline_ns"`
	Workers  int           `json:"workers"`
	Mix      int           `json:"mix"`
	Cap      int           `json:"cap"`
	Schedule []string      `json:"schedule"`
	Points   []E1Point     `json:"points"`
}

const (
	e1SteadyObject = core.ObjectID("e1/steady")
	e1FlakyObject  = core.ObjectID("e1/flaky")
)

// e1Servant is the exchange servant: every call costs Hold of service
// time; calls beyond Cap concurrent are refused with FaultUnavailable
// after paying it — admission (decode, dispatch, queueing) is work a
// real server has already done by the time it decides to shed.
type e1Servant struct {
	clk      clock.Clock
	hold     time.Duration
	capacity int

	mu       sync.Mutex
	inflight int
}

func (s *e1Servant) methods() map[string]core.Method {
	return map[string]core.Method{
		"exchange": func(args []byte) ([]byte, error) {
			s.mu.Lock()
			s.inflight++
			over := s.inflight > s.capacity
			s.mu.Unlock()
			clock.Sleep(s.clk, s.hold)
			s.mu.Lock()
			s.inflight--
			s.mu.Unlock()
			if over {
				return nil, wire.Faultf(wire.FaultUnavailable, "e1: over capacity (%d slots)", s.capacity)
			}
			return args, nil
		},
	}
}

// e1Counters reads the runtime's registry: the per-endpoint rpc.calls
// counters summed (wire attempts actually sent, retries included) and
// the per-code error counters.
func e1Counters(rt *core.Runtime) (attempts uint64, byCode map[string]uint64) {
	byCode = map[string]uint64{}
	for key, v := range rt.Metrics().Snapshot().Counters {
		switch name, labels := stats.SplitKey(key); {
		case name == "rpc.calls":
			attempts += v
		case name == "rpc.errors" && v != 0:
			byCode[labels["code"]] = v
		}
	}
	return attempts, byCode
}

// runE1Mode drives the worker pool through the schedule under one
// budget setting, on a testbed of one client machine, one steady server
// and one flaky capacity-limited server, no backups.
func runE1Mode(cfg E1Config, mode string, o Options) (E1Point, []string, error) {
	tb := testbed.New("bench-e1-"+mode, o.OnRuntime)
	defer tb.Close()
	tb.LAN("lan", "campus", cfg.Profile, "client-m", "steady-m", "flaky-m")
	tb.RT.SetFailover(false)
	if mode == ModeBudgeted {
		tb.RT.SetRetryBudget(core.RetryBudgetConfig{MaxTokens: cfg.MaxTokens, Ratio: cfg.Ratio})
	} else {
		tb.RT.SetRetryBudget(core.RetryBudgetConfig{Disabled: true})
	}
	client := tb.Context("client", "client-m")
	// Fixed ports, so the restart hook can re-bind the address the flaky
	// reference advertises.
	serve := func(name string, m netsim.MachineID, port int, object core.ObjectID, capacity int) (*testbed.Node, *core.ObjectRef) {
		sv := &e1Servant{clk: tb.RT.Clock(), hold: cfg.Hold, capacity: capacity}
		node := tb.Context(name, m).Bind(port).Export(object, nil, sv.methods())
		return node, node.Ref(node.Stream())
	}
	_, steadyRef := serve("steady", "steady-m", e1SteadyPort, e1SteadyObject, 1<<20)
	flaky, flakyRef := serve("flaky", "flaky-m", e1FlakyPort, e1FlakyObject, cfg.Cap)
	if err := tb.Build(); err != nil {
		return E1Point{}, nil, err
	}

	arr := testbed.Ints(cfg.Ints)
	// Warm-up outside the measured window: selection + connection setup
	// against both dependencies on dedicated GPs (a failed warm-up is a
	// config error, not a data point).
	for _, ref := range []*core.ObjectRef{steadyRef, flakyRef} {
		warm := client.Ctx.NewGlobalPtr(ref)
		_, err := exchange(warm, arr)
		warm.Release()
		if err != nil {
			return E1Point{}, nil, errs.Wrapf(errs.CodeOf(err), err, "bench: e1 %s warm-up of %s", mode, ref.Object)
		}
	}
	// One GP — and so one retry bucket — per worker per target, the way
	// a real client process holds one handle per dependency.
	steady := make([]*core.GlobalPtr, cfg.Workers)
	flakyGP := make([]*core.GlobalPtr, cfg.Workers)
	for w := range steady {
		steady[w], flakyGP[w] = client.Ctx.NewGlobalPtr(steadyRef), client.Ctx.NewGlobalPtr(flakyRef)
		defer steady[w].Release()
		defer flakyGP[w].Release()
	}

	// The flaky dependency crashes at 1/6 and restarts at 1/2 of the run.
	plan := new(netsim.FaultPlan).
		CrashAt(cfg.Duration/6, "flaky-m").
		RestartAt(cfg.Duration/2, "flaky-m", flaky.Rebind)
	attemptsBefore, _ := e1Counters(tb.RT)
	t := paced{Duration: cfg.Duration, Deadline: cfg.Deadline, Pace: cfg.Pace, Workers: cfg.Workers}.run(tb, plan,
		func(ctx context.Context, w, task int) (string, bool) {
			gp, ok := steady[w], "steady_ok"
			if task%cfg.Mix == cfg.Mix-1 {
				gp, ok = flakyGP[w], "flaky_ok"
			}
			_, err := core.CallCtx[*core.Int32Slice, core.Int32Slice](ctx, gp, "exchange", arr)
			var be *errs.BudgetExhausted
			switch {
			case err == nil:
				return ok, true
			case errors.As(err, &be):
				return "exhausted", true
			default:
				return "failed", true
			}
		})

	pt := E1Point{
		Mode: mode, Total: t.Total, SteadyOK: t.By["steady_ok"], FlakyOK: t.By["flaky_ok"],
		Exhausted: t.By["exhausted"], Failed: t.By["failed"], P50: t.P50, P99: t.P99,
	}
	pt.OK = pt.SteadyOK + pt.FlakyOK
	pt.Attempts, pt.ErrorsByCode = e1Counters(tb.RT)
	pt.Attempts -= attemptsBefore
	pt.Amplification = ratio(int(pt.Attempts), pt.Total)
	if secs := t.Elapsed.Seconds(); secs > 0 {
		pt.Goodput = float64(pt.OK) / secs
	}
	return pt, plan.Schedule(), nil
}

// RunFigureE1 produces the retry-budget figure: the same overload +
// crash schedule with budgets on and off.
func RunFigureE1(cfg E1Config, o Options) (*E1Result, error) {
	cfg.fill(o)
	res := &E1Result{
		Profile:  cfg.Profile.Name,
		Duration: cfg.Duration,
		Deadline: cfg.Deadline,
		Workers:  cfg.Workers,
		Mix:      cfg.Mix,
		Cap:      cfg.Cap,
	}
	for _, mode := range []string{ModeBudgeted, ModeUnbudgeted} {
		pt, schedule, err := runE1Mode(cfg, mode, o)
		if err != nil {
			return nil, err
		}
		res.Schedule = schedule
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Format implements Report.
func (r *E1Result) Format() string { return FormatFigureE1(r) }

// FormatFigureE1 renders the figure as a text table.
func FormatFigureE1(r *E1Result) string {
	out := fmt.Sprintf("%s\n  profile %s, run %v, deadline %v, %d workers, every %dth task on the flaky dependency (cap %d)\n  fault schedule:\n",
		E1FigureTitle, r.Profile, r.Duration.Round(time.Millisecond), r.Deadline.Round(time.Millisecond),
		r.Workers, r.Mix, r.Cap)
	for _, ev := range r.Schedule {
		out += "    " + ev + "\n"
	}
	out += fmt.Sprintf("\n  %-12s %7s %6s %10s %9s %10s %7s %9s %7s %9s %10s %10s\n",
		"mode", "total", "ok", "steady_ok", "flaky_ok", "exhausted", "failed", "attempts", "amp", "goodput", "p50", "p99")
	for _, p := range r.Points {
		out += fmt.Sprintf("  %-12s %7d %6d %10d %9d %10d %7d %9d %6.2fx %7.0f/s %10v %10v\n",
			p.Mode, p.Total, p.OK, p.SteadyOK, p.FlakyOK, p.Exhausted, p.Failed, p.Attempts, p.Amplification,
			p.Goodput, p.P50.Round(10*time.Microsecond), p.P99.Round(10*time.Microsecond))
	}
	var on, off E1Point
	for _, p := range r.Points {
		if p.Mode == ModeBudgeted {
			on = p
		} else {
			off = p
		}
	}
	out += fmt.Sprintf("\n  budgets bound amplification at %.2fx (vs %.2fx without) and sustain %.0f calls/s of goodput (vs %.0f) through the same outage\n",
		on.Amplification, off.Amplification, on.Goodput, off.Goodput)
	return out
}
