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
	// Clock paces the workers (default the real clock, matching the
	// real-time netsim shaping and fault schedule).
	Clock clock.Clock
	// OnRuntime, when set, is invoked with each mode's runtime right
	// after its deployment is built (ohpc-bench attaches -introspect
	// through it); the returned cleanup (may be nil) runs before that
	// mode's runtime shuts down.
	OnRuntime func(mode string, rt *core.Runtime) func()
}

func (c *E1Config) fill() {
	if c.Profile.Name == "" {
		c.Profile = netsim.ProfileEthernet
	}
	if c.Duration <= 0 {
		c.Duration = 1200 * time.Millisecond
	}
	if c.Deadline <= 0 {
		c.Deadline = 50 * time.Millisecond
	}
	if c.Pace <= 0 {
		c.Pace = 200 * time.Microsecond
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Mix <= 0 {
		c.Mix = 2
	}
	if c.Cap <= 0 {
		c.Cap = 2
	}
	if c.Hold <= 0 {
		c.Hold = 500 * time.Microsecond
	}
	if c.MaxTokens <= 0 {
		c.MaxTokens = core.DefaultRetryBudget.MaxTokens
	}
	if c.Ratio <= 0 {
		c.Ratio = core.DefaultRetryBudget.Ratio
	}
	if c.Ints <= 0 {
		c.Ints = 16
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
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
	// the per-protocol rpc.calls counters — retries included), and
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

// e1Deployment is one mode's testbed: one client machine, one steady
// server, one flaky capacity-limited server, no backups.
type e1Deployment struct {
	Deployment
	flakyCtx  *core.Context
	steadyRef *core.ObjectRef
	flakyRef  *core.ObjectRef
}

func newE1Deployment(cfg E1Config, budgeted bool) (*e1Deployment, error) {
	n := netsim.New()
	n.AddLAN("lan", "campus", cfg.Profile)
	n.MustAddMachine("client-m", "lan")
	n.MustAddMachine("steady-m", "lan")
	n.MustAddMachine("flaky-m", "lan")
	rt := newRuntime(n, "bench-e1")
	rt.SetFailover(false)
	if budgeted {
		rt.SetRetryBudget(core.RetryBudgetConfig{MaxTokens: cfg.MaxTokens, Ratio: cfg.Ratio})
	} else {
		rt.SetRetryBudget(core.RetryBudgetConfig{Disabled: true})
	}
	fail := func(err error) (*e1Deployment, error) {
		rt.Close()
		return nil, err
	}
	clientCtx, err := rt.NewContext("client", "client-m")
	if err != nil {
		return fail(err)
	}
	export := func(ctxName string, machine netsim.MachineID, port int, object core.ObjectID, capacity int) (*core.Context, *core.ObjectRef, error) {
		sctx, err := rt.NewContext(ctxName, machine)
		if err != nil {
			return nil, nil, err
		}
		if err := sctx.BindSim(port); err != nil {
			return nil, nil, err
		}
		sv := &e1Servant{clk: rt.Clock(), hold: cfg.Hold, capacity: capacity}
		s, err := sctx.ExportAs(object, ExchangeIface, nil, sv.methods(), 0)
		if err != nil {
			return nil, nil, err
		}
		e, err := sctx.EntryStream()
		if err != nil {
			return nil, nil, err
		}
		return sctx, sctx.NewRef(s, e), nil
	}
	_, steadyRef, err := export("steady", "steady-m", e1SteadyPort, e1SteadyObject, 1<<20)
	if err != nil {
		return fail(err)
	}
	flakyCtx, flakyRef, err := export("flaky", "flaky-m", e1FlakyPort, e1FlakyObject, cfg.Cap)
	if err != nil {
		return fail(err)
	}
	return &e1Deployment{
		Deployment: Deployment{Net: n, Runtime: rt, Client: clientCtx},
		flakyCtx:   flakyCtx,
		steadyRef:  steadyRef,
		flakyRef:   flakyRef,
	}, nil
}

// e1Plan builds the fault schedule: the flaky dependency crashes at 1/4
// and restarts at 1/2 of the run.
func e1Plan(cfg E1Config, d *e1Deployment) (*netsim.FaultPlan, []string) {
	crashAt := cfg.Duration / 6
	restartAt := cfg.Duration / 2
	plan := new(netsim.FaultPlan)
	plan.CrashAt(crashAt, "flaky-m")
	plan.RestartAt(restartAt, "flaky-m", func() {
		_ = d.flakyCtx.BindSim(e1FlakyPort)
	})
	return plan, []string{
		fmt.Sprintf("%6v  crash flaky-m", crashAt.Round(time.Millisecond)),
		fmt.Sprintf("%6v  restart flaky-m (re-bind sim port %d)", restartAt.Round(time.Millisecond), e1FlakyPort),
	}
}

// e1Counters reads the runtime's registry: the per-protocol rpc.calls
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
// budget setting.
func runE1Mode(cfg E1Config, budgeted bool) (E1Point, []string, error) {
	d, err := newE1Deployment(cfg, budgeted)
	if err != nil {
		return E1Point{}, nil, err
	}
	defer d.Close()

	mode := ModeUnbudgeted
	if budgeted {
		mode = ModeBudgeted
	}
	if cfg.OnRuntime != nil {
		if done := cfg.OnRuntime(mode, d.Runtime); done != nil {
			defer done()
		}
	}
	arr := &core.Int32Slice{V: make([]int32, cfg.Ints)}
	for i := range arr.V {
		arr.V[i] = int32(i)
	}
	// Warm-up outside the measured window: selection + connection setup
	// against both dependencies on dedicated GPs (a failed warm-up is a
	// config error, not a data point).
	for _, ref := range []*core.ObjectRef{d.steadyRef, d.flakyRef} {
		warm := d.Client.NewGlobalPtr(ref)
		if _, err := core.Call[*core.Int32Slice, core.Int32Slice](warm, "exchange", arr); err != nil {
			warm.Release()
			return E1Point{}, nil, errs.Wrapf(errs.CodeOf(err), err, "bench: e1 %s warm-up of %s", mode, ref.Object)
		}
		warm.Release()
	}

	plan, schedule := e1Plan(cfg, d)
	run := plan.Run(d.Net)
	defer run.Stop()

	type tally struct {
		total, steadyOK, flakyOK, exhausted, failed int
		latencies                                   []time.Duration
	}
	attemptsBefore, _ := e1Counters(d.Runtime)
	tallies := make([]tally, cfg.Workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One GP — and so one retry bucket — per worker per target,
			// the way a real client process holds one handle per
			// dependency.
			steady := d.Client.NewGlobalPtr(d.steadyRef)
			defer steady.Release()
			flaky := d.Client.NewGlobalPtr(d.flakyRef)
			defer flaky.Release()
			tl := &tallies[w]
			for task := 0; time.Since(start) < cfg.Duration; task++ {
				gp, onFlaky := steady, false
				if task%cfg.Mix == cfg.Mix-1 {
					gp, onFlaky = flaky, true
				}
				callCtx, cancel := context.WithTimeout(context.Background(), cfg.Deadline)
				t0 := time.Now()
				_, err := core.CallCtx[*core.Int32Slice, core.Int32Slice](callCtx, gp, "exchange", arr)
				lat := time.Since(t0)
				cancel()
				tl.total++
				tl.latencies = append(tl.latencies, lat)
				var be *errs.BudgetExhausted
				switch {
				case err == nil && onFlaky:
					tl.flakyOK++
				case err == nil:
					tl.steadyOK++
				case errors.As(err, &be):
					tl.exhausted++
				default:
					tl.failed++
				}
				clock.Sleep(cfg.Clock, cfg.Pace)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	run.Wait()

	pt := E1Point{Mode: mode}
	var latencies []time.Duration
	for i := range tallies {
		pt.Total += tallies[i].total
		pt.SteadyOK += tallies[i].steadyOK
		pt.FlakyOK += tallies[i].flakyOK
		pt.Exhausted += tallies[i].exhausted
		pt.Failed += tallies[i].failed
		latencies = append(latencies, tallies[i].latencies...)
	}
	pt.OK = pt.SteadyOK + pt.FlakyOK
	pt.Attempts, pt.ErrorsByCode = e1Counters(d.Runtime)
	pt.Attempts -= attemptsBefore
	if pt.Total > 0 {
		pt.Amplification = float64(pt.Attempts) / float64(pt.Total)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		pt.Goodput = float64(pt.OK) / secs
	}
	pt.P50, pt.P99 = percentiles(latencies)
	return pt, schedule, nil
}

// RunFigureE1 produces the retry-budget figure: the same overload +
// crash schedule with budgets on and off.
func RunFigureE1(cfg E1Config) (*E1Result, error) {
	cfg.fill()
	res := &E1Result{
		Profile:  cfg.Profile.Name,
		Duration: cfg.Duration,
		Deadline: cfg.Deadline,
		Workers:  cfg.Workers,
		Mix:      cfg.Mix,
		Cap:      cfg.Cap,
	}
	for _, budgeted := range []bool{true, false} {
		pt, schedule, err := runE1Mode(cfg, budgeted)
		if err != nil {
			return nil, err
		}
		if res.Schedule == nil {
			res.Schedule = schedule
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

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
