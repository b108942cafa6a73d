package load

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"openhpcxx/internal/capability"
	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/migrate"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/stats"
	"openhpcxx/internal/testbed"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/xdr"
)

// loadBasePort anchors the per-server stream ports.
const loadBasePort = 7600

// server is one exported servant: its testbed node (context, fixed
// port), machine, and the plain + capability-glue references clients
// use.
type server struct {
	*testbed.Node
	machine  netsim.MachineID
	plainRef *core.ObjectRef
	glueRef  *core.ObjectRef
}

// target is the per-server client-side state: shared GlobalPtrs, one per
// invocation flavor, used concurrently by every worker (the GP's
// in-flight limiter and batcher are made for that).
type target struct {
	sync    *core.GlobalPtr // unbatched: sync traffic must not eat batch delay
	async   *core.GlobalPtr // pipelined; micro-batched when the scenario says so
	batched *core.GlobalPtr // always micro-batched (degrades to plain async with batching off)
	glue    *core.GlobalPtr // through the encrypt+auth capability chain
}

// Runner is a built, ready-to-run scenario world.
type Runner struct {
	sc      *Scenario
	clk     clock.Clock
	tb      *testbed.Builder
	client  *core.Context
	servers []*server
	targets []*target
	pattern []int // op index -> workload slice, weight-expanded
	args    [][]byte
	plan    *netsim.FaultPlan
	// churn state: current home and ref of each server's object.
	churnMu   sync.Mutex
	churnHome []int
	churnRef  []*core.ObjectRef
	migrated  atomic.Uint64
}

// Result is one run's report, exported as JSON (the BENCH_*.json
// trajectory records these).
type Result struct {
	Scenario string `json:"scenario"`
	Mode     string `json:"arrival_mode"`
	Machines int    `json:"machines"`
	Servers  int    `json:"servers"`
	Workers  int    `json:"workers"`
	Batching bool   `json:"batching"`

	// OfferedPerSec is the arrival rate the generator held the system
	// to (open mode) or the completion-paced rate it achieved (closed).
	OfferedPerSec float64       `json:"offered_per_sec"`
	Issued        int           `json:"issued"`
	Completed     int           `json:"completed"`
	Failed        int           `json:"failed"`
	Migrations    uint64        `json:"migrations,omitempty"`
	GoodputPerSec float64       `json:"goodput_per_sec"`
	Elapsed       time.Duration `json:"elapsed_ns"`

	// Latency holds one sample per completed or failed op: open mode
	// measures from the op's intended start (coordinated-omission-safe),
	// closed mode from its actual start (and says so in Mode).
	Latency stats.Snapshot `json:"latency_ns"`

	Schedule []string `json:"fault_schedule,omitempty"`
}

// NewRunner builds the scenario's world: topology, runtime, servers,
// references, shared GlobalPtrs, and the fault plan. clk may be nil for
// the real clock; a *clock.Fake makes short scenarios deterministic.
// hook (may be nil) observes the world's runtime until Close.
func NewRunner(sc *Scenario, clk clock.Clock, hook testbed.Hook) (*Runner, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if clk == nil {
		clk = clock.Real{}
	}
	profile, _ := profileByName(sc.Topology.Profile)
	if sc.Topology.Scale > 0 && sc.Topology.Scale != 1 {
		profile = profile.Scaled(sc.Topology.Scale)
	}
	tb := testbed.New("load-"+sc.Name, hook)
	tb.RT.SetFailover(sc.Failover)
	tb.RT.SetClock(clk)
	tb.Do(func() error {
		_, err := tb.Net.AddGrid(netsim.GridSpec{
			LANs:           sc.Topology.LANs,
			MachinesPerLAN: sc.Topology.MachinesPerLAN,
			Profile:        profile,
			CampusesEvery:  sc.Topology.CampusesEvery,
			SharedBps:      sc.Topology.LANCapacityBps,
		})
		return err
	})
	r := &Runner{sc: sc, clk: clk, tb: tb}
	client := tb.Context("client", netsim.GridMachine(0, 0))
	for i, m := range serverMachines(sc) {
		// A fixed port per server, so a restart hook can re-bind the
		// address a crashed server advertised.
		node := tb.Context(fmt.Sprintf("server%d", i), m).Bind(loadBasePort + i).
			Echo(core.ObjectID(fmt.Sprintf("load/x%d", i)))
		stream := node.Stream()
		glue := node.Glue(fmt.Sprintf("load-sec%d", i), stream,
			capability.NewRandomEncrypt(capability.ScopeAlways),
			capability.MustNewAuth("load", []byte("load-key"), capability.ScopeAlways))
		s := &server{Node: node, machine: m, plainRef: node.Ref(stream), glueRef: node.Ref(glue)}
		r.servers = append(r.servers, s)
		r.churnHome = append(r.churnHome, i)
		r.churnRef = append(r.churnRef, s.plainRef)
	}
	tb.Do(r.buildArgs)
	tb.Do(r.buildFaultPlan)
	if err := tb.Build(); err != nil {
		return nil, err
	}
	r.client = client.Ctx
	r.buildTargets()
	r.buildPattern()
	return r, nil
}

// Close tears the world down.
func (r *Runner) Close() { r.tb.Close() }

// serverMachines places servers round-robin across LANs — machine j of
// each LAN in turn — skipping lan0-m0, the client's machine, so every
// call crosses the network.
func serverMachines(sc *Scenario) []netsim.MachineID {
	out := make([]netsim.MachineID, 0, sc.Servers)
	for j := 0; len(out) < sc.Servers; j++ {
		for l := 0; l < sc.Topology.LANs && len(out) < sc.Servers; l++ {
			if l == 0 && j == 0 {
				continue
			}
			out = append(out, netsim.GridMachine(l, j))
		}
	}
	return out
}

// buildTargets creates the shared per-server GlobalPtrs. The async GP's
// pipeline depth scales with the worker count so open-loop bursts are
// not throttled by the client's own limiter.
func (r *Runner) buildTargets() {
	depth := r.sc.Workers * 4
	if depth < core.DefaultMaxInFlight {
		depth = core.DefaultMaxInFlight
	}
	policy := &transport.BatchPolicy{MaxMessages: 16, MaxDelay: transport.DefaultBatchDelay}
	for _, s := range r.servers {
		t := &target{
			sync:    r.client.NewGlobalPtr(s.plainRef),
			async:   r.client.NewGlobalPtr(s.plainRef),
			batched: r.client.NewGlobalPtr(s.plainRef),
			glue:    r.client.NewGlobalPtr(s.glueRef),
		}
		for _, gp := range []*core.GlobalPtr{t.sync, t.async, t.batched, t.glue} {
			gp.SetMaxInFlight(depth)
			gp.SetDefaultDeadline(r.sc.Deadline())
		}
		if r.sc.Batching {
			t.batched.SetBatchPolicy(policy)
			t.async.SetBatchPolicy(policy)
		}
		r.targets = append(r.targets, t)
	}
}

// buildPattern expands the workload weights into a deterministic
// repeating schedule: op k runs workload slice pattern[k % len].
func (r *Runner) buildPattern() {
	for i, w := range r.sc.Workload {
		for k := 0; k < w.Weight; k++ {
			r.pattern = append(r.pattern, i)
		}
	}
}

// buildArgs pre-marshals each workload slice's payload once.
func (r *Runner) buildArgs() error {
	for _, w := range r.sc.Workload {
		b, err := xdr.Marshal(testbed.Ints(w.Ints))
		if err != nil {
			return err
		}
		r.args = append(r.args, b)
	}
	return nil
}

// buildFaultPlan translates the scenario's fault schedule.
func (r *Runner) buildFaultPlan() error {
	if len(r.sc.Faults) == 0 {
		return nil
	}
	r.plan = new(netsim.FaultPlan).SetClock(r.clk)
	for _, f := range r.sc.Faults {
		at := time.Duration(f.AtMS) * time.Millisecond
		m := netsim.MachineID(f.Machine)
		switch f.Kind {
		case FaultCrash:
			r.plan.CrashAt(at, m)
		case FaultRestart:
			s := r.serverOn(m)
			if s == nil {
				return errs.Newf(errs.Config, "load: %s: restart of %s, which hosts no server", r.sc.Name, m)
			}
			r.plan.RestartAt(at, m, s.Rebind)
		case FaultPartition:
			r.plan.PartitionAt(at, m, netsim.MachineID(f.Peer))
		case FaultHeal:
			r.plan.HealAt(at, m, netsim.MachineID(f.Peer))
		}
	}
	return nil
}

func (r *Runner) serverOn(m netsim.MachineID) *server {
	for _, s := range r.servers {
		if s.machine == m {
			return s
		}
	}
	return nil
}

// churnLoop migrates server objects round-robin across the server
// contexts every period until ctx is done. Global pointers chase the
// moves transparently (FaultMoved forwarding), so the workload keeps
// running through the churn — that is the point.
func (r *Runner) churnLoop(ctx context.Context, period time.Duration) {
	for next := 0; ; next++ {
		if clock.SleepCtx(ctx, r.clk, period) != nil {
			return
		}
		i := next % len(r.servers)
		r.churnMu.Lock()
		from := r.servers[r.churnHome[i]]
		to := r.servers[(r.churnHome[i]+1)%len(r.servers)]
		if r.tb.Net.Down(from.machine) || r.tb.Net.Down(to.machine) {
			r.churnMu.Unlock()
			continue
		}
		newRef, err := migrate.MoveLocal(from.Ctx, r.churnRef[i], to.Ctx)
		if err == nil {
			r.churnHome[i] = (r.churnHome[i] + 1) % len(r.servers)
			r.churnRef[i] = newRef
			r.migrated.Add(1)
		}
		r.churnMu.Unlock()
	}
}

// op is one scheduled request.
type op struct {
	k        int
	intended time.Time
}

// Run executes the scenario and reports the run. ctx bounds the whole
// run (the duration bound is the scenario's own).
func (r *Runner) Run(ctx context.Context) (*Result, error) {
	sc := r.sc
	// Warm-up outside the measured window: protocol selection and
	// connection setup on every flavor the mix uses.
	for si := range r.targets {
		for _, w := range sc.Workload {
			if _, err := r.invoke(ctx, si, w.Kind, r.args[0]); err != nil {
				return nil, errs.Wrapf(errs.CodeOf(err), err, "load: %s: warm-up of server %d (%s)", sc.Name, si, w.Kind)
			}
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if r.plan != nil {
		run := r.plan.Run(r.tb.Net)
		defer run.Stop()
	}
	if p := sc.Churn.MigrateEveryMS; p > 0 {
		go r.churnLoop(runCtx, time.Duration(p)*time.Millisecond)
	}

	var res *Result
	var err error
	if sc.Arrival.Mode == ArrivalOpen {
		res, err = r.runOpen(runCtx)
	} else {
		res, err = r.runClosed(runCtx)
	}
	if err != nil {
		return nil, err
	}
	res.Scenario = sc.Name
	res.Mode = sc.Arrival.Mode
	res.Machines = sc.Machines()
	res.Servers = sc.Servers
	res.Workers = sc.Workers
	res.Batching = sc.Batching
	res.Migrations = r.migrated.Load()
	if r.plan != nil {
		res.Schedule = r.plan.Schedule()
	}
	if res.Elapsed <= 0 {
		res.Elapsed = time.Nanosecond
	}
	res.GoodputPerSec = float64(res.Completed) / res.Elapsed.Seconds()
	if sc.Arrival.Mode == ArrivalOpen {
		res.OfferedPerSec = sc.Arrival.RatePerSec
	} else {
		res.OfferedPerSec = float64(res.Issued) / res.Elapsed.Seconds()
	}
	return res, nil
}

// invoke executes one request of the given kind against server si.
func (r *Runner) invoke(ctx context.Context, si int, kind string, args []byte) ([]byte, error) {
	t := r.targets[si]
	callCtx, cancel := context.WithTimeout(ctx, r.sc.Deadline())
	defer cancel()
	switch kind {
	case KindAsync:
		return t.async.InvokeAsyncCtx(callCtx, "exchange", args).Wait()
	case KindBatched:
		return t.batched.InvokeAsyncCtx(callCtx, "exchange", args).Wait()
	case KindCapability:
		return t.glue.InvokeCtx(callCtx, "exchange", args)
	default:
		return t.sync.InvokeCtx(callCtx, "exchange", args)
	}
}

// runClosed drives the classic completion-paced loop: each worker
// issues its next request when the previous returns. Latency is
// measured from the actual issue time — which is exactly the
// coordinated-omission trap, and why the recorder pairs this mode with
// the open one; Result.Mode says which discipline produced the numbers.
func (r *Runner) runClosed(ctx context.Context) (*Result, error) {
	sc := r.sc
	var issued atomic.Int64
	maxOps := int64(sc.MaxOps)
	recs := make([]*Recorder, sc.Workers)
	fails := make([]int, sc.Workers)
	dones := make([]int, sc.Workers)
	start := r.clk.Now()
	var wg sync.WaitGroup
	for w := 0; w < sc.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := new(Recorder)
			recs[w] = rec
			for ctx.Err() == nil {
				k := issued.Add(1) - 1
				if maxOps > 0 && k >= maxOps {
					issued.Add(-1)
					return
				}
				now := r.clk.Now()
				if now.Sub(start) >= sc.Duration() {
					issued.Add(-1)
					return
				}
				slice := r.pattern[int(k)%len(r.pattern)]
				_, err := r.invoke(ctx, int(k)%len(r.targets), sc.Workload[slice].Kind, r.args[slice])
				rec.RecordFrom(now, r.clk.Now())
				if err != nil {
					fails[w]++
				} else {
					dones[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	return r.collect(recs, fails, dones, int(issued.Load()), r.clk.Now().Sub(start)), nil
}

// runOpen drives the open-loop generator: requests are scheduled at a
// fixed rate, each stamped with its intended start time; a stall in the
// system backs requests up in the queue but never stops the schedule,
// and every queued request's wait is charged to its latency.
func (r *Runner) runOpen(ctx context.Context) (*Result, error) {
	sc := r.sc
	interval := time.Duration(float64(time.Second) / sc.Arrival.RatePerSec)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	total := int(sc.Duration() / interval)
	if maxOps := sc.MaxOps; maxOps > 0 && total > maxOps {
		total = maxOps
	}
	// The queue holds the entire schedule: the generator never blocks on
	// slow workers — blocking *would be* coordinated omission at the
	// issue side.
	queue := make(chan op, total)
	recs := make([]*Recorder, sc.Workers)
	fails := make([]int, sc.Workers)
	dones := make([]int, sc.Workers)
	start := r.clk.Now()
	var wg sync.WaitGroup
	for w := 0; w < sc.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := new(Recorder)
			recs[w] = rec
			for o := range queue {
				if ctx.Err() != nil {
					return
				}
				slice := r.pattern[o.k%len(r.pattern)]
				_, err := r.invoke(ctx, o.k%len(r.targets), sc.Workload[slice].Kind, r.args[slice])
				rec.RecordFrom(o.intended, r.clk.Now())
				if err != nil {
					fails[w]++
				} else {
					dones[w]++
				}
			}
		}(w)
	}
	issued := 0
	for k := 0; k < total && ctx.Err() == nil; k++ {
		intended := start.Add(time.Duration(k) * interval)
		if wait := intended.Sub(r.clk.Now()); wait > 0 {
			if clock.SleepCtx(ctx, r.clk, wait) != nil {
				break
			}
		}
		queue <- op{k: k, intended: intended}
		issued++
	}
	close(queue)
	wg.Wait()
	return r.collect(recs, fails, dones, issued, r.clk.Now().Sub(start)), nil
}

// collect merges the per-worker recorders into one result.
func (r *Runner) collect(recs []*Recorder, fails, dones []int, issued int, elapsed time.Duration) *Result {
	merged := new(Recorder)
	res := &Result{Issued: issued, Elapsed: elapsed}
	for w := range recs {
		if recs[w] == nil {
			continue
		}
		merged.Merge(recs[w])
		res.Failed += fails[w]
		res.Completed += dones[w]
	}
	res.Latency = merged.Snapshot()
	return res
}

// RunScenario is the one-call entry: build the world, run it, tear it
// down.
func RunScenario(ctx context.Context, sc *Scenario, clk clock.Clock, hook testbed.Hook) (*Result, error) {
	r, err := NewRunner(sc, clk, hook)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.Run(ctx)
}
