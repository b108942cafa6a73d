// Figure D1: the sharded directory plane under load and under faults.
//
// Part one is the scale sweep: resolve+invoke throughput and latency
// percentiles as the registered-object count grows 1e3 -> 1e6, with the
// resolver's watch-fed cache on versus off. The claim is that the cached
// resolver's p99 stays flat (within 2x) across three orders of magnitude
// of table size, because a hot name costs one local cache probe plus the
// invocation itself, while the uncached resolver pays a directory round
// trip on every call.
//
// Part two is the crash schedule: an uncached resolver streams lookups
// across every shard while the machine hosting shard 0's primary crashes
// and later restarts. With K=2 replication the merged read reference
// (every replica's protocol entries in one ordered table — the paper's
// §3.1 table as a failover chain) keeps resolution available through the
// outage; with a single replica the names owned by the crashed shard go
// dark until the restart.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"openhpcxx/internal/core"
	"openhpcxx/internal/directory"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/health"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/testbed"
)

// D1 figure mode names.
const (
	D1ModeCached     = "cached"
	D1ModeUncached   = "uncached"
	D1ModeReplicated = "replicated"
	D1ModeSingle     = "single"
	D1FigureTitle    = "Figure D1: directory plane — resolve+invoke at scale and through shard crashes"
)

// d1DirPort is the base sim port for the shard-hosting contexts; fixed so
// the crash schedule's restart hook can re-bind the advertised address.
const d1DirPort = 7111

// D1Config parameterizes the directory experiment.
type D1Config struct {
	// Profile shapes the LAN joining client, servers, and shard hosts
	// (default ProfileEthernet).
	Profile netsim.LinkProfile
	// Sizes are the registered-object counts of the scale sweep
	// (default 1e3, 1e4, 1e5, 1e6).
	Sizes []int
	// Ops is how many resolve+invoke operations each scale cell
	// measures (default 1500).
	Ops int
	// HotNames is the client's working-set size — the names the op loop
	// cycles through (default 128, well inside the resolve cache).
	HotNames int
	// Shards is the partition count (default 3).
	Shards int
	// CrashDuration is the crash-schedule run length (default 1.2s);
	// the primary's host crashes at 1/4 and restarts at 1/2.
	CrashDuration time.Duration
	// Pace is the gap between crash-schedule resolves (default 1ms).
	Pace time.Duration
}

func (c *D1Config) fill(o Options) {
	setDefault(&c.Profile, netsim.ProfileEthernet)
	if len(c.Sizes) == 0 {
		c.Sizes = pick(o, []int{1_000, 10_000, 100_000, 1_000_000}, []int{1_000, 100_000})
	}
	setDefault(&c.Ops, o.Reps)
	setDefault(&c.Ops, pick(o, 1500, 400))
	setDefault(&c.HotNames, 128)
	setDefault(&c.Shards, 3)
	setDefault(&c.CrashDuration, pick(o, 1200*time.Millisecond, 700*time.Millisecond))
	setDefault(&c.Pace, time.Millisecond)
}

// D1ScalePoint is one cell of the scale sweep.
type D1ScalePoint struct {
	Mode       string  `json:"mode"`
	Registered int     `json:"registered"`
	Ops        int     `json:"ops"`
	Failed     int     `json:"failed"`
	Throughput float64 `json:"ops_per_sec"`
	// P50/P99 are resolve+invoke latency percentiles.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	// HitRate is resolve-cache hits over cache-consulting resolves.
	HitRate float64 `json:"hit_rate"`
}

// D1CrashPoint is one replication mode through the crash schedule.
type D1CrashPoint struct {
	Mode         string        `json:"mode"`
	Replicas     int           `json:"replicas"`
	Total        int           `json:"total"`
	OK           int           `json:"ok"`
	Failed       int           `json:"failed"`
	Availability float64       `json:"availability"`
	P50          time.Duration `json:"p50_ns"`
	P99          time.Duration `json:"p99_ns"`
}

// D1Result is the whole figure.
type D1Result struct {
	Profile  string         `json:"profile"`
	Shards   int            `json:"shards"`
	Scale    []D1ScalePoint `json:"scale"`
	Schedule []string       `json:"schedule"`
	Crash    []D1CrashPoint `json:"crash"`
}

// d1Deployment is one directory testbed: shard hosts on their own
// machines, an echo server, and a client.
type d1Deployment struct {
	*testbed.Builder
	client *core.Context
	dir0   *testbed.Node // hosts shard 0's primary
	plane  *directory.Plane
	boot   *directory.Bootstrap
	echo   []byte // encoded reference of the echo servant
}

// newD1Deployment builds a plane of cfg.Shards shards with the given
// replication across three shard-hosting machines. Every port is fixed:
// the crash schedule's restart hook re-binds the advertised address.
func newD1Deployment(cfg D1Config, label string, replicas int, o Options) (*d1Deployment, error) {
	tb := testbed.New("bench-d1-"+label, o.OnRuntime)
	tb.LAN("lan", "campus", cfg.Profile, "dir-m0", "dir-m1", "dir-m2", "server-m", "client-m")
	tb.RT.SetHealthOptions(health.Options{
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  150 * time.Millisecond,
	})
	d := &d1Deployment{Builder: tb, dir0: tb.Context("dir0", "dir-m0").Bind(d1DirPort)}
	dirCtxs := []*core.Context{d.dir0.Ctx,
		tb.Context("dir1", "dir-m1").Bind(d1DirPort + 1).Ctx,
		tb.Context("dir2", "dir-m2").Bind(d1DirPort + 2).Ctx}
	srv := tb.Context("server", "server-m").Bind(7200).Echo("d1/exchange")
	ref := srv.Ref(srv.Stream())
	client := tb.Context("client", "client-m").Bind(7300)
	tb.Do(func() (err error) {
		if d.echo, err = core.EncodeRef(ref); err != nil {
			return err
		}
		if d.plane, err = directory.ServePlane(dirCtxs, directory.Topology{Shards: cfg.Shards, Replicas: replicas}); err != nil {
			return err
		}
		d.boot, err = d.plane.Bootstrap()
		return err
	})
	if err := tb.Build(); err != nil {
		return nil, err
	}
	d.client = client.Ctx
	return d, nil
}

// d1Name is the i-th registered name.
func d1Name(i int) string { return fmt.Sprintf("d1/obj-%07d", i) }

// runD1ScaleCell measures one (size, mode) cell against an already
// preloaded deployment.
func runD1ScaleCell(cfg D1Config, d *d1Deployment, size int, mode string) (D1ScalePoint, error) {
	cacheSize := -1
	if mode == D1ModeCached {
		cacheSize = 0 // default bound
	}
	pt := D1ScalePoint{Mode: mode, Registered: size, Ops: cfg.Ops}
	res, err := directory.NewResolver(d.client, d.boot, directory.ResolverOptions{CacheSize: cacheSize})
	if err != nil {
		return pt, err
	}
	defer res.Close()

	hot := make([]string, cfg.HotNames)
	for i := range hot {
		// Spread the working set across the whole table, not just its
		// front, so every cell exercises arbitrary positions.
		hot[i] = d1Name(i * (size / cfg.HotNames))
	}
	arr := testbed.Ints(16)
	op := func(name string) error {
		ref, err := res.Resolve(name)
		if err != nil {
			return err
		}
		gp := d.client.NewGlobalPtr(ref)
		_, err = exchange(gp, arr)
		gp.Release()
		return err
	}
	// Warm-up: populate the cache (cached mode) and set up connections.
	for _, name := range hot {
		if err := op(name); err != nil {
			return pt, errs.Wrapf(errs.CodeOf(err), err, "bench: d1 %s warm-up", mode)
		}
	}
	// The registry is shared with the other mode's cell: count from here.
	hits, misses := d.RT.Metrics().Counter("dir.cache.hits"), d.RT.Metrics().Counter("dir.cache.misses")
	hits0, misses0 := hits.Value(), misses.Value()
	var latencies []time.Duration
	start := time.Now()
	for i := 0; i < cfg.Ops; i++ {
		t0 := time.Now()
		if err := op(hot[i%len(hot)]); err != nil {
			pt.Failed++
			continue
		}
		latencies = append(latencies, time.Since(t0))
	}
	if elapsed := time.Since(start); elapsed > 0 {
		pt.Throughput = float64(cfg.Ops) / elapsed.Seconds()
	}
	pt.P50, pt.P99 = percentiles(latencies)
	h, m := hits.Value()-hits0, misses.Value()-misses0
	pt.HitRate = ratio(int(h), int(h+m))
	return pt, nil
}

// runD1Size runs one size of the sweep: one preloaded plane serves the
// cached and uncached cells back to back.
func runD1Size(cfg D1Config, size int, o Options) ([]D1ScalePoint, error) {
	d, err := newD1Deployment(cfg, fmt.Sprintf("scale-%d", size), 1, o)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	// Preload through BindDirect: a million names through the wire
	// handlers would measure the preloader, not the resolver. No
	// lease — nothing heartbeats these.
	for i := 0; i < size; i++ {
		d.plane.Preload(d1Name(i), d.echo, 0)
	}
	// Quiesce after the bulk build so the cells measure resolution,
	// not the collector digesting a freshly allocated table.
	runtime.GC()
	var points []D1ScalePoint
	for _, mode := range []string{D1ModeCached, D1ModeUncached} {
		pt, err := runD1ScaleCell(cfg, d, size, mode)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return points, nil
}

// runD1CrashMode streams uncached resolves across every shard under one
// replication setting while shard 0's primary host crashes a quarter in
// and restarts (re-binding the advertised port) at the halfway mark.
func runD1CrashMode(cfg D1Config, mode string, replicas int, o Options) (D1CrashPoint, []string, error) {
	pt := D1CrashPoint{Mode: mode, Replicas: replicas}
	d, err := newD1Deployment(cfg, mode, replicas, o)
	if err != nil {
		return pt, nil, err
	}
	defer d.Close()
	// A small table is enough — the crash part measures availability,
	// not scale. Uncached resolver: every resolve must reach a shard.
	const names = 64
	for i := 0; i < names; i++ {
		d.plane.Preload(d1Name(i), d.echo, 0)
	}
	res, err := directory.NewResolver(d.client, d.boot, directory.ResolverOptions{CacheSize: -1})
	if err != nil {
		return pt, nil, err
	}
	defer res.Close()
	// Warm-up across all shards before the schedule starts.
	for i := 0; i < cfg.Shards; i++ {
		if _, err := res.Resolve(d1Name(i)); err != nil {
			return pt, nil, errs.Wrapf(errs.CodeOf(err), err, "bench: d1 %s warm-up", mode)
		}
	}

	plan := new(netsim.FaultPlan).
		CrashAt(cfg.CrashDuration/4, "dir-m0").
		RestartAt(cfg.CrashDuration/2, "dir-m0", d.dir0.Rebind)
	t := paced{Duration: cfg.CrashDuration, Pace: cfg.Pace, Workers: 1}.run(d.Builder, plan,
		func(_ context.Context, _, i int) (string, bool) {
			if _, err := res.Resolve(d1Name(i % names)); err != nil {
				return "failed", false
			}
			return "ok", true
		})
	pt.Total, pt.OK, pt.Failed = t.Total, t.By["ok"], t.By["failed"]
	pt.Availability = ratio(pt.OK, pt.Total)
	pt.P50, pt.P99 = t.P50, t.P99
	return pt, plan.Schedule(), nil
}

// RunFigureD1 produces the directory figure: the scale sweep, then the
// crash schedule with and without replication.
func RunFigureD1(cfg D1Config, o Options) (*D1Result, error) {
	cfg.fill(o)
	if cfg.HotNames > cfg.Sizes[0] {
		return nil, errs.New(errs.Config, "bench: d1 hot set larger than the smallest table")
	}
	res := &D1Result{Profile: cfg.Profile.Name, Shards: cfg.Shards}
	for _, size := range cfg.Sizes {
		points, err := runD1Size(cfg, size, o)
		if err != nil {
			return nil, err
		}
		res.Scale = append(res.Scale, points...)
	}
	for _, m := range []struct {
		mode     string
		replicas int
	}{{D1ModeReplicated, 2}, {D1ModeSingle, 1}} {
		pt, schedule, err := runD1CrashMode(cfg, m.mode, m.replicas, o)
		if err != nil {
			return nil, err
		}
		res.Schedule = schedule
		res.Crash = append(res.Crash, pt)
	}
	return res, nil
}

// Format implements Report.
func (r *D1Result) Format() string { return FormatFigureD1(r) }

// FormatFigureD1 renders the figure as text tables.
func FormatFigureD1(r *D1Result) string {
	out := fmt.Sprintf("%s\n  profile %s, %d shards\n\n  scale sweep (resolve+invoke, hot working set):\n",
		D1FigureTitle, r.Profile, r.Shards)
	out += fmt.Sprintf("  %-10s %10s %7s %7s %12s %10s %10s %9s\n",
		"mode", "registered", "ops", "failed", "ops/sec", "p50", "p99", "hit-rate")
	for _, p := range r.Scale {
		out += fmt.Sprintf("  %-10s %10d %7d %7d %12.0f %10v %10v %8.1f%%\n",
			p.Mode, p.Registered, p.Ops, p.Failed, p.Throughput,
			p.P50.Round(10*time.Microsecond), p.P99.Round(10*time.Microsecond), 100*p.HitRate)
	}
	var first, last time.Duration
	for _, p := range r.Scale {
		if p.Mode != D1ModeCached {
			continue
		}
		if first == 0 {
			first = p.P99
		}
		last = p.P99
	}
	if first > 0 {
		out += fmt.Sprintf("\n  cached p99 moves %.2fx from the smallest to the largest table\n", float64(last)/float64(first))
	}
	out += "\n  crash schedule (uncached resolves across all shards):\n"
	for _, ev := range r.Schedule {
		out += "    " + ev + "\n"
	}
	out += fmt.Sprintf("\n  %-12s %9s %7s %6s %7s %13s %10s %10s\n",
		"mode", "replicas", "total", "ok", "failed", "availability", "p50", "p99")
	for _, p := range r.Crash {
		out += fmt.Sprintf("  %-12s %9d %7d %6d %7d %12.2f%% %10v %10v\n",
			p.Mode, p.Replicas, p.Total, p.OK, p.Failed, 100*p.Availability,
			p.P50.Round(10*time.Microsecond), p.P99.Round(10*time.Microsecond))
	}
	var rep, single float64
	for _, p := range r.Crash {
		if p.Mode == D1ModeReplicated {
			rep = p.Availability
		} else {
			single = p.Availability
		}
	}
	out += fmt.Sprintf("\n  replication keeps resolution at %.1f%% availability through the crash; a single replica leaves %.1f%%\n",
		100*rep, 100*single)
	return out
}
