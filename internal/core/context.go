package core

import (
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/health"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/stats"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/transport/nexus"
	"openhpcxx/internal/wire"
)

// Method is one remotely invocable operation of a servant. Arguments and
// results are XDR-encoded bodies; typed stubs live in call.go.
//
// args aliases the request's frame, which is lent: args, and a reply that
// aliases it (returning args or a slice of it is fine), are valid until
// the reply has been written, and a servant that keeps either copies it.
// A reply in the servant's own memory stays the servant's: the ORB
// recycles only buffers it lent itself (Handler's).
type Method func(args []byte) ([]byte, error)

// Migratable is implemented by servant implementations whose state can
// move between contexts (paper §4.3: "Open HPC++ provides a facility for
// objects to migrate from one context to another").
type Migratable interface {
	Snapshot() ([]byte, error)
	Restore(state []byte) error
}

// Activator manufactures a fresh implementation of a named interface —
// the receiving side of a migration uses it to rebuild the servant
// before restoring the snapshot.
type Activator func() (impl any, methods map[string]Method)

// GlueServer is the server side of a glue protocol object: it unprocesses
// enveloped request bodies and processes reply bodies. The capability
// package provides the implementation; core only routes to it, keeping
// the ORB free of capability-specific knowledge (Open Implementation).
type GlueServer interface {
	UnwrapRequest(m *wire.Message) ([]byte, error)
	WrapReply(req *wire.Message, body []byte) (*wire.Message, error)
}

// GlueEnvelopeID is the envelope chain's leading entry, whose data names
// the server-side glue instance.
const GlueEnvelopeID = "glue"

// Runtime owns process-wide state: the network, the shared-memory
// fabric, the default protocol pool, and the interface registry used to
// reactivate migrated objects.
type Runtime struct {
	network *netsim.Network
	shm     *transport.SHM
	process string
	clock   clock.Clock
	metrics *stats.Registry
	tracer  *obs.Tracer
	events  *eventLog

	defaultPool *ProtoPool

	// Introspection gauges, cached at construction so hot paths touch
	// atomics, not the registry lock: rpc.inflight counts invocations
	// currently running (sync and async), core.contexts live contexts,
	// core.gps live global pointers.
	inflightGauge *stats.Gauge
	ctxGauge      *stats.Gauge
	gpGauge       *stats.Gauge

	// Per-code error accounting (the taxonomy's whole point for SLOs):
	// rpc.errors{code=...} handles pre-resolved for every known code so
	// the settle path increments an atomic, plus the retry-budget
	// counters. Unknown (forward-compat) codes fall through to the
	// registry on demand.
	errCounters   map[errs.Code]*stats.Counter
	retryAttempts *stats.Counter

	// Per-endpoint EWMA meter cache (see meters.go), keyed by the
	// health-tracker key "proto|addr" and guarded separately from the
	// main runtime lock so a GP binding a protocol never contends with
	// contexts/gps bookkeeping.
	epMu     sync.RWMutex
	epMeters map[string]*endpointMeters

	mu       sync.RWMutex
	ifaces   map[string]Activator
	contexts map[string]*Context
	htracker *health.Tracker
	failover bool
	retryCfg RetryBudgetConfig
	// sections are subsystem status contributors (RegisterStatusSection).
	sections map[string]func() any
}

// NewRuntime creates a runtime for one OS process attached to a
// simulated network. The default pool is pre-loaded with the built-in
// protocols in the order shm, hpcx-tcp, nexus-tcp.
func NewRuntime(network *netsim.Network, process string) *Runtime {
	metrics := stats.New()
	rt := &Runtime{
		network:       network,
		shm:           transport.NewSHM(),
		process:       process,
		clock:         clock.Real{},
		metrics:       metrics,
		tracer:        obs.NewTracer(nil),
		events:        newEventLog(),
		defaultPool:   NewProtoPool(),
		inflightGauge: metrics.Gauge("rpc.inflight"),
		ctxGauge:      metrics.Gauge("core.contexts"),
		gpGauge:       metrics.Gauge("core.gps"),
		errCounters:   make(map[errs.Code]*stats.Counter),
		retryAttempts: metrics.Counter("rpc.retry.attempts"),
		epMeters:      make(map[string]*endpointMeters),
		ifaces:        make(map[string]Activator),
		contexts:      make(map[string]*Context),
		htracker:      health.NewTracker(health.Options{Metrics: metrics}),
		failover:      true,
		retryCfg:      DefaultRetryBudget,
	}
	for _, c := range errs.KnownCodes() {
		rt.errCounters[c] = metrics.CounterWith("rpc.errors", stats.Labels{"code": c.String()})
	}
	rt.defaultPool.Register(shmFactory{})
	rt.defaultPool.Register(streamFactory{})
	rt.defaultPool.Register(nexusFactory{})
	return rt
}

// SetClock installs a clock (tests use clock.Fake for determinism). The
// tracer follows the runtime clock, so spans recorded under a fake
// clock carry simulated durations.
func (rt *Runtime) SetClock(c clock.Clock) {
	rt.clock = c
	rt.tracer.SetClock(c)
}

// Tracer returns the runtime's invocation tracer. With no recorder
// installed (the default) tracing costs one atomic load per invocation;
// install an obs.Store (or an obstest.Collector in tests) to capture
// end-to-end spans:
//
//	store := obs.NewStore(obs.StoreOptions{}) // keep everything
//	rt.Tracer().SetRecorder(store)
//	... traffic ...
//	store.WriteJSON(os.Stdout)
func (rt *Runtime) Tracer() *obs.Tracer { return rt.tracer }

// Health returns the runtime's endpoint-health tracker. Global pointers
// report per-endpoint successes and failures into it and consult it
// during protocol selection, so an endpoint that trips its circuit
// breaker is skipped until a background probe proves recovery.
func (rt *Runtime) Health() *health.Tracker {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.htracker
}

// SetHealthOptions replaces the health tracker with one using the given
// options (failure threshold, probe interval, clock). Existing breaker
// state is discarded; call before issuing traffic. The runtime's metrics
// registry is wired in unless the options carry their own.
func (rt *Runtime) SetHealthOptions(opts health.Options) {
	if opts.Metrics == nil {
		opts.Metrics = rt.metrics
	}
	t := health.NewTracker(opts)
	rt.mu.Lock()
	old := rt.htracker
	rt.htracker = t
	rt.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// SetFailover enables or disables endpoint-health failover (on by
// default). With failover off, protocol selection ignores breaker state
// and invocation failures are retried against the same ordered-table
// choice — the baseline mode of the Figure R1 availability experiment.
func (rt *Runtime) SetFailover(on bool) {
	rt.mu.Lock()
	rt.failover = on
	rt.mu.Unlock()
}

// FailoverEnabled reports whether endpoint-health failover is on.
func (rt *Runtime) FailoverEnabled() bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.failover
}

// SetRetryBudget sets the retry-budget configuration GPs are created
// with (DefaultRetryBudget unless changed; Disabled turns budgeting
// off runtime-wide for new GPs — Figure E1's storm baseline). Existing
// GPs keep their buckets; use GlobalPtr.SetRetryBudget to replace one.
func (rt *Runtime) SetRetryBudget(cfg RetryBudgetConfig) {
	rt.mu.Lock()
	rt.retryCfg = cfg
	rt.mu.Unlock()
}

// RetryBudget reports the runtime's GP-creation retry-budget config.
func (rt *Runtime) RetryBudget() RetryBudgetConfig {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.retryCfg
}

// errCounter returns the per-code error counter (rpc.errors{code=...}),
// pre-resolved for every code in the taxonomy; forward-compat codes
// from newer peers resolve through the registry on first use.
func (rt *Runtime) errCounter(c errs.Code) *stats.Counter {
	if ctr, ok := rt.errCounters[c]; ok {
		return ctr
	}
	return rt.metrics.CounterWith("rpc.errors", stats.Labels{"code": c.String()})
}

// exhaustedCounter returns the per-code retry-budget exhaustion counter
// (rpc.retry.budget_exhausted{code=...}): how often a dry bucket
// stopped a retry that a failure with this code asked for.
func (rt *Runtime) exhaustedCounter(c errs.Code) *stats.Counter {
	return rt.metrics.CounterWith("rpc.retry.budget_exhausted", stats.Labels{"code": c.String()})
}

// Clock returns the runtime clock.
func (rt *Runtime) Clock() clock.Clock { return rt.clock }

// Metrics returns the runtime's metrics registry. The ORB accounts for
// per-protocol calls, faults, payload bytes, and round-trip latencies
// under "rpc.*{proto=...}"; server-side dispatch under "srv.*".
func (rt *Runtime) Metrics() *stats.Registry { return rt.metrics }

// MetricsSnapshot exports every runtime metric at a point in time —
// the programmatic face of the registry, for experiment harnesses and
// the cmd front-ends' JSON dumps. Meter rates decay to the runtime
// clock's now, so a fake-clock harness reads deterministic rates.
func (rt *Runtime) MetricsSnapshot() stats.RegistrySnapshot {
	return rt.metrics.SnapshotAt(rt.clock.Now())
}

// WriteMetrics dumps the runtime's metrics as indented JSON.
func (rt *Runtime) WriteMetrics(w io.Writer) error {
	_, err := rt.metrics.WriteTo(w)
	return err
}

// Process returns the runtime's process tag.
func (rt *Runtime) Process() string { return rt.process }

// Network returns the simulated network, or nil.
func (rt *Runtime) Network() *netsim.Network { return rt.network }

// SHM returns the process-local shared-memory fabric.
func (rt *Runtime) SHM() *transport.SHM { return rt.shm }

// DefaultPool is the pool template cloned into new contexts. Register
// extra factories (e.g. the glue protocol) here before creating
// contexts.
func (rt *Runtime) DefaultPool() *ProtoPool { return rt.defaultPool }

// RegisterIface installs an activator for a named interface.
func (rt *Runtime) RegisterIface(name string, a Activator) {
	rt.mu.Lock()
	rt.ifaces[name] = a
	rt.mu.Unlock()
}

// Activate builds a fresh implementation of a registered interface.
func (rt *Runtime) Activate(name string) (any, map[string]Method, error) {
	rt.mu.RLock()
	a, ok := rt.ifaces[name]
	rt.mu.RUnlock()
	if !ok {
		return nil, nil, errs.Newf(errs.Config, "core: no activator for interface %q", name)
	}
	impl, methods := a()
	return impl, methods, nil
}

// NewContext creates a context (virtual address space) on a machine.
func (rt *Runtime) NewContext(name string, machine netsim.MachineID) (*Context, error) {
	loc, err := rt.network.LocalityOf(machine, rt.process)
	if err != nil {
		return nil, err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, dup := rt.contexts[name]; dup {
		return nil, errs.Newf(errs.Conflict, "core: context %q exists", name)
	}
	c := &Context{
		rt:          rt,
		name:        name,
		loc:         loc,
		pool:        rt.defaultPool.Clone(),
		servants:    make(map[ObjectID]*Servant),
		tombstones:  make(map[ObjectID]*ObjectRef),
		glues:       make(map[string]GlueServer),
		bindings:    make(map[ProtoID]string),
		gps:         make(map[*GlobalPtr]struct{}),
		srvConns:    rt.metrics.GaugeWith("srv.conns", stats.Labels{"context": name}),
		srvInflight: rt.metrics.GaugeWith("srv.inflight", stats.Labels{"context": name}),
		srv:         newSrvCounters(rt.metrics),
	}
	c.muxes = transport.NewPool(c.dialAddr)
	c.muxes.SetSizeGauge(rt.metrics.GaugeWith("transport.muxes", stats.Labels{"context": name}))
	rt.contexts[name] = c
	rt.ctxGauge.Inc()
	return c, nil
}

// Context returns a context by name.
func (rt *Runtime) Context(name string) (*Context, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	c, ok := rt.contexts[name]
	return c, ok
}

// Close shuts down every context.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	ctxs := make([]*Context, 0, len(rt.contexts))
	for _, c := range rt.contexts {
		ctxs = append(ctxs, c)
	}
	rt.contexts = make(map[string]*Context)
	ht := rt.htracker
	rt.htracker = nil
	rt.mu.Unlock()
	for _, c := range ctxs {
		c.Close()
	}
	if ht != nil {
		ht.Close()
	}
}

// Context is a virtual address space hosting server objects. It owns a
// protocol pool (client side), serving bindings (server side), and the
// dispatcher shared by every protocol class.
type Context struct {
	rt   *Runtime
	name string
	loc  netsim.Locality

	pool  *ProtoPool
	muxes *transport.Pool

	nexusMu   sync.Mutex
	nexusNode *nexus.Node

	mu         sync.RWMutex
	servants   map[ObjectID]*Servant
	tombstones map[ObjectID]*ObjectRef
	glues      map[string]GlueServer
	bindings   map[ProtoID]string
	servers    []io.Closer
	gps        map[*GlobalPtr]struct{} // live GPs, for /statusz
	nextObj    uint64
	closed     bool
	draining   bool
	inflight   sync.WaitGroup // requests dispatch admitted (under mu.RLock)

	// srvConns / srvInflight are shared by every transport server this
	// context binds (additive: each server Inc/Decs deltas only).
	srvConns    *stats.Gauge
	srvInflight *stats.Gauge
	srv         srvCounters
}

// srvCounters are the runtime-wide dispatch counters, resolved when the
// context is created so that a dispatch increments a handle instead of
// taking the registry lock for a map lookup.
type srvCounters struct {
	requests, faults, drained, expired *stats.Counter
	batches, batchMsgs                 *stats.Counter
	oneway, onewayFaults               *stats.Counter
}

func newSrvCounters(m *stats.Registry) srvCounters {
	return srvCounters{
		requests:     m.Counter("srv.requests"),
		faults:       m.Counter("srv.faults"),
		drained:      m.Counter("srv.drained"),
		expired:      m.Counter("srv.expired"),
		batches:      m.Counter("srv.batches"),
		batchMsgs:    m.Counter("srv.batch_msgs"),
		oneway:       m.Counter("srv.oneway"),
		onewayFaults: m.Counter("srv.oneway_faults"),
	}
}

// Name returns the context's name.
func (c *Context) Name() string { return c.name }

// Locality returns where this context runs.
func (c *Context) Locality() netsim.Locality { return c.loc }

// Runtime returns the owning runtime.
func (c *Context) Runtime() *Runtime { return c.rt }

// Pool returns the context's protocol pool; callers may reorder or
// extend it (user control over protocol selection).
func (c *Context) Pool() *ProtoPool { return c.pool }

// dialAddr connects to a fabric address: "shm:name", "sim://machine:port"
// or "tcp://host:port".
func (c *Context) dialAddr(addr string) (net.Conn, error) {
	switch {
	case strings.HasPrefix(addr, "shm:"):
		return c.rt.shm.Dial(strings.TrimPrefix(addr, "shm:"))
	case strings.HasPrefix(addr, "sim://"):
		target, err := parseSimAddr(addr)
		if err != nil {
			return nil, err
		}
		return c.rt.network.Dial(c.loc.Machine, target)
	case strings.HasPrefix(addr, "tcp://"):
		return net.Dial("tcp", strings.TrimPrefix(addr, "tcp://"))
	}
	return nil, errs.Newf(errs.Config, "core: unsupported address %q", addr)
}

func parseSimAddr(addr string) (netsim.Addr, error) {
	rest := strings.TrimPrefix(addr, "sim://")
	host, portStr, ok := strings.Cut(rest, ":")
	if !ok {
		return netsim.Addr{}, errs.Newf(errs.Config, "core: malformed sim address %q", addr)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return netsim.Addr{}, errs.Newf(errs.Config, "core: malformed sim port %q", portStr)
	}
	return netsim.Addr{Machine: netsim.MachineID(host), Port: port}, nil
}

// addServer records a serving binding.
func (c *Context) addServer(id ProtoID, addr string, closer io.Closer) {
	c.mu.Lock()
	c.bindings[id] = addr
	c.servers = append(c.servers, closer)
	c.mu.Unlock()
}

// RegisterBinding records a serving binding installed by a user-written
// protocol class (the paper's custom protocols, §3.2): the address is
// advertised through Binding and the closer is shut down with the
// context. Built-in Bind* methods use the same path internally.
func (c *Context) RegisterBinding(id ProtoID, addr string, closer io.Closer) {
	c.addServer(id, addr, closer)
}

// OnClose ties a resource's lifetime to the context: its Close runs when
// the context closes (after the transport servers). Services that start
// background work on behalf of a context — the registry's lease sweeper,
// the directory's watch fanout — register here so tearing down the
// context never leaks their goroutines. If the context is already
// closed, the closer runs immediately.
func (c *Context) OnClose(cl io.Closer) {
	if cl == nil {
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		// Best-effort: the context is gone; the resource just needs to
		// stop.
		_ = cl.Close()
		return
	}
	c.servers = append(c.servers, cl)
	c.mu.Unlock()
}

// Dispatch runs the context's server-side request path on one frame and
// returns the reply frame (nil for non-request frames). It is the hook
// custom protocol classes deliver inbound requests through — the same
// dispatcher behind every built-in protocol class. The reply may alias m
// and hold a lent buffer: encoding it (wire.Write, wire.Marshal) gives
// that back, and a caller that drops it loses only the reuse.
func (c *Context) Dispatch(m *wire.Message) *wire.Message {
	return c.dispatch(m)
}

// Binding returns the serving address for a protocol, if bound.
func (c *Context) Binding(id ProtoID) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	a, ok := c.bindings[id]
	return a, ok
}

// BindSHM makes the context reachable over the in-process shared-memory
// fabric (protocol "shm").
func (c *Context) BindSHM() error {
	name := "ctx-" + c.name
	l, err := c.rt.shm.Listen(name)
	if err != nil {
		return err
	}
	srv := transport.Serve(l, c.dispatch)
	srv.SetTracer(c.rt.Tracer())
	srv.SetGauges(c.srvConns, c.srvInflight)
	c.addServer(ProtoSHM, "shm:"+name, srv)
	return nil
}

// BindSim makes the context reachable over the simulated network on the
// given port (protocol "hpcx-tcp"). Port 0 allocates one.
func (c *Context) BindSim(port int) error {
	l, err := c.rt.network.Listen(c.loc.Machine, port)
	if err != nil {
		return err
	}
	a := l.Addr().(netsim.Addr)
	srv := transport.Serve(l, c.dispatch)
	srv.SetTracer(c.rt.Tracer())
	srv.SetGauges(c.srvConns, c.srvInflight)
	c.addServer(ProtoStream, fmt.Sprintf("sim://%s:%d", a.Machine, a.Port), srv)
	return nil
}

// BindTCP makes the context reachable over real TCP (protocol
// "hpcx-tcp"); hostport is e.g. "127.0.0.1:0".
func (c *Context) BindTCP(hostport string) error {
	l, err := net.Listen("tcp", hostport)
	if err != nil {
		return err
	}
	srv := transport.Serve(l, c.dispatch)
	srv.SetTracer(c.rt.Tracer())
	srv.SetGauges(c.srvConns, c.srvInflight)
	c.addServer(ProtoStream, "tcp://"+l.Addr().String(), srv)
	return nil
}

// BindNexusSim makes the context reachable through the Nexus messaging
// layer over the simulated network (protocol "nexus-tcp").
func (c *Context) BindNexusSim(port int) error {
	l, err := c.rt.network.Listen(c.loc.Machine, port)
	if err != nil {
		return err
	}
	a := l.Addr().(netsim.Addr)
	// The node's shared "orb" endpoint (bound in c.nexus) serves every
	// attached listener; the node owns the listener's lifetime.
	c.nexus().Attach(l)
	c.addServer(ProtoNexus, fmt.Sprintf("sim://%s:%d", a.Machine, a.Port), closerFunc(func() error { return nil }))
	return nil
}

type closerFunc func() error

func (f closerFunc) Close() error { return f() }

// nexus returns the context's Nexus node, creating it on first use and
// binding the ORB dispatch handler.
func (c *Context) nexus() *nexus.Node {
	c.nexusMu.Lock()
	defer c.nexusMu.Unlock()
	if c.nexusNode == nil {
		c.nexusNode = nexus.NewNode(c.dialAddr)
		ep, err := c.nexusNode.CreateEndpoint(orbEndpoint)
		if err == nil {
			ep.Bind(orbInvokeHandler, c.nexusInvoke)
		}
	}
	return c.nexusNode
}

// Drain puts the context into lame-duck mode ahead of a planned shutdown
// or migration wave and returns once the requests it had admitted have
// finished. Listeners stay open, and dispatch gives every later request
// a verdict of its own (refuse). Close remains the hard stop.
func (c *Context) Drain() {
	c.mu.Lock()
	if c.draining || c.closed {
		c.mu.Unlock()
		return
	}
	c.draining = true
	c.mu.Unlock()
	c.rt.recordEvent("drain", "", "context %s draining", c.name)
	c.inflight.Wait()
}

// Draining reports whether the context is in lame-duck mode.
func (c *Context) Draining() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.draining
}

// Close tears down servers, connections and the Nexus node.
func (c *Context) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	servers := c.servers
	c.servers = nil
	c.mu.Unlock()
	c.rt.ctxGauge.Dec()
	for _, s := range servers {
		s.Close()
	}
	c.muxes.Close()
	c.nexusMu.Lock()
	if c.nexusNode != nil {
		// Best-effort teardown: the node's sockets are going away with
		// the context either way.
		_ = c.nexusNode.Close()
	}
	c.nexusMu.Unlock()
}

// RegisterGlue installs the server side of a glue protocol under a tag.
func (c *Context) RegisterGlue(tag string, g GlueServer) {
	c.mu.Lock()
	c.glues[tag] = g
	c.mu.Unlock()
}

// UnregisterGlue removes a glue registration.
func (c *Context) UnregisterGlue(tag string) {
	c.mu.Lock()
	delete(c.glues, tag)
	c.mu.Unlock()
}

// glue looks up a glue server by a frame's tag bytes, allocating nothing.
func (c *Context) glue(tag []byte) (GlueServer, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, ok := c.glues[string(tag)]
	return g, ok
}

// Objects lists the context's exported object ids, sorted — an
// operations/debugging view used by balancers and tooling.
func (c *Context) Objects() []ObjectID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]ObjectID, 0, len(c.servants))
	for id := range c.servants {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Bindings lists the context's serving bindings as "proto addr" pairs,
// sorted by protocol id.
func (c *Context) Bindings() map[ProtoID]string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[ProtoID]string, len(c.bindings))
	for id, addr := range c.bindings {
		out[id] = addr
	}
	return out
}
