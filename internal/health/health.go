// Package health tracks per-endpoint liveness with a circuit breaker,
// so the ORB's protocol selection (paper §3.1's ordered protocol table)
// can demote endpoints that are failing and re-promote them when an
// out-of-band probe proves they recovered — without risking live
// requests on a dead endpoint.
//
// Each endpoint key (typically a protocol entry's address) carries a
// three-state breaker:
//
//	Closed   — healthy; traffic flows.
//	Open     — tripped after FailureThreshold consecutive failures;
//	           selection skips the endpoint.
//	HalfOpen — a background probe is testing the endpoint; selection
//	           still skips it (probes, never live traffic, take the
//	           risk of a still-dead endpoint).
//
// A Generation counter bumps on every state transition, so callers that
// cached a binding can detect "the health landscape changed" with one
// atomic load and re-run selection only then.
package health

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/stats"
)

// State is a breaker state.
type State int

// Breaker states.
const (
	Closed State = iota
	Open
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Probe checks an endpoint out of band; nil means alive. Any reply from
// the endpoint — even a remote fault — proves the path and process are
// up, so probes typically issue a cheap call and ignore the payload.
type Probe func() error

// Options configures a Tracker.
type Options struct {
	// FailureThreshold is the number of consecutive failures that trips
	// a breaker. Default 2: with the ORB's four-attempt invoke budget,
	// failover lands by the third attempt.
	FailureThreshold int
	// ProbeInterval is how often the background prober re-tests Open
	// endpoints that registered a Probe. Default 50ms. The prober's
	// interval timer runs on Clock, like the probe timeout: under a fake
	// clock it is one more waiter and fires only when the test advances
	// past the interval; tests that want a pass at a known point call
	// ProbeNow instead.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe invocation; a probe that exceeds it
	// counts as failure and the breaker stays Open. Default 1s. A probe
	// into a blackholed link would otherwise wedge the prober for the
	// transport's full call timeout.
	ProbeTimeout time.Duration
	// Clock timestamps transitions. Default clock.Real.
	Clock clock.Clock
	// Metrics, when set, receives per-endpoint breaker-state gauges
	// (health.breaker_state{endpoint="..."}: 0 closed, 1 open, 2
	// half-open), an open-endpoint count gauge (health.open_endpoints),
	// and a transition counter (health.transitions) — the signals the
	// introspection plane's flight recorder tracks across failovers.
	// Nil disables the instrumentation entirely.
	Metrics *stats.Registry
}

func (o Options) withDefaults() Options {
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 2
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 50 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	return o
}

type endpoint struct {
	state   State
	fails   int
	probe   Probe
	changed time.Time
}

// EndpointStatus is the public view of one endpoint's breaker — the
// /statusz row the introspection plane renders per protocol-table
// entry. Times read from the tracker's injected clock.
type EndpointStatus struct {
	// Key is the endpoint's tracker key ("proto|address").
	Key string `json:"key"`
	// State is the breaker state name: closed, open, or half-open.
	State string `json:"state"`
	// ConsecutiveFailures is the current failure streak.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// LastTransition is when the breaker last changed state.
	LastTransition time.Time `json:"last_transition"`
	// NextProbe is when the background prober will next test the
	// endpoint — zero unless the breaker is Open/HalfOpen and a probe
	// is registered.
	NextProbe time.Time `json:"next_probe,omitempty"`
}

// Tracker holds one breaker per endpoint key. Unknown keys are Closed:
// endpoints are innocent until proven failing. Safe for concurrent use.
type Tracker struct {
	opts Options
	gen  atomic.Uint64

	mu        sync.Mutex
	eps       map[string]*endpoint
	lastProbe time.Time // when ProbeNow last started a pass

	startProber sync.Once
	stop        chan struct{}
	wg          sync.WaitGroup
	closed      atomic.Bool
}

// NewTracker returns a Tracker with the given options.
func NewTracker(opts Options) *Tracker {
	return &Tracker{
		opts: opts.withDefaults(),
		eps:  make(map[string]*endpoint),
		stop: make(chan struct{}),
	}
}

func (t *Tracker) get(key string) *endpoint {
	ep, ok := t.eps[key]
	if !ok {
		ep = &endpoint{state: Closed, changed: t.opts.Clock.Now()}
		t.eps[key] = ep
	}
	return ep
}

func (t *Tracker) transition(key string, ep *endpoint, to State) {
	if ep.state == to {
		return
	}
	from := ep.state
	ep.state = to
	ep.changed = t.opts.Clock.Now()
	t.gen.Add(1)
	if m := t.opts.Metrics; m != nil {
		m.Counter("health.transitions").Inc()
		m.GaugeWith("health.breaker_state", stats.Labels{"endpoint": key}).Set(int64(to))
		switch {
		case from == Closed && to != Closed:
			m.Gauge("health.open_endpoints").Inc()
		case from != Closed && to == Closed:
			m.Gauge("health.open_endpoints").Dec()
		}
	}
}

// Allow reports whether live traffic should use the endpoint: true for
// Closed (or never-seen) endpoints, false while Open or HalfOpen.
func (t *Tracker) Allow(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	ep, ok := t.eps[key]
	return !ok || ep.state == Closed
}

// State returns the endpoint's breaker state (Closed for unknown keys).
func (t *Tracker) State(key string) State {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ep, ok := t.eps[key]; ok {
		return ep.state
	}
	return Closed
}

// Generation returns a counter that bumps on every breaker transition.
// Callers cache it next to a binding and re-run selection only when it
// moves — one atomic load on the hot path.
func (t *Tracker) Generation() uint64 { return t.gen.Load() }

// ReportSuccess records a successful exchange: the failure streak resets
// and an Open/HalfOpen breaker re-closes (live proof beats any probe).
func (t *Tracker) ReportSuccess(key string) {
	t.mu.Lock()
	ep := t.get(key)
	ep.fails = 0
	t.transition(key, ep, Closed)
	t.mu.Unlock()
}

// ReportFailure records a failed exchange; FailureThreshold consecutive
// failures trip the breaker Open.
func (t *Tracker) ReportFailure(key string) {
	t.mu.Lock()
	ep := t.get(key)
	ep.fails++
	if ep.fails >= t.opts.FailureThreshold {
		t.transition(key, ep, Open)
	}
	t.mu.Unlock()
}

// Trip forces the breaker Open immediately (e.g. on a connection reset,
// where waiting for a second failure would only lose another request).
func (t *Tracker) Trip(key string) {
	t.mu.Lock()
	ep := t.get(key)
	ep.fails = t.opts.FailureThreshold
	t.transition(key, ep, Open)
	t.mu.Unlock()
}

// SetProbe registers the endpoint's out-of-band probe and starts the
// background prober (once per tracker). While the breaker is Open the
// prober calls the probe every ProbeInterval; success re-closes the
// breaker and bumps Generation so cached bindings re-promote.
func (t *Tracker) SetProbe(key string, p Probe) {
	t.mu.Lock()
	t.get(key).probe = p
	t.mu.Unlock()
	if t.closed.Load() {
		return
	}
	t.startProber.Do(func() {
		t.wg.Add(1)
		go t.probeLoop()
	})
}

func (t *Tracker) probeLoop() {
	defer t.wg.Done()
	for {
		select {
		case <-t.stop:
			return
		case <-clock.After(t.opts.Clock, t.opts.ProbeInterval):
			t.ProbeNow()
		}
	}
}

// ProbeNow runs one probe pass synchronously: every Open endpoint with a
// registered probe is tested (HalfOpen while the probe is in flight) and
// re-closed on success. Exported so deterministic tests can drive
// probing without waiting on the background prober.
func (t *Tracker) ProbeNow() {
	type job struct {
		key   string
		probe Probe
	}
	t.mu.Lock()
	t.lastProbe = t.opts.Clock.Now()
	var jobs []job
	for key, ep := range t.eps {
		if ep.state == Open && ep.probe != nil {
			t.transition(key, ep, HalfOpen)
			jobs = append(jobs, job{key, ep.probe})
		}
	}
	t.mu.Unlock()
	for _, j := range jobs {
		err := t.runProbe(j.probe)
		t.mu.Lock()
		ep := t.get(j.key)
		if ep.state == HalfOpen {
			if err == nil {
				ep.fails = 0
				t.transition(j.key, ep, Closed)
			} else {
				t.transition(j.key, ep, Open)
			}
		}
		t.mu.Unlock()
	}
}

// runProbe invokes one probe with the configured timeout. On timeout the
// probe goroutine is left to finish on its own (its result is ignored);
// the endpoint counts as still failing.
func (t *Tracker) runProbe(p Probe) error {
	done := make(chan error, 1)
	go func() { done <- p() }()
	// The timeout runs on the injected clock, so tests drive a hung
	// probe to its deadline by advancing a fake clock instead of
	// sleeping on the wall clock.
	select {
	case err := <-done:
		return err
	case <-clock.After(t.opts.Clock, t.opts.ProbeTimeout):
		return errs.Newf(errs.Expired, "health: probe timed out after %v", t.opts.ProbeTimeout)
	}
}

// Snapshot exports every endpoint's breaker state, sorted by key — the
// public face of the tracker for the introspection plane's /statusz and
// for operational tooling. NextProbe estimates the prober's next pass
// (last pass + ProbeInterval on the injected clock) for endpoints that
// are out of rotation and have a probe registered; before the first
// pass it is one interval from now.
func (t *Tracker) Snapshot() []EndpointStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	next := t.lastProbe
	if next.IsZero() {
		next = t.opts.Clock.Now()
	}
	next = next.Add(t.opts.ProbeInterval)
	out := make([]EndpointStatus, 0, len(t.eps))
	for key, ep := range t.eps {
		st := EndpointStatus{
			Key:                 key,
			State:               ep.state.String(),
			ConsecutiveFailures: ep.fails,
			LastTransition:      ep.changed,
		}
		if ep.state != Closed && ep.probe != nil {
			st.NextProbe = next
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Close stops the background prober and waits for it to exit.
func (t *Tracker) Close() {
	if t.closed.CompareAndSwap(false, true) {
		close(t.stop)
	}
	t.wg.Wait()
}
