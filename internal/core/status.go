// Runtime.Status: the one-call structured snapshot of the ORB's live
// state, serialized by the introspection plane as /statusz. It is the
// operational face of the paper's Open Implementation principle — the
// ORB's "critical internal decisions" (which protocol-table entry each
// GP is bound to, which endpoints the breakers have demoted, what is
// draining) exposed as data rather than buried in logs.
//
// Everything here is a point-in-time copy assembled under short
// per-structure locks; nothing retains references into live state, so
// a scrape never blocks traffic for longer than one map copy.
package core

import (
	"time"

	"openhpcxx/internal/future"
	"openhpcxx/internal/health"
)

// GPEntryStatus is one row of a GP's ordered protocol table as /statusz
// renders it: the entry, its endpoint's breaker state, and whether it
// is the currently bound choice.
type GPEntryStatus struct {
	Index    int    `json:"index"`
	Proto    string `json:"proto"`
	Endpoint string `json:"endpoint"` // health-tracker key: "proto|addr"
	Health   string `json:"health"`   // breaker state: closed/open/half-open
	Selected bool   `json:"selected"`
}

// GPBatchStatus reports a GP's adaptive micro-batching state: the
// policy watermarks and the coalescer's current residency.
type GPBatchStatus struct {
	MaxMessages int   `json:"max_messages"`
	MaxBytes    int   `json:"max_bytes"`
	MaxDelayUS  int64 `json:"max_delay_us"`
	Queued      int   `json:"queued"`
	QueuedBytes int   `json:"queued_bytes"`
}

// GPRetryStatus reports a GP's retry-budget state: the live token
// count against its configuration, and how many retries a dry bucket
// has denied (each denial surfaced to the caller as a typed
// errs.BudgetExhausted).
type GPRetryStatus struct {
	Enabled   bool    `json:"enabled"`
	Tokens    float64 `json:"tokens"`
	MaxTokens float64 `json:"max_tokens"`
	Ratio     float64 `json:"ratio"`
	Exhausted uint64  `json:"exhausted"`
}

// GPStatus is the public view of one live GlobalPtr: its target, its
// protocol table annotated with health, and its current binding.
type GPStatus struct {
	Object string `json:"object"`
	Iface  string `json:"iface,omitempty"`
	Epoch  uint64 `json:"epoch"`
	Server string `json:"server"`
	// Bound reports whether a protocol is currently selected;
	// SelectedEntry is the table index (-1 while unbound) and
	// SelectedProto its protocol id. Status never forces a selection —
	// an idle GP shows unbound rather than having a scrape dial out.
	Bound         bool            `json:"bound"`
	SelectedEntry int             `json:"selected_entry"`
	SelectedProto string          `json:"selected_proto,omitempty"`
	Batching      *GPBatchStatus  `json:"batching,omitempty"`
	Retry         GPRetryStatus   `json:"retry"`
	Entries       []GPEntryStatus `json:"entries"`
}

// ContextStatus is the public view of one context: bindings, exported
// objects, connection-pool occupancy, drain state, and live GPs.
type ContextStatus struct {
	Name     string            `json:"name"`
	Machine  string            `json:"machine"`
	Draining bool              `json:"draining"`
	Bindings map[string]string `json:"bindings"`
	Objects  []string          `json:"objects"`
	Muxes    int               `json:"muxes"` // client connection pool occupancy
	GPs      []GPStatus        `json:"gps"`
}

// RuntimeStatus is the whole-runtime snapshot behind /statusz.
type RuntimeStatus struct {
	Process  string    `json:"process"`
	Time     time.Time `json:"time"`
	Failover bool      `json:"failover"`
	// OutstandingFutures counts process-wide unresolved futures (the
	// async invocation depth).
	OutstandingFutures int64                   `json:"outstanding_futures"`
	Contexts           []ContextStatus         `json:"contexts"`
	Endpoints          []health.EndpointStatus `json:"endpoints"`
	// RecentEvents is the tail of the adaptivity event log, newest last.
	RecentEvents []string `json:"recent_events"`
	// Sections carries subsystem-contributed status (RegisterStatusSection)
	// — e.g. the directory plane's shard/cache tables — keyed by section
	// name. Absent when no subsystem registered one.
	Sections map[string]any `json:"sections,omitempty"`
}

// statusRecentEvents bounds how much of the event log Status carries.
const statusRecentEvents = 32

// RegisterStatusSection lets a subsystem contribute a named section to
// Status()/statusz without core importing it (Open Implementation cuts
// both ways: planes plug their state into the scrape rather than core
// knowing every plane). fn runs on every Status call and must return
// JSON-serializable data; nil fn removes the section.
func (rt *Runtime) RegisterStatusSection(name string, fn func() any) {
	rt.mu.Lock()
	if rt.sections == nil {
		rt.sections = make(map[string]func() any)
	}
	if fn == nil {
		delete(rt.sections, name)
	} else {
		rt.sections[name] = fn
	}
	rt.mu.Unlock()
}

// Status assembles a point-in-time snapshot of the runtime: every
// context with its bindings, pools, and live GPs (protocol tables
// annotated with breaker state), the health tracker's endpoint view,
// the async depth, and the tail of the event log.
func (rt *Runtime) Status() RuntimeStatus {
	rt.mu.RLock()
	ctxs := make([]*Context, 0, len(rt.contexts))
	for _, c := range rt.contexts {
		ctxs = append(ctxs, c)
	}
	sections := make(map[string]func() any, len(rt.sections))
	for n, fn := range rt.sections {
		sections[n] = fn
	}
	rt.mu.RUnlock()
	failover, ht := rt.FailoverEnabled(), rt.Health()

	st := RuntimeStatus{
		Process:            rt.process,
		Time:               rt.clock.Now(),
		Failover:           failover,
		OutstandingFutures: future.Outstanding(),
	}
	if ht != nil {
		st.Endpoints = ht.Snapshot()
	}
	for _, c := range ctxs {
		st.Contexts = append(st.Contexts, c.status(ht))
	}
	// Contexts arrive in map order; sort for a stable rendering.
	sortContexts(st.Contexts)
	events := rt.Events()
	if len(events) > statusRecentEvents {
		events = events[len(events)-statusRecentEvents:]
	}
	for _, e := range events {
		st.RecentEvents = append(st.RecentEvents, e.String())
	}
	if len(sections) > 0 {
		st.Sections = make(map[string]any, len(sections))
		for n, fn := range sections {
			st.Sections[n] = fn()
		}
	}
	return st
}

func sortContexts(cs []ContextStatus) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Name < cs[j-1].Name; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// status snapshots one context. The GP set is copied under the context
// lock and each GP is then snapshotted under its own lock, so a slow GP
// (mid-bind) never blocks the context's request path.
func (c *Context) status(ht *health.Tracker) ContextStatus {
	c.mu.RLock()
	cs := ContextStatus{
		Name:     c.name,
		Machine:  string(c.loc.Machine),
		Draining: c.draining,
		Bindings: make(map[string]string, len(c.bindings)),
	}
	for id, addr := range c.bindings {
		cs.Bindings[string(id)] = addr
	}
	gps := make([]*GlobalPtr, 0, len(c.gps))
	for g := range c.gps {
		gps = append(gps, g)
	}
	c.mu.RUnlock()
	for _, id := range c.Objects() {
		cs.Objects = append(cs.Objects, string(id))
	}
	cs.Muxes = c.muxes.Size()
	for _, g := range gps {
		cs.GPs = append(cs.GPs, g.status(ht))
	}
	sortGPs(cs.GPs)
	return cs
}

func sortGPs(gs []GPStatus) {
	for i := 1; i < len(gs); i++ {
		for j := i; j > 0 && gs[j].Object < gs[j-1].Object; j-- {
			gs[j], gs[j-1] = gs[j-1], gs[j]
		}
	}
}

// status snapshots one GP without forcing a protocol selection.
func (g *GlobalPtr) status(ht *health.Tracker) GPStatus {
	g.mu.Lock()
	st := GPStatus{
		Object:        string(g.ref.Object),
		Iface:         g.ref.Iface,
		Epoch:         g.ref.Epoch,
		Server:        string(g.ref.Server.Machine),
		Bound:         g.b != nil,
		SelectedEntry: -1,
	}
	if tokens, cfg, exhausted := g.budget.snapshot(); !cfg.Disabled {
		st.Retry = GPRetryStatus{
			Enabled:   true,
			Tokens:    tokens,
			MaxTokens: cfg.MaxTokens,
			Ratio:     cfg.Ratio,
			Exhausted: exhausted,
		}
	}
	if g.b != nil {
		st.SelectedEntry = g.b.entry
		st.SelectedProto = string(g.b.proto.ID())
		if bp, ok := g.b.proto.(interface {
			BatchStats() (int, int, bool)
		}); ok && g.policy != nil {
			if q, b, on := bp.BatchStats(); on {
				st.Batching = &GPBatchStatus{
					MaxMessages: g.policy.MaxMessages,
					MaxBytes:    g.policy.MaxBytes,
					MaxDelayUS:  g.policy.MaxDelay.Microseconds(),
					Queued:      q,
					QueuedBytes: b,
				}
			}
		}
	}
	for i, e := range g.ref.Protocols {
		key := entryHealthKey(e)
		es := GPEntryStatus{
			Index:    i,
			Proto:    string(e.ID),
			Endpoint: key,
			Health:   health.Closed.String(),
			Selected: i == st.SelectedEntry,
		}
		if ht != nil {
			es.Health = ht.State(key).String()
		}
		st.Entries = append(st.Entries, es)
	}
	g.mu.Unlock()
	return st
}
