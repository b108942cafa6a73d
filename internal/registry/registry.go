// Package registry provides the Open HPC++ name service: a server object
// that maps names to serialized object references. Processes exchange
// ORs — and therefore capabilities, which ride inside OR protocol
// tables — through the registry, and migration keeps registry bindings
// current.
//
// The registry is itself an ordinary ORB servant, so it is reachable
// through any protocol the hosting context binds, and a registry
// reference can be bootstrapped from a bare address with RefAt.
package registry

import (
	"bytes"
	"sort"
	"strings"
	"sync"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// Iface is the registry's interface name.
const Iface = "openhpcxx.Registry"

// WellKnownObject is the object id every registry servant exports under,
// so clients can address a registry knowing only the hosting context's
// address.
const WellKnownObject core.ObjectID = "registry/_registry"

// EventKind classifies one name-table mutation for observers.
type EventKind uint8

// Event kinds. A bind that merely refreshes an existing binding's lease
// without changing its reference fires nothing — heartbeats are not
// churn.
const (
	// EventBind is a new or changed binding (the ref differs).
	EventBind EventKind = iota
	// EventUnbind is an explicit removal.
	EventUnbind
	// EventExpire is a lease lapsing (lazy lookup eviction or the
	// background sweeper).
	EventExpire
)

func (k EventKind) String() string {
	switch k {
	case EventBind:
		return "bind"
	case EventUnbind:
		return "unbind"
	case EventExpire:
		return "expire"
	}
	return "unknown"
}

// Event is one observable name-table mutation: the directory plane's
// watch streams are fed from these.
type Event struct {
	Kind EventKind
	Name string
	// Ref is the encoded ObjectRef now bound (EventBind only).
	Ref []byte
}

// Service is the name server state. Bindings may carry a lease: an
// expired binding behaves as absent and is pruned — lazily on touch,
// and in the background by the clock-driven sweeper (StartSweeper) — so
// crashed services disappear from the namespace once they stop
// renewing, useful in the paper's dynamic deployments where objects
// migrate and hosts come and go.
type Service struct {
	clk     clock.Clock
	mu      sync.RWMutex
	entries map[string]binding
	leased  int // bindings with a non-zero lease
	notify  func(Event)

	sweepOnce sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
	closed    bool
}

// binding is one name-table row.
type binding struct {
	ref     []byte // encoded ObjectRef
	expires int64  // unix nanos; 0 = no lease
}

// NewService returns an empty name table on the system clock.
func NewService() *Service { return NewServiceWithClock(clock.Real{}) }

// NewServiceWithClock returns an empty name table on the given clock.
func NewServiceWithClock(c clock.Clock) *Service {
	return &Service{clk: c, entries: make(map[string]binding), stop: make(chan struct{})}
}

// SetNotify installs the mutation observer. It is invoked after the
// mutation, outside the service lock, from whichever goroutine mutated
// the table (including the sweeper) — observers must be concurrency-safe
// and must not block (the directory shard hands events to a buffered
// fanout channel). Pass nil to remove.
func (s *Service) SetNotify(fn func(Event)) {
	s.mu.Lock()
	s.notify = fn
	s.mu.Unlock()
}

// emit fires the observer for each event, outside the lock.
func (s *Service) emit(evs []Event) {
	if len(evs) == 0 {
		return
	}
	s.mu.RLock()
	fn := s.notify
	s.mu.RUnlock()
	if fn == nil {
		return
	}
	for _, ev := range evs {
		fn(ev)
	}
}

// expired reports whether b's lease has lapsed.
func (s *Service) expired(b binding) bool {
	return b.expires != 0 && s.clk.Now().UnixNano() > b.expires
}

// dropLocked removes name (caller holds s.mu and has checked presence).
func (s *Service) dropLocked(name string, b binding) {
	delete(s.entries, name)
	if b.expires != 0 {
		s.leased--
	}
}

// Prune removes every expired binding, fires an EventExpire per removal,
// and reports how many went. Only leased bindings can expire, so a
// table with none (the bulk-preloaded case — possibly millions of
// permanent entries) is skipped without the full scan.
func (s *Service) Prune() int {
	s.mu.RLock()
	idle := s.leased == 0
	s.mu.RUnlock()
	if idle {
		return 0
	}
	s.mu.Lock()
	var evs []Event
	for name, b := range s.entries {
		if s.expired(b) {
			s.dropLocked(name, b)
			evs = append(evs, Event{Kind: EventExpire, Name: name})
		}
	}
	s.mu.Unlock()
	s.emit(evs)
	return len(evs)
}

// DefaultSweepInterval paces the background sweeper when StartSweeper is
// given no interval.
const DefaultSweepInterval = 250 * time.Millisecond

// StartSweeper begins background lease pruning on the service's clock:
// every interval the sweeper prunes expired bindings, so a crashed
// publisher's names vanish (and expiry tombstones reach watchers) even
// when nobody touches them. Idempotent — only the first call starts the
// loop; Close stops it. interval <= 0 uses DefaultSweepInterval.
func (s *Service) StartSweeper(interval time.Duration) {
	if interval <= 0 {
		interval = DefaultSweepInterval
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return
	}
	s.sweepOnce.Do(func() {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case <-s.stop:
					return
				case <-clock.After(s.clk, interval):
					s.Prune()
				}
			}
		}()
	})
}

// Close stops the background sweeper (if running) and waits for it to
// exit. The table remains readable; Close is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.stop)
	}
	s.wg.Wait()
	return nil
}

// Counts reports the table size and how many bindings carry a lease —
// the directory plane's dir.leases.active gauge reads the latter.
func (s *Service) Counts() (total, leased int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries), s.leased
}

// BindDirect installs a binding in-process, without wire marshaling,
// validation, or a notify event — the bulk-preload path experiments use
// to seed million-entry tables server-side. ttl <= 0 means no lease.
func (s *Service) BindDirect(name string, ref []byte, ttl time.Duration) {
	var expires int64
	if ttl > 0 {
		expires = s.clk.Now().UnixNano() + int64(ttl)
	}
	s.mu.Lock()
	if prev, ok := s.entries[name]; ok && prev.expires != 0 {
		s.leased--
	}
	s.entries[name] = binding{ref: ref, expires: expires}
	if expires != 0 {
		s.leased++
	}
	s.mu.Unlock()
}

// Snapshot implements core.Migratable so even the registry can move.
func (s *Service) Snapshot() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.entries))
	for n := range s.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	e := xdr.NewEncoder(256)
	e.PutUint32(uint32(len(names)))
	for _, n := range names {
		e.PutString(n)
		e.PutOpaque(s.entries[n].ref)
		e.PutInt64(s.entries[n].expires)
	}
	return e.Bytes(), nil
}

// Restore implements core.Migratable.
func (s *Service) Restore(state []byte) error {
	d := xdr.NewDecoder(state)
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	entries := make(map[string]binding, n)
	for i := uint32(0); i < n; i++ {
		name, err := d.String()
		if err != nil {
			return err
		}
		blob, err := d.Opaque()
		if err != nil {
			return err
		}
		expires, err := d.Int64()
		if err != nil {
			return err
		}
		entries[name] = binding{ref: blob, expires: expires}
	}
	leased := 0
	for _, b := range entries {
		if b.expires != 0 {
			leased++
		}
	}
	s.mu.Lock()
	s.entries = entries
	s.leased = leased
	s.mu.Unlock()
	return nil
}

// BindArgs is the wire form of the "bind" method behind Bind and Rebind
// (the directory's shard servants speak it too). TTLNanos of zero means
// the binding never expires.
type BindArgs struct {
	Name      string
	Ref       []byte
	Overwrite bool
	TTLNanos  int64
}

func (a *BindArgs) MarshalXDR(e *xdr.Encoder) error {
	e.PutString(a.Name)
	e.PutOpaque(a.Ref)
	e.PutBool(a.Overwrite)
	e.PutInt64(a.TTLNanos)
	return nil
}

func (a *BindArgs) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if a.Name, err = d.String(); err != nil {
		return err
	}
	if a.Ref, err = d.Opaque(); err != nil {
		return err
	}
	if a.Overwrite, err = d.Bool(); err != nil {
		return err
	}
	a.TTLNanos, err = d.Int64()
	return err
}

// renewArgs is the wire form of Renew.
type renewArgs struct {
	Name     string
	TTLNanos int64
}

func (a *renewArgs) MarshalXDR(e *xdr.Encoder) error {
	e.PutString(a.Name)
	e.PutInt64(a.TTLNanos)
	return nil
}

func (a *renewArgs) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if a.Name, err = d.String(); err != nil {
		return err
	}
	a.TTLNanos, err = d.Int64()
	return err
}

// RefReply is the wire form of a "lookup" reply: the encoded reference.
type RefReply struct{ Ref []byte }

func (r *RefReply) MarshalXDR(e *xdr.Encoder) error {
	e.PutOpaque(r.Ref)
	return nil
}

func (r *RefReply) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	r.Ref, err = d.Opaque()
	return err
}

type listReply struct{ Names []string }

func (r *listReply) MarshalXDR(e *xdr.Encoder) error {
	e.PutStrings(r.Names)
	return nil
}

func (r *listReply) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	r.Names, err = d.Strings()
	return err
}

// Methods returns the servant method table for a Service.
func Methods(s *Service) map[string]core.Method {
	return map[string]core.Method{
		"bind": core.Handler(func(a *BindArgs) (*core.Empty, error) {
			if a.Name == "" {
				return nil, wire.Faultf(wire.FaultBadRequest, "registry: empty name")
			}
			if _, err := core.DecodeRef(a.Ref); err != nil {
				return nil, wire.Faultf(wire.FaultBadRequest, "registry: bad reference for %q: %v", a.Name, err)
			}
			if a.TTLNanos < 0 {
				return nil, wire.Faultf(wire.FaultBadRequest, "registry: negative TTL")
			}
			var expires int64
			if a.TTLNanos > 0 {
				expires = s.clk.Now().UnixNano() + a.TTLNanos
			}
			var evs []Event
			s.mu.Lock()
			prev, exists := s.entries[a.Name]
			live := exists && !s.expired(prev)
			if live && !a.Overwrite {
				s.mu.Unlock()
				return nil, wire.Faultf(wire.FaultBadRequest, "registry: %q already bound", a.Name)
			}
			if exists && prev.expires != 0 {
				s.leased--
			}
			s.entries[a.Name] = binding{ref: a.Ref, expires: expires}
			if expires != 0 {
				s.leased++
			}
			// Heartbeat rebinds (same ref, still live) refresh the lease
			// silently; anything that changes what the name resolves to is
			// churn watchers must see.
			if !live || !bytes.Equal(prev.ref, a.Ref) {
				evs = append(evs, Event{Kind: EventBind, Name: a.Name, Ref: a.Ref})
			}
			s.mu.Unlock()
			s.emit(evs)
			return &core.Empty{}, nil
		}),
		"lookup": core.Handler(func(a *core.StringValue) (*RefReply, error) {
			var evs []Event
			s.mu.Lock()
			b, ok := s.entries[a.V]
			if ok && s.expired(b) {
				s.dropLocked(a.V, b)
				evs = append(evs, Event{Kind: EventExpire, Name: a.V})
				ok = false
			}
			s.mu.Unlock()
			s.emit(evs)
			if !ok {
				return nil, wire.Faultf(wire.FaultNoObject, "registry: no binding %q", a.V)
			}
			return &RefReply{Ref: b.ref}, nil
		}),
		"renew": core.Handler(func(a *renewArgs) (*core.Empty, error) {
			if a.TTLNanos <= 0 {
				return nil, wire.Faultf(wire.FaultBadRequest, "registry: renew needs a positive TTL")
			}
			var evs []Event
			s.mu.Lock()
			b, ok := s.entries[a.Name]
			if ok && s.expired(b) {
				s.dropLocked(a.Name, b)
				evs = append(evs, Event{Kind: EventExpire, Name: a.Name})
				ok = false
			}
			if ok {
				if b.expires == 0 {
					s.leased++
				}
				b.expires = s.clk.Now().UnixNano() + a.TTLNanos
				s.entries[a.Name] = b
			}
			s.mu.Unlock()
			s.emit(evs)
			if !ok {
				return nil, wire.Faultf(wire.FaultNoObject, "registry: no binding %q", a.Name)
			}
			return &core.Empty{}, nil
		}),
		"unbind": core.Handler(func(a *core.StringValue) (*core.Empty, error) {
			var evs []Event
			s.mu.Lock()
			b, ok := s.entries[a.V]
			if ok {
				wasLive := !s.expired(b)
				s.dropLocked(a.V, b)
				if wasLive {
					evs = append(evs, Event{Kind: EventUnbind, Name: a.V})
				} else {
					evs = append(evs, Event{Kind: EventExpire, Name: a.V})
					ok = false
				}
			}
			s.mu.Unlock()
			s.emit(evs)
			if !ok {
				return nil, wire.Faultf(wire.FaultNoObject, "registry: no binding %q", a.V)
			}
			return &core.Empty{}, nil
		}),
		"list": core.Handler(func(a *core.StringValue) (*listReply, error) {
			// Snapshot under the read lock, filter outside it: a List over
			// a large table must not stall binds for the whole scan.
			type row struct {
				name    string
				expires int64
			}
			s.mu.RLock()
			rows := make([]row, 0, len(s.entries))
			for n, b := range s.entries {
				if strings.HasPrefix(n, a.V) {
					rows = append(rows, row{name: n, expires: b.expires})
				}
			}
			s.mu.RUnlock()
			now := s.clk.Now().UnixNano()
			names := make([]string, 0, len(rows))
			for _, r := range rows {
				if r.expires != 0 && now > r.expires {
					continue
				}
				names = append(names, r.name)
			}
			sort.Strings(names)
			return &listReply{Names: names}, nil
		}),
	}
}

// Serve exports a registry servant on ctx under the well-known id and
// returns the servant plus a reference assembled from every binding the
// context currently has. Leases use the runtime's clock and are pruned
// by a background sweeper that stops when the context closes.
func Serve(ctx *core.Context) (*core.Servant, *core.ObjectRef, error) {
	return ServeService(ctx, NewServiceWithClock(ctx.Runtime().Clock()))
}

// ServeService exports a caller-built Service (the directory plane uses
// this to wire a notify hook before the servant goes live) under the
// well-known id, starting its lease sweeper.
func ServeService(ctx *core.Context, svc *Service) (*core.Servant, *core.ObjectRef, error) {
	s, err := ctx.ExportAs(WellKnownObject, Iface, svc, Methods(svc), 0)
	if err != nil {
		return nil, nil, err
	}
	svc.StartSweeper(0)
	ctx.OnClose(svc)
	entries := ctx.Entries()
	if len(entries) == 0 {
		return nil, nil, errs.Newf(errs.Config, "registry: context %s has no bindings", ctx.Name())
	}
	return s, ctx.NewRef(s, entries...), nil
}

// RefAt bootstraps a registry reference from a bare stream address
// ("sim://machine:port" or "tcp://host:port") without any prior
// exchange.
func RefAt(addr string) *core.ObjectRef {
	return &core.ObjectRef{
		Object:    WellKnownObject,
		Iface:     Iface,
		Protocols: []core.ProtoEntry{core.StreamEntryAt(addr)},
	}
}

// Client is a typed handle on a registry.
type Client struct {
	gp *core.GlobalPtr
}

// NewClient binds a registry reference to a client context.
func NewClient(ctx *core.Context, ref *core.ObjectRef) *Client {
	return &Client{gp: ctx.NewGlobalPtr(ref)}
}

// Bind publishes ref under name; it fails if the name is taken.
func (c *Client) Bind(name string, ref *core.ObjectRef) error {
	return c.bind(name, ref, false, 0)
}

// BindWithTTL publishes ref under name with a lease: unless renewed, the
// binding vanishes after ttl.
func (c *Client) BindWithTTL(name string, ref *core.ObjectRef, ttl time.Duration) error {
	return c.bind(name, ref, false, ttl)
}

// Rebind publishes ref under name, replacing any existing binding
// (migration uses this to keep names current).
func (c *Client) Rebind(name string, ref *core.ObjectRef) error {
	return c.bind(name, ref, true, 0)
}

// GP exposes the underlying global pointer so callers can tune policy
// (deadlines, failover tables) on the registry channel itself.
func (c *Client) GP() *core.GlobalPtr { return c.gp }

// Renew extends a leased binding by ttl from now.
func (c *Client) Renew(name string, ttl time.Duration) error {
	_, err := core.Call[*renewArgs, core.Empty](c.gp, "renew", &renewArgs{Name: name, TTLNanos: int64(ttl)})
	return err
}

func (c *Client) bind(name string, ref *core.ObjectRef, overwrite bool, ttl time.Duration) error {
	blob, err := core.EncodeRef(ref)
	if err != nil {
		return err
	}
	_, err = core.Call[*BindArgs, core.Empty](c.gp, "bind", &BindArgs{Name: name, Ref: blob, Overwrite: overwrite, TTLNanos: int64(ttl)})
	return err
}

// Lookup resolves a name to an object reference.
func (c *Client) Lookup(name string) (*core.ObjectRef, error) {
	r, err := core.Call[*core.StringValue, RefReply](c.gp, "lookup", &core.StringValue{V: name})
	if err != nil {
		return nil, err
	}
	return core.DecodeRef(r.Ref)
}

// Unbind removes a binding.
func (c *Client) Unbind(name string) error {
	_, err := core.Call[*core.StringValue, core.Empty](c.gp, "unbind", &core.StringValue{V: name})
	return err
}

// List returns the bound names with the given prefix, sorted.
func (c *Client) List(prefix string) ([]string, error) {
	r, err := core.Call[*core.StringValue, listReply](c.gp, "list", &core.StringValue{V: prefix})
	if err != nil {
		return nil, err
	}
	return r.Names, nil
}
