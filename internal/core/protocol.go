package core

import (
	"errors"
	"sync"

	"openhpcxx/internal/errs"
	"openhpcxx/internal/health"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/stats"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/wire"
)

// Protocol is the client side of a protocol object: it carries one
// framed request to the server object and returns the framed reply
// (possibly a TFault frame). Implementations encapsulate a specific
// communication mechanism — the paper's proto-object.
type Protocol interface {
	ID() ProtoID
	Call(m *wire.Message) (*wire.Message, error)
	Close() error
}

// Pending is one in-flight pipelined exchange — what a PipelinedProtocol's
// Begin returns — and all the engine does with one: Abandon resolves it
// with transport.ErrAbandoned (a late reply is dropped), and WhenDone
// runs fn once, where it resolves — on a mux read loop, say, so fn is
// short and never blocks. transport.PendingCall and transport.Cell are
// Pendings as they are. DESIGN.md §4.9.
type Pending interface {
	transport.Pending
	Abandon()
	WhenDone(fn func())
}

// PipelinedProtocol is the optional interface of protocol objects that
// can keep many requests in flight per connection: Begin sends the
// request and returns immediately with a completion handle. The
// transport.Mux always supported this (replies are matched by request
// id); Protocol.Call used to hide it. The built-in stream (TCP, sim,
// shm), nexus, and glue protocols all implement it; protocols that do
// not are still usable asynchronously — Begin (engine.go) runs their
// Call in a goroutine, losing pipelining but keeping the futures
// surface.
type PipelinedProtocol interface {
	Protocol
	Begin(m *wire.Message) (Pending, error)
}

// BatchingProtocol is the optional interface of protocol objects that
// can coalesce requests into wire.TBatch frames (adaptive
// micro-batching). SetBatching with an all-zero policy disables
// coalescing. The glue protocol forwards the knob to its base protocol,
// so batched calls still traverse the capability chain individually —
// every sub-request in a batch carries its own envelope chain.
type BatchingProtocol interface {
	SetBatching(p transport.BatchPolicy)
}

// ProtoFactory manufactures client protocol instances from protocol
// table entries — the paper's proto-class, as seen from the client. A
// factory also owns the protocol's applicability attribute.
type ProtoFactory interface {
	ID() ProtoID
	// Applicable reports whether this protocol can serve requests
	// between the two localities given the entry's proto-data. The
	// system consults it during run-time protocol selection.
	Applicable(entry ProtoEntry, client, server netsim.Locality) bool
	// New instantiates a protocol object for the entry on behalf of the
	// given client context.
	New(entry ProtoEntry, ref *ObjectRef, host *Context) (Protocol, error)
}

// SelectionOrder controls whose preference wins during protocol
// selection when both the OR table and the pool are ordered.
type SelectionOrder int

const (
	// RefOrder walks the object reference's protocol table in order and
	// picks the first entry with an applicable factory in the pool. This
	// is the paper's default: the server ranks the access paths it is
	// willing to support (Figure 4-B).
	RefOrder SelectionOrder = iota
	// PoolOrder walks the local pool in order and picks the first
	// factory with an applicable entry in the OR — a client-side
	// override, one of the "user control" knobs of §3.2.
	PoolOrder
)

// ProtoPool is a repository of protocol factories ordered by preference
// (the paper's proto-pool). An application component uses a pool to
// determine — and constrain — the protocols available to it. A pool
// also keeps one record per protocol-table entry it has selected over
// (each context clones its own pool), so a re-selection is a lookup.
type ProtoPool struct {
	mu        sync.RWMutex
	order     []ProtoID
	factories map[ProtoID]ProtoFactory
	selOrder  SelectionOrder
	gen       uint64 // bumped by every change: older applicability memos are stale

	rmu  sync.Mutex
	recs map[recordKey]*entryRecord
}

// NewProtoPool returns an empty pool using RefOrder selection.
func NewProtoPool() *ProtoPool {
	return &ProtoPool{factories: make(map[ProtoID]ProtoFactory), gen: 1, recs: make(map[recordKey]*entryRecord)}
}

// recordKey is a protocol-table entry's bytes.
type recordKey struct {
	id   ProtoID
	data string
}

// entryRecord is one protocol-table entry as its pool's context resolved
// it, built on first sight. Applicability is memoised for one (pool
// generation, client, server): it is a pure function of the two
// localities. The first bind fills the labelled handles, the first bind
// with failover on registers the entry's health probe.
type entryRecord struct {
	key string // health-tracker key: protocol id | address

	// Under the pool's rmu: the memo, and the tracker holding the probe.
	gen            uint64
	client, server netsim.Locality
	applicable     bool
	probed         *health.Tracker

	once                                                        sync.Once        // fills the handles
	calls, oneway, reqBytes, respBytes, transportErrors, faults *stats.Counter   // rpc.*{endpoint,proto}
	latency                                                     *stats.Histogram // rpc.latency_us{endpoint,proto}
}

// maxRecords bounds a pool's records: a peer can mint distinct references
// without end, so past the bound an arbitrary record makes room.
const maxRecords = 256

// record returns e's record, built on first sight. Caller holds rmu.
func (p *ProtoPool) record(e ProtoEntry) *entryRecord {
	if r, ok := p.recs[recordKey{e.ID, string(e.Data)}]; ok {
		return r
	}
	for k := range p.recs {
		if len(p.recs) < maxRecords {
			break
		}
		delete(p.recs, k)
	}
	r := &entryRecord{key: entryHealthKey(e)}
	p.recs[recordKey{e.ID, string(e.Data)}] = r
	return r
}

// Register appends a factory to the pool (lowest preference). Registering
// an already-present ID replaces the factory in place.
func (p *ProtoPool) Register(f ProtoFactory) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.factories[f.ID()]; !ok {
		p.order = append(p.order, f.ID())
	}
	p.factories[f.ID()] = f
	p.gen++
}

// Remove deletes a factory; a GP whose selected protocol is removed will
// re-select on its next invalidation.
func (p *ProtoPool) Remove(id ProtoID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.factories[id]; !ok {
		return
	}
	delete(p.factories, id)
	p.gen++
	for i, o := range p.order {
		if o == id {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
}

// Prefer moves the given ids (in the given order) to the front of the
// pool, leaving the rest in their relative order.
func (p *ProtoPool) Prefer(ids ...ProtoID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	head := make([]ProtoID, 0, len(p.order))
	seen := make(map[ProtoID]bool, len(ids))
	for _, id := range ids {
		if _, ok := p.factories[id]; ok && !seen[id] {
			head = append(head, id)
			seen[id] = true
		}
	}
	for _, id := range p.order {
		if !seen[id] {
			head = append(head, id)
		}
	}
	p.order, p.gen = head, p.gen+1
}

// SetSelectionOrder switches between RefOrder and PoolOrder.
func (p *ProtoPool) SetSelectionOrder(o SelectionOrder) {
	p.mu.Lock()
	p.selOrder, p.gen = o, p.gen+1
	p.mu.Unlock()
}

// Lookup finds a factory by id.
func (p *ProtoPool) Lookup(id ProtoID) (ProtoFactory, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	f, ok := p.factories[id]
	return f, ok
}

// IDs lists the pool's protocol kinds in preference order.
func (p *ProtoPool) IDs() []ProtoID {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]ProtoID(nil), p.order...)
}

// Clone returns an independent pool with the same factories, order, and
// selection mode. Contexts clone the runtime's default pool so local
// adjustments stay local.
func (p *ProtoPool) Clone() *ProtoPool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	c := NewProtoPool()
	c.order = append([]ProtoID(nil), p.order...)
	for id, f := range p.factories {
		c.factories[id] = f
	}
	c.selOrder = p.selOrder
	return c
}

// ErrNoProtocol is returned when no (entry, factory) pair is applicable
// for a client/server locality pair.
var ErrNoProtocol = errors.New("core: no applicable protocol")

// Select runs the paper's automatic protocol selection: compare the
// protocols in the reference's table with those in the pool and return
// the first applicable match. The returned index identifies the chosen
// table entry.
func (p *ProtoPool) Select(ref *ObjectRef, client netsim.Locality) (ProtoFactory, int, error) {
	f, i, _ := p.selectRecord(ref, client, nil)
	if f == nil {
		return nil, -1, selectionError(ref, p, client)
	}
	return f, i, nil
}

// selectRecord is the selection walk. Each entry's applicability comes
// off its record, asked of the factory only when the pool, the client or
// the server changed since. A non-nil allow vetoes applicable entries:
// the GP passes its endpoint-health filter, so failover falls through the
// ordered table to the first entry that is both applicable and not
// circuit-broken. A nil factory means nothing qualified.
func (p *ProtoPool) selectRecord(ref *ObjectRef, client netsim.Locality, allow func(*entryRecord) bool) (ProtoFactory, int, *entryRecord) {
	// The factories to walk, in walk order, are read under one lock, so
	// a concurrent Remove cannot hand the walk a nil factory. The walk
	// itself runs under the records' lock only: a glue factory's
	// Applicable reads the pool.
	var buf [8]ProtoFactory
	facs := buf[:0]
	p.mu.RLock()
	gen, poolOrder := p.gen, p.selOrder == PoolOrder
	if poolOrder {
		for _, id := range p.order {
			facs = append(facs, p.factories[id])
		}
	} else {
		for _, entry := range ref.Protocols {
			facs = append(facs, p.factories[entry.ID]) // nil when not in the pool
		}
	}
	p.mu.RUnlock()

	p.rmu.Lock()
	defer p.rmu.Unlock()
	for j, f := range facs {
		lo, hi := j, j+1 // RefOrder: entry j, with its own factory
		if poolOrder {
			lo, hi = 0, len(ref.Protocols)
		}
		for i := lo; i < hi; i++ {
			e := ref.Protocols[i]
			if f == nil || e.ID != f.ID() {
				continue
			}
			r := p.record(e)
			if r.gen != gen || r.client != client || r.server != ref.Server {
				r.gen, r.client, r.server, r.applicable = gen, client, ref.Server, f.Applicable(e, client, ref.Server)
			}
			if r.applicable && (allow == nil || allow(r)) {
				return f, i, r
			}
		}
	}
	return nil, -1, nil
}

func selectionError(ref *ObjectRef, p *ProtoPool, client netsim.Locality) error {
	return errs.Wrapf(errs.NotApplicable, ErrNoProtocol, "core: selecting for %s: table=%v pool=%v client=%s server=%s",
		ref.Object, ref.ProtoIDs(), p.IDs(), client, ref.Server)
}
