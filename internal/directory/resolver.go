package directory

import (
	"container/list"
	"sync"

	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/registry"
	"openhpcxx/internal/stats"
	"openhpcxx/internal/xdr"
)

// DefaultCacheSize bounds the resolve cache when options do not.
const DefaultCacheSize = 1024

// ResolverOptions tunes a Resolver. The zero value means a
// DefaultCacheSize cache with watch-invalidation on.
type ResolverOptions struct {
	// CacheSize bounds the resolve cache (entries). 0 means
	// DefaultCacheSize; negative disables caching — and with it the
	// watch streams, since there is nothing to invalidate. The
	// uncached rows of Figure D1 run this way.
	CacheSize int
}

// Resolver is the client side of the directory plane: names resolve
// through a bounded LRU cache kept coherent by tombstone events the
// shards push to the resolver's sink servant; misses go to the owning
// shard's merged read reference, failing over down its replica protocol
// table like any other invocation.
type Resolver struct {
	ctx  *core.Context
	ring *Ring
	// readGPs[s] targets shard s through the merged replica table.
	readGPs []*core.GlobalPtr
	// replicaGPs[s][r] targets exactly replica r — watch subscriptions
	// go to every replica so tombstones survive a primary crash
	// (duplicates are idempotent).
	replicaGPs [][]*core.GlobalPtr

	sink     *core.Servant
	sinkBlob []byte // encoded sink reference, sent with watch calls

	mu      sync.Mutex
	cache   *lruCache
	watched []bool // per shard: subscription established
	closed  bool

	hits   *stats.Counter // dir.cache.hits
	misses *stats.Counter // dir.cache.misses
	invals *stats.Counter // dir.cache.invalidations
}

// NewResolver joins a client context to the plane described by bs. The
// context must have at least one transport binding — the shards push
// events back to a sink servant exported on it.
func NewResolver(ctx *core.Context, bs *Bootstrap, opts ResolverOptions) (*Resolver, error) {
	merged, replicas, err := bs.shardRefs()
	if err != nil {
		return nil, err
	}
	size := opts.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	r := &Resolver{
		ctx:     ctx,
		ring:    bs.Ring(),
		watched: make([]bool, len(merged)),
		hits:    ctx.Runtime().Metrics().Counter("dir.cache.hits"),
		misses:  ctx.Runtime().Metrics().Counter("dir.cache.misses"),
		invals:  ctx.Runtime().Metrics().Counter("dir.cache.invalidations"),
	}
	if size > 0 {
		r.cache = newLRUCache(size)
		entries := ctx.Entries()
		if len(entries) == 0 {
			return nil, errs.Newf(errs.Config, "directory: context %s has no bindings for the event sink", ctx.Name())
		}
		sink, err := ctx.Export(SinkIface, r, map[string]core.Method{
			EventMethod: core.Handler(r.handleEvent),
		})
		if err != nil {
			return nil, err
		}
		r.sink = sink
		r.sinkBlob, err = core.EncodeRef(ctx.NewRef(sink, entries...))
		if err != nil {
			return nil, err
		}
	}
	for s := range merged {
		r.readGPs = append(r.readGPs, ctx.NewGlobalPtr(merged[s]))
		var gps []*core.GlobalPtr
		for _, rr := range replicas[s] {
			gps = append(gps, ctx.NewGlobalPtr(rr))
		}
		r.replicaGPs = append(r.replicaGPs, gps)
	}
	return r, nil
}

// Ring returns the resolver's partitioner.
func (r *Resolver) Ring() *Ring { return r.ring }

// handleEvent is the sink servant's one-way handler: a tombstone (or a
// bind superseding what we cached) invalidates the name.
func (r *Resolver) handleEvent(m *eventMsg) (*core.Empty, error) {
	r.invalidate(m.Name)
	return &core.Empty{}, nil
}

// invalidate drops a cached name, counting only actual evictions.
func (r *Resolver) invalidate(name string) {
	r.mu.Lock()
	removed := r.cache != nil && r.cache.remove(name)
	r.mu.Unlock()
	if removed {
		r.invals.Inc()
	}
}

// Resolve maps a name to its object reference: from the cache when
// possible, else from the owning shard (subscribing to its watch stream
// first, so no invalidation can slip between the lookup and the
// subscription). The caller owns the returned clone.
func (r *Resolver) Resolve(name string) (*core.ObjectRef, error) {
	span := r.ctx.Runtime().Tracer().StartRoot(obs.KindClient, "dir.resolve")
	if span != nil {
		span.SetRPC(name, "resolve")
	}
	ref, cached, err := r.resolve(name, true)
	if span != nil {
		if cached {
			span.SetCause("cache-hit")
		}
		span.SetErr(err)
		span.End()
	}
	return ref, err
}

// Refresh resolves a name authoritatively, bypassing (and repairing)
// the cache — the GP FaultNoObject hook lands here.
func (r *Resolver) Refresh(name string) (*core.ObjectRef, error) {
	span := r.ctx.Runtime().Tracer().StartRoot(obs.KindClient, "dir.resolve")
	if span != nil {
		span.SetRPC(name, "refresh")
	}
	ref, _, err := r.resolve(name, false)
	if span != nil {
		span.SetErr(err)
		span.End()
	}
	return ref, err
}

func (r *Resolver) resolve(name string, useCache bool) (*core.ObjectRef, bool, error) {
	shard := r.ring.Shard(name)
	if shard >= len(r.readGPs) {
		return nil, false, errs.Newf(errs.BadRequest, "directory: shard %d out of range", shard)
	}
	if useCache {
		r.mu.Lock()
		var hit *core.ObjectRef
		if r.cache != nil {
			hit = r.cache.get(name)
		}
		r.mu.Unlock()
		if hit != nil {
			r.hits.Inc()
			return hit.Clone(), true, nil
		}
		r.misses.Inc()
	}
	if err := r.ensureWatch(shard); err != nil {
		return nil, false, err
	}
	reply, err := core.Call[*core.StringValue, registry.RefReply](r.readGPs[shard], "lookup", &core.StringValue{V: name})
	if err != nil {
		return nil, false, err
	}
	ref, err := core.DecodeRef(reply.Ref)
	if err != nil {
		return nil, false, err
	}
	r.mu.Lock()
	if r.cache != nil {
		r.cache.put(name, ref.Clone())
	}
	r.mu.Unlock()
	return ref, false, nil
}

// ensureWatch subscribes the sink to every replica of a shard, once.
// One reachable replica is enough to proceed (events from the others
// arrive when they come back; lease expiry covers the gap).
func (r *Resolver) ensureWatch(shard int) error {
	r.mu.Lock()
	need := r.cache != nil && !r.watched[shard]
	r.mu.Unlock()
	if !need {
		return nil
	}
	span := r.ctx.Runtime().Tracer().StartRoot(obs.KindClient, "dir.watch")
	if span != nil {
		span.SetRPC(string(ShardObjectID(shard)), "watch")
	}
	var ok int
	var lastErr error
	for _, gp := range r.replicaGPs[shard] {
		if _, err := core.Call[*watchArgs, core.Empty](gp, "watch", &watchArgs{Sink: r.sinkBlob}); err != nil {
			lastErr = err
		} else {
			ok++
		}
	}
	if span != nil {
		if ok == 0 {
			span.SetErr(lastErr)
		}
		span.End()
	}
	if ok == 0 {
		return errs.Wrapf(errs.Unavailable, lastErr, "directory: watch shard %d", shard)
	}
	r.mu.Lock()
	r.watched[shard] = true
	r.mu.Unlock()
	return nil
}

// GP resolves a name and wraps it in a global pointer whose refresh
// hook re-resolves through this resolver: if the target vanishes (stale
// cache, migration the tombstone missed), the GP chases the directory
// instead of failing — the resolver hook on GP binding.
func (r *Resolver) GP(name string) (*core.GlobalPtr, error) {
	ref, err := r.Resolve(name)
	if err != nil {
		return nil, err
	}
	gp := r.ctx.NewGlobalPtr(ref)
	gp.SetRefresh(func() (*core.ObjectRef, error) { return r.Refresh(name) })
	return gp, nil
}

// CacheLen reports current cache residency.
func (r *Resolver) CacheLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cache == nil {
		return 0
	}
	return r.cache.len()
}

// Close unsubscribes the sink (best-effort), releases the GPs, and
// unexports the sink servant.
func (r *Resolver) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	watched := append([]bool(nil), r.watched...)
	r.mu.Unlock()
	for s, w := range watched {
		if !w {
			continue
		}
		for _, gp := range r.replicaGPs[s] {
			// The shard drops unreachable watchers on its own; this just
			// speeds the common path.
			_, _ = core.Call[*watchArgs, core.Empty](gp, "unwatch", &watchArgs{Sink: r.sinkBlob})
		}
	}
	for _, gp := range r.readGPs {
		gp.Release()
	}
	for _, gps := range r.replicaGPs {
		for _, gp := range gps {
			gp.Release()
		}
	}
	if r.sink != nil {
		r.ctx.Unexport(r.sink.ID(), nil)
	}
	return nil
}

// lruCache is a plain bounded LRU over decoded references. The caller
// holds the resolver lock.
type lruCache struct {
	cap   int
	order *list.List // front = most recent
	items map[string]*list.Element
}

type lruEntry struct {
	name string
	ref  *core.ObjectRef
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

func (c *lruCache) len() int { return len(c.items) }

func (c *lruCache) get(name string) *core.ObjectRef {
	el, ok := c.items[name]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).ref
}

func (c *lruCache) put(name string, ref *core.ObjectRef) {
	if el, ok := c.items[name]; ok {
		el.Value.(*lruEntry).ref = ref
		c.order.MoveToFront(el)
		return
	}
	c.items[name] = c.order.PushFront(&lruEntry{name: name, ref: ref})
	if len(c.items) > c.cap {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.items, oldest.Value.(*lruEntry).name)
		}
	}
}

func (c *lruCache) remove(name string) bool {
	el, ok := c.items[name]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.items, name)
	return true
}

// Ensure xdr is linked for the eventMsg handler's generic instantiation.
var _ xdr.Unmarshaler = (*eventMsg)(nil)
