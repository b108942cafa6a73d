package directory

import (
	"sync"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/registry"
)

// DefaultLeaseTTL is the binding lease when PublisherOptions does not
// choose one.
const DefaultLeaseTTL = 3 * time.Second

// PublisherOptions tunes a Publisher.
type PublisherOptions struct {
	// TTL is the lease on every published binding (default
	// DefaultLeaseTTL).
	TTL time.Duration
	// HeartbeatInterval paces the re-binds keeping leases alive
	// (default TTL/3).
	HeartbeatInterval time.Duration
}

// Publisher is the liveness side of the directory plane: it binds names
// with a lease, fanned to every replica of the owning shard, and
// heartbeats them on the runtime clock. Heartbeats are full rebinds —
// not bare renews — so a replica that crashed and restarted with an
// empty table converges within one heartbeat period. A publisher that
// stops (crashes) stops heartbeating, and its names expire everywhere
// within one TTL: liveness by lease, no failure detector needed.
type Publisher struct {
	ctx      *core.Context
	ring     *Ring
	interval time.Duration
	ttl      time.Duration
	// replicaGPs[s][r]: writes go to every replica directly.
	replicaGPs [][]*core.GlobalPtr

	mu     sync.Mutex
	bound  map[string][]byte // name -> encoded ref being heartbeated
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewPublisher joins a publishing context to the plane described by bs
// and starts the heartbeat loop.
func NewPublisher(ctx *core.Context, bs *Bootstrap, opts PublisherOptions) (*Publisher, error) {
	_, replicas, err := bs.shardRefs()
	if err != nil {
		return nil, err
	}
	if opts.TTL <= 0 {
		opts.TTL = DefaultLeaseTTL
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = opts.TTL / 3
	}
	p := &Publisher{
		ctx:      ctx,
		ring:     bs.Ring(),
		interval: opts.HeartbeatInterval,
		ttl:      opts.TTL,
		bound:    make(map[string][]byte),
		stop:     make(chan struct{}),
	}
	for s := range replicas {
		var gps []*core.GlobalPtr
		for _, rr := range replicas[s] {
			gps = append(gps, ctx.NewGlobalPtr(rr))
		}
		p.replicaGPs = append(p.replicaGPs, gps)
	}
	p.wg.Add(1)
	go p.heartbeatLoop()
	return p, nil
}

// Publish binds name -> ref with the publisher's lease on every replica
// of the owning shard; at least one replica must accept. The binding is
// heartbeated until Unpublish or Close.
func (p *Publisher) Publish(name string, ref *core.ObjectRef) error {
	blob, err := core.EncodeRef(ref)
	if err != nil {
		return err
	}
	if err := p.fanBind(name, blob); err != nil {
		return err
	}
	p.mu.Lock()
	p.bound[name] = blob
	p.mu.Unlock()
	return nil
}

// Unpublish removes the binding from every replica (best-effort — a
// replica that misses the unbind expires the lease instead) and stops
// heartbeating it.
func (p *Publisher) Unpublish(name string) error {
	p.mu.Lock()
	delete(p.bound, name)
	p.mu.Unlock()
	shard := p.ring.Shard(name)
	var ok int
	var lastErr error
	for _, gp := range p.replicaGPs[shard] {
		if _, err := core.Call[*core.StringValue, core.Empty](gp, "unbind", &core.StringValue{V: name}); err != nil {
			lastErr = err
		} else {
			ok++
		}
	}
	if ok == 0 {
		return errs.Wrapf(errs.Unavailable, lastErr, "directory: unpublish %q", name)
	}
	return nil
}

// fanBind issues the leased overwrite-bind to every replica of the
// owning shard; one acceptance is success (the heartbeat repairs the
// rest).
func (p *Publisher) fanBind(name string, blob []byte) error {
	shard := p.ring.Shard(name)
	args := &registry.BindArgs{Name: name, Ref: blob, Overwrite: true, TTLNanos: int64(p.ttl)}
	var ok int
	var lastErr error
	for _, gp := range p.replicaGPs[shard] {
		if _, err := core.Call[*registry.BindArgs, core.Empty](gp, "bind", args); err != nil {
			lastErr = err
		} else {
			ok++
		}
	}
	if ok == 0 {
		return errs.Wrapf(errs.Unavailable, lastErr, "directory: publish %q", name)
	}
	return nil
}

// heartbeatLoop re-binds every published name each interval.
func (p *Publisher) heartbeatLoop() {
	defer p.wg.Done()
	clk := p.ctx.Runtime().Clock()
	for {
		select {
		case <-p.stop:
			return
		case <-clock.After(clk, p.interval):
			p.heartbeat()
		}
	}
}

// heartbeat is one round: re-issue every binding with a fresh lease.
func (p *Publisher) heartbeat() {
	p.mu.Lock()
	names := make([]string, 0, len(p.bound))
	blobs := make([][]byte, 0, len(p.bound))
	for n, b := range p.bound {
		names = append(names, n)
		blobs = append(blobs, b)
	}
	p.mu.Unlock()
	if len(names) == 0 {
		return
	}
	span := p.ctx.Runtime().Tracer().StartRoot(obs.KindClient, "dir.heartbeat")
	if span != nil {
		span.SetRPC("", "heartbeat")
		span.SetBytes(len(names))
	}
	var lastErr error
	for i, name := range names {
		// A replica being down is expected mid-fault; the round carries
		// on and the next one repairs it.
		if err := p.fanBind(name, blobs[i]); err != nil {
			lastErr = err
		}
	}
	if span != nil {
		span.SetErr(lastErr)
		span.End()
	}
}

// Names lists the bindings currently heartbeated.
func (p *Publisher) Names() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.bound))
	for n := range p.bound {
		out = append(out, n)
	}
	return out
}

// Close stops the heartbeat loop and releases the GPs. Published names
// are left to expire with their leases (call Unpublish first for an
// immediate tombstone).
func (p *Publisher) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
	for _, gps := range p.replicaGPs {
		for _, gp := range gps {
			gp.Release()
		}
	}
	return nil
}
