package directory

import (
	"time"

	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/xdr"
)

// Topology shapes a directory plane: how many shards partition the
// namespace, how many replicas each shard keeps, and the ring/lease
// parameters. The zero value is usable — fill() applies defaults.
type Topology struct {
	// Shards is the partition count (default 3).
	Shards int
	// Replicas is how many copies each shard keeps (default 1; clamped
	// to the number of hosting contexts — two replicas in one context
	// would be one copy wearing two hats).
	Replicas int
	// VNodes is the ring's virtual-node count per shard (default
	// DefaultVNodes).
	VNodes int
	// SweepInterval paces each replica's lease sweeper (default: the
	// registry's).
	SweepInterval time.Duration
}

func (t Topology) fill() Topology {
	if t.Shards < 1 {
		t.Shards = 3
	}
	if t.Replicas < 1 {
		t.Replicas = 1
	}
	if t.VNodes <= 0 {
		t.VNodes = DefaultVNodes
	}
	return t
}

// Plane is the server side of a directory deployment: the shard
// replicas exported across a set of contexts, plus the ring and the
// references clients bootstrap from.
type Plane struct {
	topo Topology
	ring *Ring
	// replicas[s][r] is replica r of shard s.
	replicas [][]*Shard
	// replicaRefs[s][r] is the reference reaching exactly that replica.
	replicaRefs [][]*core.ObjectRef
	// shardRefs[s] is the merged read reference: every replica's
	// entries in one ordered protocol table, primary first — the
	// failover chain.
	shardRefs []*core.ObjectRef
}

// ServePlane exports a directory plane across the given contexts:
// replica r of shard s lands on ctxs[(s+r) % len(ctxs)], so shards
// spread round-robin and a shard's replicas land on distinct contexts
// (machines, when the contexts are placed that way). Each hosting
// runtime gets the dir.shards gauge and a "directory" /statusz section.
func ServePlane(ctxs []*core.Context, topo Topology) (*Plane, error) {
	if len(ctxs) == 0 {
		return nil, errs.New(errs.Config, "directory: no hosting contexts")
	}
	topo = topo.fill()
	if topo.Replicas > len(ctxs) {
		topo.Replicas = len(ctxs)
	}
	p := &Plane{
		topo:        topo,
		ring:        NewRing(topo.Shards, topo.VNodes),
		replicas:    make([][]*Shard, topo.Shards),
		replicaRefs: make([][]*core.ObjectRef, topo.Shards),
		shardRefs:   make([]*core.ObjectRef, topo.Shards),
	}
	for s := 0; s < topo.Shards; s++ {
		for r := 0; r < topo.Replicas; r++ {
			host := ctxs[(s+r)%len(ctxs)]
			sh, sv, err := ServeShard(host, s, topo.SweepInterval)
			if err != nil {
				return nil, err
			}
			entries := host.Entries()
			if len(entries) == 0 {
				return nil, errs.Newf(errs.Config, "directory: context %s has no bindings", host.Name())
			}
			p.replicas[s] = append(p.replicas[s], sh)
			p.replicaRefs[s] = append(p.replicaRefs[s], host.NewRef(sv, entries...))
		}
		merged := p.replicaRefs[s][0].Clone()
		for _, rr := range p.replicaRefs[s][1:] {
			merged.Protocols = append(merged.Protocols, rr.Clone().Protocols...)
		}
		p.shardRefs[s] = merged
	}
	// Per-runtime wiring, once per distinct runtime among the hosts.
	seen := make(map[*core.Runtime]bool)
	for _, c := range ctxs {
		rt := c.Runtime()
		if seen[rt] {
			continue
		}
		seen[rt] = true
		rt.Metrics().Gauge("dir.shards").Set(int64(topo.Shards))
		rt.RegisterStatusSection("directory", p.statusSection)
	}
	return p, nil
}

// Ring returns the plane's partitioner.
func (p *Plane) Ring() *Ring { return p.ring }

// Topology returns the effective (default-filled, clamped) topology.
func (p *Plane) Topology() Topology { return p.topo }

// ShardRef returns shard s's merged read reference (all replicas in one
// failover table). The caller gets a clone.
func (p *Plane) ShardRef(s int) *core.ObjectRef { return p.shardRefs[s].Clone() }

// Replicas returns shard s's replica handles (primary first).
func (p *Plane) Replicas(s int) []*Shard { return p.replicas[s] }

// Preload seeds a name directly into every replica of its owning shard,
// bypassing the wire — experiments use it to build million-entry
// tables. ttl <= 0 binds without a lease.
func (p *Plane) Preload(name string, encodedRef []byte, ttl time.Duration) {
	s := p.ring.Shard(name)
	for _, sh := range p.replicas[s] {
		sh.Service().BindDirect(name, encodedRef, ttl)
	}
}

// Bootstrap packages what a client needs to join the plane: the ring
// parameters plus every replica's encoded reference. It crosses
// processes as XDR, the same way object references do.
func (p *Plane) Bootstrap() (*Bootstrap, error) {
	b := &Bootstrap{
		Shards:   p.topo.Shards,
		VNodes:   p.topo.VNodes,
		Replicas: make([][][]byte, p.topo.Shards),
	}
	for s := range p.replicaRefs {
		for _, rr := range p.replicaRefs[s] {
			blob, err := core.EncodeRef(rr)
			if err != nil {
				return nil, err
			}
			b.Replicas[s] = append(b.Replicas[s], blob)
		}
	}
	return b, nil
}

// shardStatus is one row of the /statusz directory table.
type shardStatus struct {
	Shard    int `json:"shard"`
	Replica  int `json:"replica"`
	Entries  int `json:"entries"`
	Leased   int `json:"leased"`
	Watchers int `json:"watchers"`
}

// planeStatus is the "directory" /statusz section.
type planeStatus struct {
	Shards   int           `json:"shards"`
	Replicas int           `json:"replicas"`
	VNodes   int           `json:"vnodes"`
	Table    []shardStatus `json:"table"`
}

func (p *Plane) statusSection() any {
	st := planeStatus{Shards: p.topo.Shards, Replicas: p.topo.Replicas, VNodes: p.topo.VNodes}
	for s := range p.replicas {
		for r, sh := range p.replicas[s] {
			total, leased := sh.Service().Counts()
			st.Table = append(st.Table, shardStatus{
				Shard:    s,
				Replica:  r,
				Entries:  total,
				Leased:   leased,
				Watchers: sh.Watchers(),
			})
		}
	}
	return st
}

// Bootstrap is the client-side view of a plane: ring parameters and
// per-shard replica references.
type Bootstrap struct {
	Shards int
	VNodes int
	// Replicas[s][r] is the encoded ObjectRef of replica r of shard s.
	Replicas [][][]byte
}

// MarshalXDR encodes the bootstrap for cross-process handoff.
func (b *Bootstrap) MarshalXDR(e *xdr.Encoder) error {
	e.PutUint32(uint32(b.Shards))
	e.PutUint32(uint32(b.VNodes))
	e.PutUint32(uint32(len(b.Replicas)))
	for _, reps := range b.Replicas {
		e.PutUint32(uint32(len(reps)))
		for _, blob := range reps {
			e.PutOpaque(blob)
		}
	}
	return nil
}

// UnmarshalXDR decodes a bootstrap.
func (b *Bootstrap) UnmarshalXDR(d *xdr.Decoder) error {
	sh, err := d.Uint32()
	if err != nil {
		return err
	}
	vn, err := d.Uint32()
	if err != nil {
		return err
	}
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if n > 1<<16 {
		return errs.Newf(errs.Codec, "directory: bootstrap of %d shards exceeds limit", n)
	}
	b.Shards, b.VNodes = int(sh), int(vn)
	b.Replicas = make([][][]byte, n)
	for s := range b.Replicas {
		k, err := d.Uint32()
		if err != nil {
			return err
		}
		if k > 64 {
			return errs.Newf(errs.Codec, "directory: %d replicas exceeds limit", k)
		}
		for r := uint32(0); r < k; r++ {
			blob, err := d.Opaque()
			if err != nil {
				return err
			}
			b.Replicas[s] = append(b.Replicas[s], blob)
		}
	}
	return nil
}

// Ring rebuilds the partitioner the plane was built with.
func (b *Bootstrap) Ring() *Ring { return NewRing(b.Shards, b.VNodes) }

// shardRefs decodes the bootstrap into per-shard merged read refs and
// per-replica refs — the resolver's and publisher's working sets.
func (b *Bootstrap) shardRefs() (merged []*core.ObjectRef, replicas [][]*core.ObjectRef, err error) {
	merged = make([]*core.ObjectRef, len(b.Replicas))
	replicas = make([][]*core.ObjectRef, len(b.Replicas))
	for s := range b.Replicas {
		if len(b.Replicas[s]) == 0 {
			return nil, nil, errs.Newf(errs.Config, "directory: shard %d has no replicas", s)
		}
		for _, blob := range b.Replicas[s] {
			ref, err := core.DecodeRef(blob)
			if err != nil {
				return nil, nil, err
			}
			replicas[s] = append(replicas[s], ref)
		}
		m := replicas[s][0].Clone()
		for _, rr := range replicas[s][1:] {
			m.Protocols = append(m.Protocols, rr.Clone().Protocols...)
		}
		merged[s] = m
	}
	return merged, replicas, nil
}
