// Package directory is the sharded object directory plane: the
// namespace of the single-servant registry scaled out to N ordinary ORB
// shard servants (consistent-hash partitioned, each reusing the
// registry.Service semantics), replicated K ways for availability, with
// lease-based liveness and server-pushed watch/invalidation streams so
// resolvers cache aggressively without polling.
//
// The plane has three client-side roles:
//
//   - Publisher: binds names with a lease and heartbeats them (full
//     rebinds, so a replica that restarted empty converges within one
//     heartbeat period).
//   - Resolver: resolves names through a bounded cache invalidated by
//     tombstone events the shards push over the one-way plane; cache
//     misses fail over down the shard's replica protocol table exactly
//     the way ordinary invocation does.
//   - Plane: the server side — exports the shard servants across a set
//     of contexts, wires their metrics and /statusz section, and hands
//     out the Bootstrap clients start from.
//
// Everything on the wire is ordinary ORB machinery: shards are servants,
// watch events are one-way posts, failover is the reference's ordered
// protocol table plus health breakers — the paper's point that a
// directory needs no mechanism the ORB does not already have.
package directory

import (
	"fmt"

	"openhpcxx/internal/core"
	"openhpcxx/internal/xdr"
)

// Iface is the shard servants' interface name. A shard speaks the full
// registry method set plus watch/unwatch.
const Iface = "openhpcxx.Directory"

// SinkIface is the interface name of the resolver-side event sink that
// shards push tombstones to.
const SinkIface = "openhpcxx.DirectorySink"

// EventMethod is the one-way method shards post watch events through.
const EventMethod = "dirEvent"

// ShardObjectID names shard i. Every replica of a shard exports under
// the same id — the reference's protocol table *is* the replica set.
func ShardObjectID(i int) core.ObjectID {
	return core.ObjectID(fmt.Sprintf("dir/shard-%d", i))
}

// watchArgs registers (or, for unwatch, removes) a watcher: the encoded
// reference of the caller's event sink servant.
type watchArgs struct{ Sink []byte }

func (a *watchArgs) MarshalXDR(e *xdr.Encoder) error {
	e.PutOpaque(a.Sink)
	return nil
}

func (a *watchArgs) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	a.Sink, err = d.Opaque()
	return err
}

// eventMsg is one watch event on the wire: a bind (Ref carries the new
// reference) or an unbind/expire tombstone. Shard identifies the origin
// so a sink watching many shards can attribute it.
type eventMsg struct {
	Shard uint32
	Kind  uint32 // registry.EventKind
	Name  string
	Ref   []byte
}

func (m *eventMsg) MarshalXDR(e *xdr.Encoder) error {
	e.PutUint32(m.Shard)
	e.PutUint32(m.Kind)
	e.PutString(m.Name)
	e.PutOpaque(m.Ref)
	return nil
}

func (m *eventMsg) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if m.Shard, err = d.Uint32(); err != nil {
		return err
	}
	if m.Kind, err = d.Uint32(); err != nil {
		return err
	}
	if m.Name, err = d.String(); err != nil {
		return err
	}
	m.Ref, err = d.Opaque()
	return err
}
