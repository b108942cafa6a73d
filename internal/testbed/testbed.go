// Package testbed builds the simulated world an experiment runs in: a
// netsim topology, one runtime, server and client contexts, the paper's
// echo servant, and the object references clients reach it through.
//
// Every figure in internal/bench and every internal/load scenario needs
// the same ladder — network, LAN, machines, runtime, contexts, bindings,
// export, protocol entries, reference — and each rung can fail. The
// Builder carries a sticky error instead: after the first failing step
// every later step is a no-op, and Build reports that one error, once.
package testbed

import (
	"openhpcxx/internal/capability"
	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
)

// ExchangeIface is the echo servant's interface name.
const ExchangeIface = "openhpcxx.testbed.Exchange"

// ExchangeActivator builds the paper's §5 workload servant: one method,
// "exchange", that decodes an integer array and echoes it back. The
// servant is stateless, hence trivially migratable.
func ExchangeActivator() (any, map[string]core.Method) {
	return exchangeImpl{}, map[string]core.Method{
		"exchange": core.Handler(func(in *core.Int32Slice) (*core.Int32Slice, error) {
			return in, nil
		}),
	}
}

type exchangeImpl struct{}

func (exchangeImpl) Snapshot() ([]byte, error) { return nil, nil }
func (exchangeImpl) Restore([]byte) error      { return nil }

// Ints returns the n-int array 0..n-1 the workload exchanges.
func Ints(n int) *core.Int32Slice {
	arr := &core.Int32Slice{V: make([]int32, n)}
	for i := range arr.V {
		arr.V[i] = int32(i)
	}
	return arr
}

// Hook observes a testbed's runtime from Build until Close — where a
// harness attaches its telemetry plane. The returned cleanup (may be
// nil) runs before the runtime shuts down.
type Hook func(label string, rt *core.Runtime) (done func())

// Builder assembles one testbed. Net and RT are live from New on, so a
// caller configures them directly (rt.SetFailover, net.Seed, ...); the
// methods below are the steps that can fail.
type Builder struct {
	Net *netsim.Network
	RT  *core.Runtime

	label string
	hook  Hook
	done  func()
	err   error
}

// New starts a testbed: an empty network and a runtime with glue
// support and the echo servant's activator registered. label names the
// runtime's process and is what hook (may be nil) is told at Build.
func New(label string, hook Hook) *Builder {
	n := netsim.New()
	rt := core.NewRuntime(n, label)
	capability.Install(rt.DefaultPool())
	rt.RegisterIface(ExchangeIface, ExchangeActivator)
	return &Builder{Net: n, RT: rt, label: label, hook: hook}
}

// Do runs one fallible construction step unless an earlier one failed.
func (b *Builder) Do(step func() error) {
	if b.err == nil {
		b.err = step()
	}
}

// LAN adds a LAN on the given campus, shaped by profile, and its
// machines.
func (b *Builder) LAN(id netsim.LANID, campus netsim.CampusID, profile netsim.LinkProfile, machines ...netsim.MachineID) {
	b.Net.AddLAN(id, campus, profile)
	for _, m := range machines {
		b.Net.MustAddMachine(m, id)
	}
}

// Build ends construction. It returns the first failing step's error,
// having closed the runtime; on success the hook starts observing.
func (b *Builder) Build() error {
	if b.err != nil {
		b.RT.Close()
		return errs.Wrapf(errs.CodeOf(b.err), b.err, "testbed %s", b.label)
	}
	if b.hook != nil {
		b.done = b.hook(b.label, b.RT)
	}
	return nil
}

// Close detaches the hook and shuts the runtime down. It is safe after
// a failed Build and safe to call twice.
func (b *Builder) Close() {
	if b.done != nil {
		b.done()
		b.done = nil
	}
	b.RT.Close()
}

// Node is one context of the testbed and what it hosts. After a failed
// step Ctx and Servant may be nil; every Node method is then a no-op,
// so a figure checks Build's error, not each handle.
type Node struct {
	Ctx     *core.Context
	Servant *core.Servant

	b    *Builder
	port int
}

// Context adds a context with no bindings on machine m — a client, or
// a server about to Bind.
func (b *Builder) Context(name string, m netsim.MachineID) *Node {
	n := &Node{b: b}
	b.Do(func() (err error) {
		n.Ctx, err = b.RT.NewContext(name, m)
		return err
	})
	return n
}

// Bind serves the stream protocol on the simulated network at port
// (0 = any). A fixed port is what Rebind restores after a restart.
func (n *Node) Bind(port int) *Node {
	n.port = port
	n.b.Do(func() error { return n.Ctx.BindSim(port) })
	return n
}

// BindAll serves every built-in protocol: shared memory, stream and
// Nexus, each at any port.
func (n *Node) BindAll() *Node {
	n.b.Do(func() error { return n.Ctx.BindSHM() })
	n.Bind(0)
	n.b.Do(func() error { return n.Ctx.BindNexusSim(0) })
	return n
}

// Rebind re-binds the stream port Bind fixed: the FaultPlan.RestartAt
// hook modelling a supervisor bringing the service back at the address
// the protocol table advertises.
func (n *Node) Rebind() { _ = n.Ctx.BindSim(n.port) }

// Echo exports the echo servant under id ("" = the context's next
// automatic id).
func (n *Node) Echo(id core.ObjectID) *Node {
	impl, methods := ExchangeActivator()
	return n.Export(id, impl, methods)
}

// Export exports a servant answering the echo interface with the given
// implementation — a figure's own "exchange" with a cost model.
func (n *Node) Export(id core.ObjectID, impl any, methods map[string]core.Method) *Node {
	n.b.Do(func() (err error) {
		if id == "" {
			n.Servant, err = n.Ctx.Export(ExchangeIface, impl, methods)
		} else {
			n.Servant, err = n.Ctx.ExportAs(id, ExchangeIface, impl, methods, 0)
		}
		return err
	})
	return n
}

// Entry runs one protocol-entry constructor against this node's context
// as a builder step: node.Entry(udprel.Entry) for a user-written
// protocol, the three below for the built-ins.
func (n *Node) Entry(build func(*core.Context) (core.ProtoEntry, error)) (e core.ProtoEntry) {
	n.b.Do(func() (err error) {
		e, err = build(n.Ctx)
		return err
	})
	return e
}

// Stream, SHM and Nexus are protocol-table entries for this node's
// built-in bindings.
func (n *Node) Stream() core.ProtoEntry { return n.Entry((*core.Context).EntryStream) }
func (n *Node) SHM() core.ProtoEntry    { return n.Entry((*core.Context).EntrySHM) }
func (n *Node) Nexus() core.ProtoEntry  { return n.Entry((*core.Context).EntryNexus) }

// Glue is a glue entry over base carrying caps, with its server-side
// chain registered on this node under tag.
func (n *Node) Glue(tag string, base core.ProtoEntry, caps ...capability.Capability) core.ProtoEntry {
	return n.Entry(func(ctx *core.Context) (core.ProtoEntry, error) {
		return capability.GlueEntry(ctx, tag, base, caps...)
	})
}

// Ref is a reference to this node's servant with the given protocol
// table, in preference order; nil once a step has failed.
func (n *Node) Ref(entries ...core.ProtoEntry) *core.ObjectRef {
	if n.b.err != nil {
		return nil
	}
	return n.Ctx.NewRef(n.Servant, entries...)
}
