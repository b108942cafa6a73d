package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"openhpcxx/internal/capability"
	"openhpcxx/internal/core"
	"openhpcxx/internal/migrate"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/xdr"
)

const echoIface = "openhpcxx.benchmark.Echo"

// Machines of the benchmark's topology. netsim supplies localities only
// (shm is applicable to a server on the callers' machine and to no
// other); no traffic crosses a simulated link.
const (
	nearMachine netsim.MachineID = "near" // callers, and the touring object's first home
	farMachine  netsim.MachineID = "far"  // every other server context
)

// payload is the argument and result type of the echo servant.
type payload struct{ V []int32 }

func (p *payload) MarshalXDR(e *xdr.Encoder) error {
	e.PutInt32s(p.V)
	return nil
}

func (p *payload) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	p.V, err = d.Int32s()
	return err
}

// sequenceOf reads the call sequence number the driver stamps into
// args[0], or -1 when body is not a plain encoded payload.
func sequenceOf(body []byte) int32 {
	if len(body) < 8 {
		return -1
	}
	return int32(uint32(body[4])<<24 | uint32(body[5])<<16 | uint32(body[6])<<8 | uint32(body[7]))
}

// echoServant builds the benchmark's servant: one method, "exchange",
// behind the ORB's ordinary typed stub. It is stateless, hence trivially
// migratable. With flip set it corrupts one element of every reply, which
// the driver's byte comparison must catch.
func echoServant(rec *recorder, flip bool) (any, map[string]core.Method) {
	stub := core.Handler(func(in *payload) (*payload, error) {
		if flip {
			in.V[len(in.V)-1] ^= 1
		}
		return in, nil
	})
	exchange := func(args []byte) ([]byte, error) {
		if !rec.enabled() {
			return stub(args)
		}
		start := time.Now()
		out, err := stub(args)
		rec.add(layerServant, sequenceOf(args), 0, start, time.Now())
		return out, err
	}
	return echoImpl{}, map[string]core.Method{"exchange": exchange}
}

type echoImpl struct{}

func (echoImpl) Snapshot() ([]byte, error) { return nil, nil }
func (echoImpl) Restore([]byte) error      { return nil }

// caller is one closed-loop client: its own context (hence its own
// connection), global pointer and payload.
type caller struct {
	gp  *core.GlobalPtr
	v   []int32        // v[0] carries the sequence number of the call in flight
	enc []*xdr.Encoder // argument buffers, one per in-flight slot
}

// deployment is one process-local instance of a workload: a runtime, the
// object's home contexts, and the callers.
type deployment struct {
	w       workload
	rec     *recorder // nil unless this is the traced run
	rt      *core.Runtime
	homes   []*core.Context // the object lives in homes[cur]
	cur     int
	ref     *core.ObjectRef
	callers []*caller

	seq       atomic.Int32 // last sequence number issued
	lat       []int64      // latency samples of the block being run
	attempted int64
	failed    int64
	legs      int                  // legs run; the touring object moves before every leg but the first
	served    uint64               // Servant.Calls() of the homes the object has left
	selected  map[core.ProtoID]int // protocol bound after each leg, caller 0
	moveNs    []int64              // duration of each migrate.MoveLocal
	chaseNs   []int64              // latency of each first call after a move
}

// deploy builds the workload's contexts, exports the servant, and hands
// every caller a global pointer. Nothing has been selected or dialed yet.
func deploy(w workload, cfg config, callers int, rec *recorder) (*deployment, error) {
	topo := netsim.New()
	topo.AddLAN("lan", "campus", netsim.ProfileUnshaped)
	topo.MustAddMachine(nearMachine, "lan")
	topo.MustAddMachine(farMachine, "lan")
	rt := core.NewRuntime(topo, "benchmark")
	if w.glue {
		capability.Install(rt.DefaultPool())
	}
	rt.RegisterIface(echoIface, func() (any, map[string]core.Method) { return echoServant(rec, cfg.flip) })
	d := &deployment{w: w, rec: rec, rt: rt, selected: map[core.ProtoID]int{}}

	homeMachines := []netsim.MachineID{farMachine}
	if w.tourEvery > 0 {
		homeMachines = []netsim.MachineID{nearMachine, farMachine}
	}
	for i, m := range homeMachines {
		home, err := rt.NewContext(fmt.Sprintf("home-%d", i), m)
		if err != nil {
			return nil, d.abandon(err)
		}
		if err := d.bind(home, w.tourEvery > 0); err != nil {
			return nil, d.abandon(err)
		}
		d.homes = append(d.homes, home)
	}

	home := d.homes[0]
	impl, methods := echoServant(rec, cfg.flip)
	s, err := home.Export(echoIface, impl, methods)
	if err != nil {
		return nil, d.abandon(err)
	}
	stream, err := home.EntryStream()
	if err != nil {
		return nil, d.abandon(err)
	}
	table := []core.ProtoEntry{stream}
	switch {
	case w.tourEvery > 0:
		shm, err := home.EntrySHM()
		if err != nil {
			return nil, d.abandon(err)
		}
		table = []core.ProtoEntry{shm, stream}
	case w.glue:
		glue, err := capability.GlueEntry(home, "benchmark-glue", stream, glueChain()...)
		if err != nil {
			return nil, d.abandon(err)
		}
		table = []core.ProtoEntry{glue}
	}
	d.ref = home.NewRef(s, table...)

	// -seed generates the payload values and nothing else.
	rng := rand.New(rand.NewSource(cfg.seed))
	slots := 1
	if w.async {
		callers, slots = 1, asyncWindow
	}
	for i := 0; i < callers; i++ {
		client, err := rt.NewContext(fmt.Sprintf("client-%d", i), nearMachine)
		if err != nil {
			return nil, d.abandon(err)
		}
		if rec != nil {
			rec.wrapPool(client.Pool())
		}
		c := &caller{gp: client.NewGlobalPtr(d.ref), v: make([]int32, w.ints)}
		for j := range c.v {
			c.v[j] = rng.Int31()
		}
		for j := 0; j < slots; j++ {
			c.enc = append(c.enc, xdr.NewEncoder(4+4*w.ints))
		}
		if w.async {
			c.gp.SetMaxInFlight(asyncWindow)
			policy := transport.DefaultBatchPolicy()
			c.gp.SetBatchPolicy(&policy)
		}
		d.callers = append(d.callers, c)
	}
	return d, nil
}

// glueChain is the capability chain of rmi_glue_chain and of the
// capability cells. The keys are fixed: the seed reaches payloads only.
func glueChain() []capability.Capability {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i)
	}
	return []capability.Capability{
		capability.NewQuota(0, time.Time{}),
		capability.MustNewAuth("benchmark", []byte("benchmark-secret"), capability.ScopeAlways),
		capability.NewChecksum(),
		capability.MustNewEncrypt(key, capability.ScopeAlways),
	}
}

// bind makes ctx reachable over loopback TCP and, for a touring object's
// homes, the shm fabric. The traced run serves through the benchmark's
// own listener and handler instead of BindTCP/BindSHM, so that bytes,
// writes and frames are counted and dispatch is timed at the boundary.
func (d *deployment) bind(ctx *core.Context, shm bool) error {
	if d.rec == nil {
		if shm {
			if err := ctx.BindSHM(); err != nil {
				return err
			}
		}
		return ctx.BindTCP("127.0.0.1:0")
	}
	handler := d.rec.handler(ctx.Dispatch)
	if shm {
		name := "ctx-" + ctx.Name()
		l, err := d.rt.SHM().Listen(name)
		if err != nil {
			return err
		}
		ctx.RegisterBinding(core.ProtoSHM, "shm:"+name, transport.Serve(d.rec.listener(l), handler))
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx.RegisterBinding(core.ProtoStream, "tcp://"+l.Addr().String(), transport.Serve(d.rec.listener(l), handler))
	return nil
}

// warmUp selects and dials on every caller, then runs the warm-up calls
// (for a touring object that includes moves, so both homes are dialed).
func (d *deployment) warmUp(calls int) error {
	for _, c := range d.callers {
		if _, err := c.gp.SelectedProtocol(); err != nil {
			return err
		}
	}
	_, err := d.runBlock(calls)
	return err
}

// move migrates the touring object to its other home. Callers are
// quiescent (the legs form a barrier), so the departing servant's call
// count is final when it is read.
func (d *deployment) move() error {
	src, dst := d.homes[d.cur], d.homes[1-d.cur]
	if s, ok := src.Servant(d.ref.Object); ok {
		d.served += s.Calls()
	}
	start := time.Now()
	ref, err := migrate.MoveLocal(src, d.ref, dst)
	end := time.Now()
	if err != nil {
		return fmt.Errorf("moving %s: %w", d.ref.Object, err)
	}
	d.moveNs = append(d.moveNs, end.Sub(start).Nanoseconds())
	d.rec.add(layerMove, -1, 0, start, end)
	d.ref, d.cur = ref, 1-d.cur
	return nil
}

// unaccounted is the difference between the calls the driver issued and
// the calls the object's servants executed: a silent retry or a
// duplicate shows here even when every reply compared equal.
func (d *deployment) unaccounted() int64 {
	served := d.served
	if s, ok := d.homes[d.cur].Servant(d.ref.Object); ok {
		served += s.Calls()
	}
	diff := d.attempted - int64(served)
	if diff < 0 {
		diff = -diff
	}
	return diff
}

func (d *deployment) close() { d.rt.Close() }

func (d *deployment) abandon(err error) error {
	d.close()
	return err
}
