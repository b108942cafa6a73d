package hpcxx

import (
	"sync"

	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/xdr"
)

// BarrierIface is the barrier servant's interface name.
const BarrierIface = "openhpcxx.Barrier"

// barrierState is a reusable generation barrier: Await blocks until all
// parties of the current generation have arrived, then everyone is
// released and the next generation begins (HPC++Lib's barrier
// semantics, coordinated through one server object).
type barrierState struct {
	mu         sync.Mutex
	cond       *sync.Cond
	parties    int
	arrived    int
	generation uint64
}

func newBarrierState(parties int) *barrierState {
	b := &barrierState{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks the calling request until the generation completes and
// returns the completed generation number.
func (b *barrierState) await() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.generation
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.generation++
		b.cond.Broadcast()
		return gen
	}
	for b.generation == gen {
		b.cond.Wait()
	}
	return gen
}

// Snapshot implements core.Migratable; a barrier migrates only between
// generations (waiters do not survive a move — they time out and
// retry), so the state is just the generation counter.
func (b *barrierState) Snapshot() ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := xdr.NewEncoder(16)
	e.PutUint64(b.generation)
	e.PutUint32(uint32(b.parties))
	return e.Bytes(), nil
}

// Restore implements core.Migratable.
func (b *barrierState) Restore(state []byte) error {
	d := xdr.NewDecoder(state)
	gen, err := d.Uint64()
	if err != nil {
		return err
	}
	parties, err := d.Uint32()
	if err != nil {
		return err
	}
	b.mu.Lock()
	b.generation = gen
	b.parties = int(parties)
	b.arrived = 0
	b.mu.Unlock()
	return nil
}

type barrierReply struct{ Generation uint64 }

func (r *barrierReply) MarshalXDR(e *xdr.Encoder) error {
	e.PutUint64(r.Generation)
	return nil
}

func (r *barrierReply) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	r.Generation, err = d.Uint64()
	return err
}

// ServeBarrier exports an n-party barrier on ctx and returns its
// reference (with every binding the context has).
func ServeBarrier(ctx *core.Context, parties int) (*core.ObjectRef, error) {
	if parties < 1 {
		return nil, errs.New(errs.Config, "hpcxx: barrier needs >= 1 parties")
	}
	st := newBarrierState(parties)
	methods := map[string]core.Method{
		"arrive": core.Handler(func(*core.Empty) (*barrierReply, error) {
			return &barrierReply{Generation: st.await()}, nil
		}),
	}
	s, err := ctx.Export(BarrierIface, st, methods)
	if err != nil {
		return nil, err
	}
	entries := ctx.Entries()
	if len(entries) == 0 {
		return nil, errs.Newf(errs.Config, "hpcxx: context %s has no bindings for a barrier", ctx.Name())
	}
	return ctx.NewRef(s, entries...), nil
}

// Barrier is a client handle on a barrier servant.
type Barrier struct {
	gp *core.GlobalPtr
}

// NewBarrier binds a barrier reference to a client context.
func NewBarrier(ctx *core.Context, ref *core.ObjectRef) *Barrier {
	return &Barrier{gp: ctx.NewGlobalPtr(ref)}
}

// Await blocks until all parties of the current generation have arrived
// and returns the completed generation number.
func (b *Barrier) Await() (uint64, error) {
	r, err := core.Call[*core.Empty, barrierReply](b.gp, "arrive", &core.Empty{})
	if err != nil {
		return 0, errs.Wrap(errs.CodeOf(err), err, "hpcxx: barrier await")
	}
	return r.Generation, nil
}
