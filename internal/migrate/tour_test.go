package migrate

import (
	"testing"

	"openhpcxx/internal/core"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/stats"
	"openhpcxx/internal/xdr"
)

const echoIface = "test.Echo"

func echoActivator() (any, map[string]core.Method) {
	return echoImpl{}, map[string]core.Method{
		"exchange": core.Handler(func(in *core.Int32Slice) (*core.Int32Slice, error) { return in, nil }),
	}
}

type echoImpl struct{}

func (echoImpl) Snapshot() ([]byte, error) { return nil, nil }
func (echoImpl) Restore([]byte) error      { return nil }

// tour is one GP on an object that moves between two homes, the shape
// of the benchmark's migrating workload: the first home shares the
// caller's machine (shm is selected), the second does not (TCP).
type tour struct {
	rt    *core.Runtime
	homes [2]*core.Context
	cur   int
	ref   *core.ObjectRef
	gp    *core.GlobalPtr
	args  []byte
}

func newTour(t testing.TB) *tour {
	t.Helper()
	n := netsim.New()
	n.AddLAN("lan", "campus", netsim.ProfileUnshaped)
	n.MustAddMachine("near", "lan")
	n.MustAddMachine("far", "lan")
	rt := core.NewRuntime(n, "proc")
	t.Cleanup(rt.Close)
	rt.RegisterIface(echoIface, echoActivator)
	tr := &tour{rt: rt}
	for i, m := range []netsim.MachineID{"near", "far"} {
		home, err := rt.NewContext("home-"+string(m), m)
		if err != nil {
			t.Fatal(err)
		}
		if err := home.BindSHM(); err != nil {
			t.Fatal(err)
		}
		if err := home.BindTCP("127.0.0.1:0"); err != nil {
			t.Skipf("no TCP binding: %v", err)
		}
		tr.homes[i] = home
	}
	impl, methods := echoActivator()
	s, err := tr.homes[0].Export(echoIface, impl, methods)
	if err != nil {
		t.Fatal(err)
	}
	shm, _ := tr.homes[0].EntrySHM()
	stream, _ := tr.homes[0].EntryStream()
	tr.ref = tr.homes[0].NewRef(s, shm, stream)
	client, err := rt.NewContext("client", "near")
	if err != nil {
		t.Fatal(err)
	}
	tr.gp = client.NewGlobalPtr(tr.ref)
	if tr.args, err = xdr.Marshal(&core.Int32Slice{V: make([]int32, 64)}); err != nil {
		t.Fatal(err)
	}
	return tr
}

func (tr *tour) call(t testing.TB) {
	if out, err := tr.gp.Invoke("exchange", tr.args); err != nil || len(out) != len(tr.args) {
		t.Fatalf("%d bytes, %v", len(out), err)
	}
}

func (tr *tour) move(t testing.TB) {
	ref, err := MoveLocal(tr.homes[tr.cur], tr.ref, tr.homes[1-tr.cur])
	if err != nil {
		t.Fatal(err)
	}
	tr.ref, tr.cur = ref, 1-tr.cur
}

// TestTourAllocs pins what a move and the chase after it allocate beyond
// a steady call: the move itself (snapshot, reactivation, re-anchored
// table, tombstone), the stale call's FaultMoved, the decoded reference
// and the re-selection and re-bind. Each protocol-table entry is resolved
// once per context, so the re-select is a table lookup and the re-bind
// builds only the protocol object and its binding. Before that the same
// step cost 101.
func TestTourAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	tr := newTour(t)
	for i := 0; i < 8; i++ { // both homes dialed, selected and served
		tr.move(t)
		for j := 0; j < 50; j++ {
			tr.call(t)
		}
	}
	steady := testing.AllocsPerRun(2000, func() { tr.call(t) })
	move := testing.AllocsPerRun(100, func() { tr.move(t) })
	tr.call(t)
	step := testing.AllocsPerRun(100, func() { tr.move(t); tr.call(t) })
	t.Logf("steady call %.2f, move %.2f, move and chase %.2f", steady, move, step)
	const pin = 40
	if extra := step - steady; extra > pin {
		t.Fatalf("a move and its chase allocate %.1f beyond a steady call's %.1f, pinned at %d", extra, steady, pin)
	}
}

// TestTourKeepsOneSeriesPerHome: a GP touring A→B→A→B re-binds after
// every move, and each home's endpoint keeps one rpc.calls series — the
// record resolved its handles once — whose counts add up: every call plus
// one stale attempt per move.
func TestTourKeepsOneSeriesPerHome(t *testing.T) {
	tr := newTour(t)
	const calls, moves = 10, 3
	for i := 0; i <= moves; i++ {
		if i > 0 {
			tr.move(t)
		}
		for j := 0; j < calls; j++ {
			tr.call(t)
		}
	}
	series := map[string]uint64{}
	var total uint64
	for key, n := range tr.rt.MetricsSnapshot().Counters {
		if name, labels := stats.SplitKey(key); name == "rpc.calls" {
			series[labels["proto"]+" "+labels["endpoint"]] += n
			total += n
		}
	}
	if len(series) != 2 {
		t.Fatalf("rpc.calls series %v, want one per home", series)
	}
	if want := uint64((moves+1)*calls + moves); total != want {
		t.Fatalf("rpc.calls sum to %d over %v, want %d calls and stale attempts", total, series, want)
	}
}
