package bufpool_test

import (
	"bytes"
	"math/rand"
	"net"
	"runtime"
	"testing"

	"openhpcxx/internal/core"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/testbed"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// What each hop allocates once its payload-sized buffers are lent, pinned
// where the buffers meet: a regression names the hop that started
// allocating again. The pins count what sync.Pool hands back, so they
// skip themselves under the race detector.

const payload = 256 << 10

// bytesPerRun is testing.AllocsPerRun for bytes, after a warm-up run.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
}

func TestPipeRoundTripAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	a, b := netsim.Pipe(netsim.ProfileUnshaped, netsim.Addr{Machine: "a"}, netsim.Addr{Machine: "b"})
	defer a.Close()
	defer b.Close()
	out, in := make([]byte, 4<<10), make([]byte, 4<<10)
	trip := func() {
		// Two packets queued before either is read, so the queue is popped
		// at its head and at its end.
		for _, c := range [][2]*netsim.Conn{{a, b}, {b, a}} {
			c[0].Write(out[:100])
			c[0].Write(out)
			for got := 0; got < 100+len(out); {
				n, err := c[1].Read(in)
				if err != nil {
					t.Fatal(err)
				}
				got += n
			}
		}
	}
	if got := bytesPerRun(1000, trip); got != 0 {
		t.Fatalf("a round trip on a drained pipe allocates %d bytes, want 0 (packets are lent, the queue does not creep)", got)
	}
}

// echoServer serves a handler that answers with the request's own body —
// the aliasing case the release-after-write order exists for — and
// returns a mux dialed to it.
func echoServer(t *testing.T, fabric string) *transport.Mux {
	t.Helper()
	var l net.Listener
	var dial func() (net.Conn, error)
	var err error
	if fabric == "shm" {
		shm := transport.NewSHM()
		l, err = shm.Listen("echo")
		dial = func() (net.Conn, error) { return shm.Dial("echo") }
	} else {
		l, err = net.Listen("tcp", "127.0.0.1:0")
		dial = func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }
	}
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.Serve(l, func(m *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TReply, Object: m.Object, Method: m.Method, Body: m.Body}
	})
	t.Cleanup(func() { srv.Close() })
	c, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	mux := transport.NewMux(c)
	t.Cleanup(func() { mux.Close() })
	return mux
}

func TestEchoAllocatesOnlyTheClientsFrame(t *testing.T) {
	skipUnderRace(t)
	for _, fabric := range []string{"shm", "tcp"} {
		mux := echoServer(t, fabric)
		for _, c := range []struct {
			body  int
			limit uint64
			what  string
		}{
			// The client's read frame is the one payload-sized allocation
			// left (GlobalPtr.Invoke hands it to the caller for good).
			// Before frames and packets were lent: 4.1 payloads on shm, 2.1 on TCP.
			{payload, payload * 12 / 10, "1.2 payloads: the client's read frame and nothing else of that size"},
			// Before: 2 440 B on shm, 1 576 B on TCP; 1 304 B on both now.
			{260, 1576, "what a small TCP echo allocated before frames were lent"},
		} {
			req := &wire.Message{Type: wire.TRequest, Object: "ctx/obj-1", Method: "exchange", Body: make([]byte, c.body)}
			rand.New(rand.NewSource(1)).Read(req.Body)
			got := bytesPerRun(50, func() {
				reply, err := mux.Call(req)
				if err != nil || !bytes.Equal(reply.Body, req.Body) {
					t.Fatalf("%s echo of %d bytes: %v", fabric, c.body, err)
				}
			})
			if got > c.limit {
				t.Errorf("%s echo of %d bytes allocates %d bytes per call, want at most %d (%s)", fabric, c.body, got, c.limit, c.what)
			}
		}
	}
}

func TestSmallTCPEchoGainsNoAllocation(t *testing.T) {
	skipUnderRace(t)
	mux := echoServer(t, "tcp")
	req := &wire.Message{Type: wire.TRequest, Object: "ctx/obj-1", Method: "exchange", Body: make([]byte, 260)}
	// 11 before the server's read frame was lent.
	if n := testing.AllocsPerRun(200, func() {
		if _, err := mux.Call(req); err != nil {
			t.Fatal(err)
		}
	}); n > 14 {
		t.Fatalf("260 B TCP echo: %v allocs per call, want at most 14", n)
	}
}

// TestFrameAboveThePoolIsServed: a 5 MiB frame takes the gathered,
// unpooled path in both directions and still round-trips.
func TestFrameAboveThePoolIsServed(t *testing.T) {
	mux := echoServer(t, "shm")
	req := &wire.Message{Type: wire.TRequest, Object: "ctx/obj-1", Method: "exchange", Body: make([]byte, 5<<20)}
	rand.New(rand.NewSource(5)).Read(req.Body)
	for i := 0; i < 3; i++ {
		reply, err := mux.Call(req)
		if err != nil || !bytes.Equal(reply.Body, req.Body) {
			t.Fatalf("5 MiB echo %d: %v", i, err)
		}
	}
}

func TestReadLentAllocatesNoFrame(t *testing.T) {
	skipUnderRace(t)
	var frame bytes.Buffer
	if err := wire.Write(&frame, &wire.Message{Type: wire.TRequest, Object: "ctx/obj-1", Method: "exchange", Body: make([]byte, payload)}); err != nil {
		t.Fatal(err)
	}
	var r bytes.Reader
	if got := bytesPerRun(50, func() {
		r.Reset(frame.Bytes())
		m, err := wire.ReadLent(&r)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
		m.Release() // idempotent
	}); got > 1<<10 {
		t.Fatalf("ReadLent+Release of a %d-byte frame allocates %d bytes, want the message header only", frame.Len(), got)
	}
}

// bulkWorld is a server context hosting the typed exchange stub, and one
// encoded request of n bytes for it.
func bulkWorld(t *testing.T, n int) (*core.Context, *wire.Message) {
	t.Helper()
	b := testbed.New("pins", nil)
	t.Cleanup(b.Close)
	b.LAN("lan", "campus", netsim.ProfileUnshaped, "m")
	server := b.Context("server", "m").Echo("")
	if err := b.Build(); err != nil {
		t.Fatal(err)
	}
	body, err := xdr.Marshal(testbed.Ints(n / 4))
	if err != nil {
		t.Fatal(err)
	}
	return server.Ctx, &wire.Message{Type: wire.TRequest, Object: string(server.Servant.ID()), Method: "exchange", Body: body}
}

func TestTypedDispatchAllocatesNoPayload(t *testing.T) {
	skipUnderRace(t)
	ctx, req := bulkWorld(t, payload)
	got := bytesPerRun(50, func() {
		reply := ctx.Dispatch(req)
		if reply == nil || reply.Type != wire.TReply || !bytes.Equal(reply.Body, req.Body) {
			t.Fatalf("dispatch answered %+v", reply)
		}
		reply.Release()
	})
	// The decoded []int32 is lent until the reply is encoded, and the
	// reply buffer until Release. Before the decode was lent: 1.2 payloads.
	if got > payload/10 {
		t.Fatalf("typed dispatch + Release allocates %d bytes per %d-byte call, want under 0.1 payload (the request's array and the reply buffer are lent)", got, payload)
	}
}

// TestForgottenReleasesAreGarbage: a reply nobody releases, and a stub
// called outside dispatch so that nobody even claims its buffer, cost
// allocations and nothing else — no growth in live heap, no goroutine.
func TestForgottenReleasesAreGarbage(t *testing.T) {
	// Each call allocates 150 KB afresh, so a buffer pinned per call
	// would pass 2 MiB within twenty.
	calls := 10000
	if raceEnabled || testing.Short() {
		calls = 1000
	}
	ctx, req := bulkWorld(t, 64<<10)
	_, methods := testbed.ExchangeActivator()
	for name, call := range map[string]func(){
		"Dispatch, reply dropped": func() {
			if reply := ctx.Dispatch(req); reply == nil || len(reply.Body) != len(req.Body) {
				t.Fatalf("dispatch answered %+v", reply)
			}
		},
		"stub called directly": func() {
			if out, err := methods["exchange"](req.Body); err != nil || len(out) != len(req.Body) {
				t.Fatalf("stub: %d bytes, %v", len(out), err)
			}
		},
	} {
		call()
		goroutines := runtime.NumGoroutine()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			call()
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 2<<20 {
			t.Errorf("%s: live heap grew %d bytes over %d calls, want under 2 MiB", name, grown, calls)
		}
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Errorf("%s: %d goroutines, %d before", name, n, goroutines)
		}
	}
}
