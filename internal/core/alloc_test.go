package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"openhpcxx/internal/bufpool"
	"openhpcxx/internal/future"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/xdr"
)

// TestMarshalBulkArrayAllocatesItsEncoding pins the servant-side cost of
// the bandwidth experiment's reply: marshaling 65 536 int32 allocates
// the encoding once. The 64-byte starting buffer overflows on the array,
// and the encoder must then grow to what the array needs, not to twice
// that.
func TestMarshalBulkArrayAllocatesItsEncoding(t *testing.T) {
	v := &Int32Slice{V: make([]int32, 65536)}
	out, err := xdr.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4+4*len(v.V) {
		t.Fatalf("encoded length %d", len(out))
	}
	if cap(out) > len(out)+len(out)/100 {
		t.Fatalf("encoding of %d bytes sits in a buffer of %d", len(out), cap(out))
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := xdr.Marshal(v); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// 1.01 x the encoding, plus the one page the runtime may round a
	// large object up by.
	limit := uint64(len(out)+len(out)/100) + 8<<10
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > limit {
		t.Fatalf("xdr.Marshal allocated %d bytes for a %d-byte encoding, want at most %d", got, len(out), limit)
	}
}

// TestTypedEchoAllocs pins the steady-state allocations of one
// synchronous call of a typed echo servant taking 64 ints, the shape of
// the small benchmark workloads, over real TCP and over shm. The count
// is process-wide, so the server's goroutines are in it too. What is
// left: the client's reply frame, which the caller keeps, and the stub's
// Req value. Every header — the client's request and reply, the server's
// request and reply — comes from a pool and goes back once the call is done
// with it.
// Before that the same call cost 6, and before the mux kept one deadline
// timer and recycled its exchanges, and the server dispatched on
// per-connection workers through pooled stub codecs, 14. The same call
// bound by a deadline is pinned too, synchronous and asynchronous.
func TestTypedEchoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	for _, proto := range []ProtoID{ProtoStream, ProtoSHM} {
		t.Run(string(proto), func(t *testing.T) {
			_, rt := testWorld(t)
			server, _ := rt.NewContext("server", "mA")
			client, _ := rt.NewContext("client", "mA")
			var bind func() error
			var entry func() (ProtoEntry, error)
			if proto == ProtoStream {
				bind = func() error { return server.BindTCP("127.0.0.1:0") }
				entry = server.EntryStream
			} else {
				bind, entry = server.BindSHM, server.EntrySHM
			}
			if err := bind(); err != nil {
				t.Skipf("no %s binding: %v", proto, err)
			}
			s, err := server.Export("Echo", nil, map[string]Method{
				"exchange": Handler(func(in *Int32Slice) (*Int32Slice, error) { return in, nil }),
			})
			if err != nil {
				t.Fatal(err)
			}
			e, err := entry()
			if err != nil {
				t.Fatal(err)
			}
			gp := client.NewGlobalPtr(server.NewRef(s, e))
			v := make([]int32, 64)
			for i := range v {
				v[i] = int32(i)
			}
			args, err := xdr.Marshal(&Int32Slice{V: v})
			if err != nil {
				t.Fatal(err)
			}
			// A context that can end sends a synchronous call through
			// Begin and a select, and gives an asynchronous one the watch
			// that abandons its exchange.
			ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
			defer cancel()
			for _, c := range []struct {
				name string
				pin  float64
				call func() ([]byte, error)
			}{
				{"Invoke", 2, func() ([]byte, error) { return gp.Invoke("exchange", args) }},
				{"InvokeCtx", 4, func() ([]byte, error) { return gp.InvokeCtx(ctx, "exchange", args) }},
				{"InvokeAsyncCtx", 9, func() ([]byte, error) { return gp.InvokeAsyncCtx(ctx, "exchange", args).Wait() }},
			} {
				call := func() {
					if out, err := c.call(); err != nil || len(out) != len(args) {
						t.Fatalf("%s: %d bytes, %v", c.name, len(out), err)
					}
				}
				for i := 0; i < 200; i++ {
					call()
				}
				if got := testing.AllocsPerRun(2000, call); got > c.pin {
					t.Errorf("%.2f allocations per typed %s over %s, pinned at %v", got, c.name, proto, c.pin)
				}
			}
		})
	}
}

// TestBatchedEchoAllocs pins the steady-state allocations of one
// asynchronous call of the typed 64-int echo with batching on over real
// TCP, 64 calls in flight: the shape of the batched benchmark workload.
// The count is process-wide, server included. An asynchronous call pays
// for its invocation record (which carries the future), its continuation
// and the channel of a Wait that finds it unresolved; its cells, queue
// slot and decoded sub-messages come from allocations its batch shares,
// and its request and reply headers from the pool. Before that, the same
// call cost 6.0, and before its record was one allocation, 11.2.
func TestBatchedEchoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	_, rt := testWorld(t)
	server, _ := rt.NewContext("server", "mA")
	client, _ := rt.NewContext("client", "mA")
	if err := server.BindTCP("127.0.0.1:0"); err != nil {
		t.Skipf("no TCP binding: %v", err)
	}
	s, err := server.Export("Echo", nil, map[string]Method{
		"exchange": Handler(func(in *Int32Slice) (*Int32Slice, error) { return in, nil }),
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := server.EntryStream()
	if err != nil {
		t.Fatal(err)
	}
	const window = 64
	gp := client.NewGlobalPtr(server.NewRef(s, e))
	gp.SetMaxInFlight(window)
	policy := transport.DefaultBatchPolicy()
	gp.SetBatchPolicy(&policy)
	v := make([]int32, 64)
	for i := range v {
		v[i] = int32(i)
	}
	args, err := xdr.Marshal(&Int32Slice{V: v})
	if err != nil {
		t.Fatal(err)
	}
	var futs [window]*future.Future
	for i := range futs {
		futs[i] = gp.InvokeAsync("exchange", args)
	}
	next := 0
	call := func() {
		if out, err := futs[next].Wait(); err != nil || len(out) != len(args) {
			t.Fatalf("%d bytes, %v", len(out), err)
		}
		futs[next] = gp.InvokeAsync("exchange", args)
		next = (next + 1) % window
	}
	for i := 0; i < 2000; i++ {
		call()
	}
	const pin = 3.5
	if got := testing.AllocsPerRun(20000, call); got > pin {
		t.Fatalf("%.2f allocations per batched asynchronous call over TCP, pinned at %v", got, pin)
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFreshHandlerLendsItsFirstReply: a migrated typed servant is a new
// Handler with no reply size yet, so its first reply is sized like its
// request. Echoing 64 Ki ints, that call takes its buffers from the pool
// and allocates under 1 KiB, and the reply is lent: before this, the
// reply grew from 64 bytes to 256 KiB and left as garbage.
func TestFreshHandlerLendsItsFirstReply(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	args, err := xdr.Marshal(&Int32Slice{V: make([]int32, 64<<10)})
	if err != nil {
		t.Fatal(err)
	}
	echo := func() Method { return Handler(func(in *Int32Slice) (*Int32Slice, error) { return in, nil }) }
	call := func(m Method) (lent bool) {
		out, err := m(args)
		if err != nil || len(out) != len(args) {
			t.Fatalf("%d bytes, %v", len(out), err)
		}
		if lent = claimReply(out); lent {
			bufpool.Put(out) // as dispatch does once the reply is written
		}
		return lent
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 4; i++ {
		call(echo())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lent := call(echo())
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<10 {
		t.Errorf("a fresh Handler's first 64 Ki-int echo allocated %d bytes, want under 1 KiB", got)
	}
	if !lent {
		t.Error("a fresh Handler's first reply was not lent")
	}
}
