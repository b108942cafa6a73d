package core

import (
	"runtime"
	"testing"

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
// left: the client's request header, reply header and reply frame; the
// server's read header, reply header and the stub's Req value. Before the
// mux kept one deadline timer and recycled its exchanges, and the server
// dispatched on per-connection workers through pooled stub codecs, the
// same call cost 14.
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
			call := func() {
				if out, err := gp.Invoke("exchange", args); err != nil || len(out) != len(args) {
					t.Fatalf("%d bytes, %v", len(out), err)
				}
			}
			for i := 0; i < 200; i++ {
				call()
			}
			const pin = 6
			if got := testing.AllocsPerRun(2000, call); got > pin {
				t.Fatalf("%.2f allocations per typed call over %s, pinned at %d", got, proto, pin)
			}
		})
	}
}
