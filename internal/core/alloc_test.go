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
