package xdr

import (
	"bytes"
	"math"
	"testing"
	"unsafe"
)

// countLends counts the buffers getBuf hands out and putBuf takes back
// until the test ends.
func countLends(t testing.TB) (gets, puts *int) {
	get, put := getBuf, putBuf
	gets, puts = new(int), new(int)
	getBuf = func(n int) []byte { *gets++; return get(n) }
	putBuf = func(b []byte) {
		if b != nil {
			*puts++
		}
		put(b)
	}
	t.Cleanup(func() { getBuf, putBuf = get, put })
	return gets, puts
}

// asBytes views an array's elements as the bytes they occupy, so floats
// compare bit for bit (NaN included).
func asBytes[T int32 | float64](v []T) []byte {
	return unsafe.Slice((*byte)(ptr(v)), len(v)*int(unsafe.Sizeof(T(0))))
}

// TestLentDecodeAllocs: a lending decode allocates nothing of its own —
// the array comes from the pool and its record is inline — where an owned
// one allocates the slice it returns; the fifth array of one lending
// decode is allocated like an owned one.
func TestLentDecodeAllocs(t *testing.T) {
	// 64 KiB arrays: classes this large are kept across collections, so
	// the counts hold under the race detector as well.
	var ie, fe Encoder
	ie.PutInt32s(make([]int32, 16<<10))
	fe.PutFloat64s(make([]float64, 8<<10))
	five := bytes.Repeat(ie.Bytes(), 5)
	i32 := func(d *Decoder) error { _, err := d.Int32s(); return err }
	f64 := func(d *Decoder) error { _, err := d.Float64s(); return err }
	for _, c := range []struct {
		what string
		lend bool
		in   []byte
		get  func(*Decoder) error
		want float64
	}{
		{"owned Int32s", false, ie.Bytes(), i32, 1},
		{"lent Int32s", true, ie.Bytes(), i32, 0},
		{"owned Float64s", false, fe.Bytes(), f64, 1},
		{"lent Float64s", true, fe.Bytes(), f64, 0},
		{"five lent Int32s", true, five, i32, 1},
	} {
		var d Decoder
		d.lend = c.lend
		if n := testing.AllocsPerRun(100, func() {
			for d.Reset(c.in); d.Remaining() > 0; {
				if err := c.get(&d); err != nil {
					t.Fatal(err)
				}
			}
			d.Release()
		}); n != c.want {
			t.Errorf("%s: %v allocations, want %v", c.what, n, c.want)
		}
	}
}

// TestLentArraysAreReleasedOnce: Release hands back every lent array
// exactly once, Unmarshal never lends, and a released decoder lends again.
func TestLentArraysAreReleasedOnce(t *testing.T) {
	gets, puts := countLends(t)
	var e Encoder
	for i := 0; i < 6; i++ {
		e.PutInt32s([]int32{int32(i), 2, 3})
	}
	var d Decoder
	d.Lend()
	for round := 0; round < 2; round++ {
		d.Reset(e.Bytes())
		for i := 0; i < 6; i++ {
			if v, err := d.Int32s(); err != nil || v[0] != int32(i) {
				t.Fatalf("array %d: %v, %v", i, v, err)
			}
		}
		d.Release()
		d.Release()
		if *gets != 4*(round+1) || *puts != *gets {
			t.Fatalf("round %d: %d gets, %d puts, want 4 each per round", round, *gets, *puts)
		}
	}
	var s ints
	if err := Unmarshal(e.Bytes()[:16], &s); err != nil || *gets != 8 {
		t.Fatalf("Unmarshal: %v, %d gets (lent where it must not)", err, *gets-8)
	}
}

type ints struct{ V []int32 }

func (s *ints) UnmarshalXDR(d *Decoder) (err error) { s.V, err = d.Int32s(); return err }

// FuzzLentDecode is differential: on arbitrary bytes, a lending and an
// owning decoder read the same Int32s/Float64s sequence (ops picks which,
// six deep, so the fifth and sixth arrays fall back to make) value for
// value or fail alike; every array lent is 8-byte aligned, and after
// Release every buffer taken has been put back.
func FuzzLentDecode(f *testing.F) {
	var e Encoder
	e.PutInt32s([]int32{1, -2, 3, math.MinInt32, 5, 6, 7, 8, 9})
	e.PutFloat64s([]float64{math.Inf(-1), math.NaN(), math.Copysign(0, -1), 1})
	e.PutInt32s(nil)
	f.Add(e.Bytes(), uint8(0b10))
	f.Add(refInt32s(make([]int32, 100)), uint8(0))
	f.Add([]byte{0, 0, 0, 9, 1, 2}, uint8(1))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 6), uint8(0b101010))
	f.Fuzz(func(t *testing.T, data []byte, ops uint8) {
		gets, puts := countLends(t)
		var owned, lent Decoder
		owned.Reset(data)
		lent.Reset(data)
		lent.Lend()
		for i := 0; i < 6; i++ {
			var x, y []byte
			var errX, errY error
			var at unsafe.Pointer
			lends := *gets
			if ops>>i&1 == 0 {
				a, err := owned.Int32s()
				b, errb := lent.Int32s()
				x, y, errX, errY, at = asBytes(a), asBytes(b), err, errb, ptr(b)
			} else {
				a, err := owned.Float64s()
				b, errb := lent.Float64s()
				x, y, errX, errY, at = asBytes(a), asBytes(b), err, errb, ptr(b)
			}
			if errX != errY || !bytes.Equal(x, y) {
				t.Fatalf("array %d: owned (%d bytes, %v) and lent (%d bytes, %v) disagree", i, len(x), errX, len(y), errY)
			}
			if *gets > lends && uintptr(at)%8 != 0 {
				t.Fatalf("array %d: lent at %p, not 8-byte aligned", i, at)
			}
			if errX != nil {
				break
			}
		}
		if owned.Remaining() != lent.Remaining() {
			t.Fatalf("owned left %d bytes, lent %d", owned.Remaining(), lent.Remaining())
		}
		lent.Release()
		if *gets > 4 || *gets != *puts {
			t.Fatalf("%d gets, %d puts: want at most 4, all put back", *gets, *puts)
		}
	})
}
