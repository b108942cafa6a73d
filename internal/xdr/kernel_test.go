package xdr

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// refUint32 and refUint64 are the byte-at-a-time big-endian stores the
// array kernels used before they moved a word per store. They stay here
// as the reference the word-wide kernels must match bit for bit.
func refUint32(dst []byte, u uint32) []byte {
	return append(dst, byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

func refUint64(dst []byte, u uint64) []byte {
	return append(dst, byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

func refInt32s(v []int32) []byte {
	out := refUint32(nil, uint32(len(v)))
	for _, x := range v {
		out = refUint32(out, uint32(x))
	}
	return out
}

func refFloat64s(v []float64) []byte {
	out := refUint32(nil, uint32(len(v)))
	for _, x := range v {
		out = refUint64(out, math.Float64bits(x))
	}
	return out
}

// kernelLengths covers every remainder of any unrolling up to 64 wide,
// and the benchmark's bulk shape.
func kernelLengths() []int {
	var ls []int
	for n := 0; n <= 67; n++ {
		ls = append(ls, n)
	}
	return append(ls, 65536)
}

func TestInt32KernelMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	edges := []int32{math.MinInt32, -1, 0, 1, math.MaxInt32, 0x01020304, -0x01020304}
	for _, n := range kernelLengths() {
		v := make([]int32, n)
		for i := range v {
			v[i] = int32(rng.Uint32())
		}
		for i, x := range edges {
			if n > 0 {
				v[(i*7)%n] = x
			}
		}
		e := NewEncoder(0)
		e.PutInt32s(v)
		if !bytes.Equal(e.Bytes(), refInt32s(v)) {
			t.Fatalf("n=%d: PutInt32s differs from the byte-wise reference", n)
		}
		d := NewDecoder(e.Bytes())
		got, err := d.Int32s()
		if err != nil || d.Remaining() != 0 {
			t.Fatalf("n=%d: decode: %v, %d bytes left", n, err, d.Remaining())
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d elements", n, len(got))
		}
		for i := range v {
			if got[i] != v[i] {
				t.Fatalf("n=%d: element %d decoded as %d, want %d", n, i, got[i], v[i])
			}
		}
	}
}

func TestFloat64KernelMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	edges := []uint64{
		0x7ff8000000000001, // quiet NaN with a payload
		0x7ff0000000000001, // signalling NaN
		0xfff8000000000000, // negative NaN
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		0x8000000000000000, // -0
		0x0000000000000001, // smallest subnormal
		0x0102030405060708,
	}
	for _, n := range kernelLengths() {
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Float64frombits(rng.Uint64())
		}
		for i, x := range edges {
			if n > 0 {
				v[(i*5)%n] = math.Float64frombits(x)
			}
		}
		e := NewEncoder(0)
		e.PutFloat64s(v)
		if !bytes.Equal(e.Bytes(), refFloat64s(v)) {
			t.Fatalf("n=%d: PutFloat64s differs from the byte-wise reference", n)
		}
		d := NewDecoder(e.Bytes())
		got, err := d.Float64s()
		if err != nil || d.Remaining() != 0 {
			t.Fatalf("n=%d: decode: %v, %d bytes left", n, err, d.Remaining())
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d elements", n, len(got))
		}
		for i := range v {
			if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
				t.Fatalf("n=%d: element %d decoded as %#x, want %#x", n, i, math.Float64bits(got[i]), math.Float64bits(v[i]))
			}
		}
	}
}

// TestEncoderGrowthIsGeometric: a thousand small Puts from an empty
// encoder must move the buffer O(log n) times, and one large Put into a
// small encoder must allocate what it needs, not twice that.
func TestEncoderGrowthIsGeometric(t *testing.T) {
	e := NewEncoder(0)
	moves := 0
	var base *byte
	for i := 0; i < 1000; i++ {
		e.PutUint32(uint32(i))
		if b := unsafe.SliceData(e.Bytes()); b != base {
			base = b
			moves++
		}
	}
	if moves > 12 { // 4 -> 8 -> ... -> 4096 bytes is 11 moves
		t.Fatalf("1000 four-byte Puts moved the buffer %d times, want O(log n)", moves)
	}

	e = NewEncoder(64)
	e.PutUint32(1)
	e.PutFixedOpaque(make([]byte, 1<<20))
	if got, want := cap(e.Bytes()), 4+1<<20; got != want {
		t.Fatalf("a 1 MiB Put grew a 64-byte encoder to cap %d, want exactly %d", got, want)
	}
}

func TestSetBufAppendsInPlace(t *testing.T) {
	buf := append(make([]byte, 0, 16), 0xaa, 0xbb, 0xcc, 0xdd)
	var e Encoder
	e.SetBuf(buf)
	e.PutUint32(7)
	e.PutUint64(9)
	out := e.Bytes()
	if unsafe.SliceData(out) != unsafe.SliceData(buf) {
		t.Fatal("encoding within capacity moved the caller's buffer")
	}
	if want := []byte{0xaa, 0xbb, 0xcc, 0xdd, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 9}; !bytes.Equal(out, want) {
		t.Fatalf("got % x", out)
	}

	var d Decoder
	d.Reset(out[4:])
	if v, err := d.Uint32(); err != nil || v != 7 {
		t.Fatalf("Uint32 after Reset: %d %v", v, err)
	}
	d.Reset(out[8:])
	if v, err := d.Uint64(); err != nil || v != 9 || d.Remaining() != 0 {
		t.Fatalf("Uint64 after second Reset: %d %v, %d left", v, err, d.Remaining())
	}
}
