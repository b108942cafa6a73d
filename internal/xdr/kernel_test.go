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

// refBE reads b most significant byte first.
func refBE(b []byte) (u uint64) {
	for _, x := range b {
		u = u<<8 | uint64(x)
	}
	return u
}

// arrayCodec is one fixed-width array type under test: its Encoder and
// Decoder methods (the kernel this GOARCH builds), its portable loops,
// and the byte-wise reference both must match.
type arrayCodec[T any] struct {
	size           int
	put            func(*Encoder, []T)
	get            func(*Decoder) ([]T, error)
	encodePortable func([]byte, []T)
	decodePortable func([]T, []byte)
	ref            func([]T) []byte
	bits           func(T) uint64
	fromBits       func(uint64) T
}

var (
	int32Codec = arrayCodec[int32]{4, (*Encoder).PutInt32s, (*Decoder).Int32s,
		encodeInt32sPortable, decodeInt32sPortable, refInt32s,
		func(x int32) uint64 { return uint64(uint32(x)) }, func(u uint64) int32 { return int32(u) }}
	float64Codec = arrayCodec[float64]{8, (*Encoder).PutFloat64s, (*Decoder).Float64s,
		encodeFloat64sPortable, decodeFloat64sPortable, refFloat64s,
		math.Float64bits, math.Float64frombits}
)

// refDecode is the byte-wise reference decoder: the length prefix, the
// decoder's sanity limit, then one element at a time.
func (c arrayCodec[T]) refDecode(in []byte) ([]T, error) {
	if len(in) < 4 {
		return nil, ErrShortBuffer
	}
	n := refBE(in[:4])
	if n > maxDecodeLen {
		return nil, ErrLength
	}
	if uint64(len(in)-4) < n*uint64(c.size) {
		return nil, ErrShortBuffer
	}
	out := make([]T, n)
	for i := range out {
		out[i] = c.fromBits(refBE(in[4+i*c.size : 4+(i+1)*c.size]))
	}
	return out, nil
}

// mismatch is the first index where got and want differ bit-wise (so NaN
// payloads and -0 count), or -1.
func (c arrayCodec[T]) mismatch(got, want []T) int {
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	for i := range got {
		if c.bits(got[i]) != c.bits(want[i]) {
			return i
		}
	}
	return -1
}

// aligned8 returns n zero bytes that start on an 8-byte boundary.
func aligned8(n int) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(make([]uint64, n/8+1)))), n)
}

// checkKernel holds both the kernel and the portable loops to the
// byte-wise reference for v, with the bytes at every alignment: the
// encoder appends after 0..7 bytes of prior content and the decoder reads
// from 0..7 bytes into an 8-aligned buffer.
func checkKernel[T any](t *testing.T, c arrayCodec[T], v []T) {
	t.Helper()
	n := len(v)
	want := c.ref(v)
	for k := 0; k < 8; k++ {
		prior := bytes.Repeat([]byte{0xa5}, k)
		var e Encoder
		e.SetBuf(append(aligned8(k + len(want))[:0], prior...))
		c.put(&e, v)
		if out := e.Bytes(); !bytes.Equal(out[:k], prior) || !bytes.Equal(out[k:], want) {
			t.Fatalf("n=%d after %d bytes: encoding differs from the byte-wise reference", n, k)
		}
		dst := aligned8(k + len(want) - 4)[k:]
		c.encodePortable(dst, v)
		if !bytes.Equal(dst, want[4:]) {
			t.Fatalf("n=%d at offset %d: portable encoding differs from the byte-wise reference", n, k)
		}

		in := aligned8(k + len(want))[k:]
		copy(in, want)
		var d Decoder
		d.Reset(in)
		got, err := c.get(&d)
		if err != nil || d.Remaining() != 0 {
			t.Fatalf("n=%d at offset %d: decode: %v, %d bytes left", n, k, err, d.Remaining())
		}
		if i := c.mismatch(got, v); i >= 0 {
			t.Fatalf("n=%d at offset %d: element %d decoded wrong", n, k, i)
		}
		out := make([]T, n)
		c.decodePortable(out, in[4:])
		if i := c.mismatch(out, v); i >= 0 {
			t.Fatalf("n=%d at offset %d: portable decode got element %d wrong", n, k, i)
		}
		for i := range in {
			in[i] = ^in[i]
		}
		if i := c.mismatch(got, v); i >= 0 {
			t.Fatalf("n=%d at offset %d: element %d changed with the input: the decoded slice aliases it", n, k, i)
		}
	}
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
		// One element of headroom: the array is also encoded from 4 bytes
		// past an 8-byte boundary.
		v := make([]int32, n+1)
		for i := range v {
			v[i] = int32(rng.Uint32())
		}
		for i, x := range edges {
			v[(i*7)%len(v)] = x
		}
		checkKernel(t, int32Codec, v[:n])
		checkKernel(t, int32Codec, v[1:])
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
		checkKernel(t, float64Codec, v)
	}
}

// TestArrayCodecAllocs: encoding an array into a buffer with room
// allocates nothing, and decoding allocates exactly the slice it returns
// (DESIGN decision 21: the caller owns it).
func TestArrayCodecAllocs(t *testing.T) {
	ints, floats := make([]int32, 1024), make([]float64, 1024)
	ie, fe := NewEncoder(4+4*len(ints)), NewEncoder(4+8*len(floats))
	if n := testing.AllocsPerRun(100, func() { ie.Reset(); ie.PutInt32s(ints) }); n != 0 {
		t.Errorf("PutInt32s: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { fe.Reset(); fe.PutFloat64s(floats) }); n != 0 {
		t.Errorf("PutFloat64s: %v allocations, want 0", n)
	}
	var d Decoder
	if n := testing.AllocsPerRun(100, func() { d.Reset(ie.Bytes()); d.Int32s() }); n != 1 {
		t.Errorf("Int32s: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.Reset(fe.Bytes()); d.Float64s() }); n != 1 {
		t.Errorf("Float64s: %v allocations, want 1", n)
	}
}

// FuzzArrayKernels is differential: arbitrary bytes, starting at an
// arbitrary offset into an 8-aligned buffer, decode alike by the kernel,
// by the portable loop and by the byte-wise reference — the same elements
// or the same error — and what decoded re-encodes to exactly the bytes it
// was decoded from.
func FuzzArrayKernels(f *testing.F) {
	f.Add(refInt32s([]int32{1, -2, 3, math.MinInt32, 5, 6, 7, 8, 9}), uint8(3))
	f.Add(refFloat64s([]float64{math.Inf(-1), math.NaN(), math.Copysign(0, -1), 1, 2}), uint8(5))
	f.Add([]byte{0, 0, 0, 9, 1, 2}, uint8(0))
	f.Add([]byte{0x10, 0, 0, 1}, uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		k := int(off % 8)
		in := aligned8(k + len(data))[k:]
		copy(in, data)
		fuzzArray(t, int32Codec, in)
		fuzzArray(t, float64Codec, in)
	})
}

func fuzzArray[T any](t *testing.T, c arrayCodec[T], in []byte) {
	var d Decoder
	d.Reset(in)
	got, err := c.get(&d)
	want, wantErr := c.refDecode(in)
	if err != wantErr {
		t.Fatalf("%d-byte elements: kernel says %v, reference says %v", c.size, err, wantErr)
	}
	if err != nil {
		return
	}
	if i := c.mismatch(got, want); i >= 0 {
		t.Fatalf("%d-byte elements: element %d differs from the reference", c.size, i)
	}
	used := in[:len(in)-d.Remaining()]
	out := make([]T, len(got))
	c.decodePortable(out, used[4:])
	if i := c.mismatch(out, want); i >= 0 {
		t.Fatalf("%d-byte elements: portable loop got element %d wrong", c.size, i)
	}
	var e Encoder
	c.put(&e, got)
	if !bytes.Equal(e.Bytes(), used) {
		t.Fatalf("%d-byte elements: re-encoding does not reproduce the input", c.size)
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
