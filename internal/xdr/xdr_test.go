package xdr

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestPutUint32Wire(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint32(0x01020304)
	want := []byte{1, 2, 3, 4}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("got % x want % x", e.Bytes(), want)
	}
}

func TestPutInt32Negative(t *testing.T) {
	e := NewEncoder(8)
	e.PutInt32(-1)
	want := []byte{0xff, 0xff, 0xff, 0xff}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("got % x want % x", e.Bytes(), want)
	}
	d := NewDecoder(e.Bytes())
	v, err := d.Int32()
	if err != nil || v != -1 {
		t.Fatalf("decode: %v %v", v, err)
	}
}

func TestPutUint64Wire(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint64(0x0102030405060708)
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("got % x want % x", e.Bytes(), want)
	}
}

func TestStringPadding(t *testing.T) {
	e := NewEncoder(16)
	e.PutString("abcde") // length 5 -> 3 pad bytes
	if e.Len() != 4+8 {
		t.Fatalf("encoded length %d, want 12", e.Len())
	}
	want := []byte{0, 0, 0, 5, 'a', 'b', 'c', 'd', 'e', 0, 0, 0}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("got % x want % x", e.Bytes(), want)
	}
	d := NewDecoder(e.Bytes())
	s, err := d.String()
	if err != nil || s != "abcde" {
		t.Fatalf("decode: %q %v", s, err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining %d", d.Remaining())
	}
}

func TestStringAlignedNoPad(t *testing.T) {
	e := NewEncoder(16)
	e.PutString("abcd")
	if e.Len() != 8 {
		t.Fatalf("encoded length %d, want 8", e.Len())
	}
}

func TestNonzeroPaddingRejected(t *testing.T) {
	buf := []byte{0, 0, 0, 1, 'x', 0, 0, 7}
	d := NewDecoder(buf)
	if _, err := d.String(); err != ErrPadding {
		t.Fatalf("err = %v, want ErrPadding", err)
	}
}

func TestBoolStrict(t *testing.T) {
	for _, v := range []uint32{0, 1} {
		e := NewEncoder(4)
		e.PutUint32(v)
		got, err := NewDecoder(e.Bytes()).Bool()
		if err != nil || got != (v == 1) {
			t.Fatalf("bool(%d) = %v, %v", v, got, err)
		}
	}
	e := NewEncoder(4)
	e.PutUint32(2)
	if _, err := NewDecoder(e.Bytes()).Bool(); err != ErrBool {
		t.Fatalf("want ErrBool, got %v", err)
	}
}

func TestShortBuffer(t *testing.T) {
	d := NewDecoder([]byte{0, 0})
	if _, err := d.Uint32(); err != ErrShortBuffer {
		t.Fatalf("want ErrShortBuffer, got %v", err)
	}
	d = NewDecoder([]byte{0, 0, 0, 9, 'a'})
	if _, err := d.Opaque(); err != ErrShortBuffer {
		t.Fatalf("want ErrShortBuffer, got %v", err)
	}
}

func TestLengthSanity(t *testing.T) {
	e := NewEncoder(4)
	e.PutUint32(maxDecodeLen + 1)
	if _, err := NewDecoder(e.Bytes()).Opaque(); err != ErrLength {
		t.Fatalf("want ErrLength, got %v", err)
	}
}

func TestFloats(t *testing.T) {
	vals := []float64{0, 1, -1, math.Pi, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	for _, v := range vals {
		e := NewEncoder(8)
		e.PutFloat64(v)
		got, err := NewDecoder(e.Bytes()).Float64()
		if err != nil || got != v {
			t.Fatalf("float64 %v -> %v, %v", v, got, err)
		}
	}
	e := NewEncoder(8)
	e.PutFloat64(math.NaN())
	got, err := NewDecoder(e.Bytes()).Float64()
	if err != nil || !math.IsNaN(got) {
		t.Fatalf("NaN roundtrip: %v %v", got, err)
	}
	e.Reset()
	e.PutFloat32(float32(math.Pi))
	g32, err := NewDecoder(e.Bytes()).Float32()
	if err != nil || g32 != float32(math.Pi) {
		t.Fatalf("float32: %v %v", g32, err)
	}
}

func TestOpaqueView(t *testing.T) {
	e := NewEncoder(16)
	e.PutOpaque([]byte{1, 2, 3})
	d := NewDecoder(e.Bytes())
	v, err := d.OpaqueView()
	if err != nil {
		t.Fatal(err)
	}
	if &v[0] != &e.Bytes()[4] {
		t.Fatal("OpaqueView must alias input")
	}
	if cap(v) != len(v) {
		t.Fatalf("view has cap %d beyond its %d bytes: an append would write over the pad and what follows", cap(v), len(v))
	}
}

func TestOptional(t *testing.T) {
	e := NewEncoder(16)
	e.PutOptional(true, func(e *Encoder) { e.PutUint32(42) })
	e.PutOptional(false, nil)
	d := NewDecoder(e.Bytes())
	var got uint32
	present, err := d.Optional(func(d *Decoder) error {
		v, err := d.Uint32()
		got = v
		return err
	})
	if err != nil || !present || got != 42 {
		t.Fatalf("optional present: %v %v %d", present, err, got)
	}
	present, err = d.Optional(nil)
	if err != nil || present {
		t.Fatalf("optional absent: %v %v", present, err)
	}
}

func TestEncoderReuse(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint32(7)
	e.Reset()
	if e.Len() != 0 {
		t.Fatal("reset did not clear")
	}
	e.PutUint32(9)
	v, err := NewDecoder(e.Bytes()).Uint32()
	if err != nil || v != 9 {
		t.Fatalf("after reuse: %d %v", v, err)
	}
}

type pair struct {
	A int32
	B string
}

func (p *pair) MarshalXDR(e *Encoder) error {
	e.PutInt32(p.A)
	e.PutString(p.B)
	return nil
}

func (p *pair) UnmarshalXDR(d *Decoder) error {
	var err error
	if p.A, err = d.Int32(); err != nil {
		return err
	}
	p.B, err = d.String()
	return err
}

func TestMarshalUnmarshal(t *testing.T) {
	in := &pair{A: -5, B: "hello"}
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out pair
	if err := Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != *in {
		t.Fatalf("got %+v want %+v", out, *in)
	}
	// Trailing garbage must be rejected.
	if err := Unmarshal(append(b, 0, 0, 0, 0), &out); err == nil {
		t.Fatal("want ErrTrailing")
	}
}

// Property: every scalar round-trips.
func TestQuickScalars(t *testing.T) {
	f := func(a uint32, b int32, c uint64, d int64, e32 float32, e64 float64, ok bool) bool {
		enc := NewEncoder(64)
		enc.PutUint32(a)
		enc.PutInt32(b)
		enc.PutUint64(c)
		enc.PutInt64(d)
		enc.PutFloat32(e32)
		enc.PutFloat64(e64)
		enc.PutBool(ok)
		dec := NewDecoder(enc.Bytes())
		ga, _ := dec.Uint32()
		gb, _ := dec.Int32()
		gc, _ := dec.Uint64()
		gd, _ := dec.Int64()
		ge32, _ := dec.Float32()
		ge64, _ := dec.Float64()
		gok, err := dec.Bool()
		if err != nil || dec.Remaining() != 0 {
			return false
		}
		f32ok := ge32 == e32 || (math.IsNaN(float64(e32)) && math.IsNaN(float64(ge32)))
		f64ok := ge64 == e64 || (math.IsNaN(e64) && math.IsNaN(ge64))
		return ga == a && gb == b && gc == c && gd == d && f32ok && f64ok && gok == ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: strings and opaque blobs round-trip with 4-byte alignment.
func TestQuickStringsOpaque(t *testing.T) {
	f := func(s string, p []byte) bool {
		enc := NewEncoder(64)
		enc.PutString(s)
		enc.PutOpaque(p)
		if enc.Len()%4 != 0 {
			return false
		}
		dec := NewDecoder(enc.Bytes())
		gs, err := dec.String()
		if err != nil {
			return false
		}
		gp, err := dec.Opaque()
		if err != nil {
			return false
		}
		return gs == s && bytes.Equal(gp, p) && dec.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: integer and float arrays round-trip.
func TestQuickArrays(t *testing.T) {
	f := func(is []int32, fs []float64, ss []string) bool {
		enc := NewEncoder(64)
		enc.PutInt32s(is)
		enc.PutFloat64s(fs)
		enc.PutStrings(ss)
		dec := NewDecoder(enc.Bytes())
		gis, err := dec.Int32s()
		if err != nil {
			return false
		}
		gfs, err := dec.Float64s()
		if err != nil {
			return false
		}
		gss, err := dec.Strings()
		if err != nil {
			return false
		}
		if len(gis) != len(is) || len(gfs) != len(fs) || len(gss) != len(ss) {
			return false
		}
		for i := range is {
			if gis[i] != is[i] {
				return false
			}
		}
		for i := range fs {
			if gfs[i] != fs[i] && !(math.IsNaN(fs[i]) && math.IsNaN(gfs[i])) {
				return false
			}
		}
		for i := range ss {
			if gss[i] != ss[i] {
				return false
			}
		}
		return dec.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: FixedOpaque round-trips and is self-aligned.
func TestQuickFixedOpaque(t *testing.T) {
	f := func(p []byte) bool {
		enc := NewEncoder(64)
		enc.PutFixedOpaque(p)
		if enc.Len() != len(p)+pad(len(p)) {
			return false
		}
		got, err := NewDecoder(enc.Bytes()).FixedOpaque(len(p))
		return err == nil && bytes.Equal(got, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics on arbitrary input.
func TestQuickDecoderRobust(t *testing.T) {
	f := func(p []byte) bool {
		d := NewDecoder(p)
		d.Uint32()
		d.String()
		d.Opaque()
		d.Int32s()
		d.Float64s()
		d.Strings()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIntHyper(t *testing.T) {
	e := NewEncoder(8)
	e.PutInt(-42)
	v, err := NewDecoder(e.Bytes()).Int()
	if err != nil || v != -42 {
		t.Fatalf("int: %d %v", v, err)
	}
}

func BenchmarkEncodeInt32s(b *testing.B) {
	v := make([]int32, 1<<16)
	e := NewEncoder(4 * len(v))
	b.SetBytes(int64(4 * len(v)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.PutInt32s(v)
	}
}

func BenchmarkDecodeInt32s(b *testing.B) {
	v := make([]int32, 1<<16)
	e := NewEncoder(4 * len(v))
	e.PutInt32s(v)
	b.SetBytes(int64(4 * len(v)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDecoder(e.Bytes()).Int32s(); err != nil {
			b.Fatal(err)
		}
	}
}

// Golden vectors: fixed byte encodings that must never change (the wire
// compatibility contract; values cross-checked against RFC 4506 rules).
func TestGoldenVectors(t *testing.T) {
	cases := []struct {
		name string
		enc  func(*Encoder)
		want string
	}{
		{"int32 -2", func(e *Encoder) { e.PutInt32(-2) }, "fffffffe"},
		{"uint32 259", func(e *Encoder) { e.PutUint32(259) }, "00000103"},
		{"hyper -1", func(e *Encoder) { e.PutInt64(-1) }, "ffffffffffffffff"},
		{"bool true", func(e *Encoder) { e.PutBool(true) }, "00000001"},
		{"float32 1.0", func(e *Encoder) { e.PutFloat32(1.0) }, "3f800000"},
		{"float64 -0.5", func(e *Encoder) { e.PutFloat64(-0.5) }, "bfe0000000000000"},
		{"string 'Hi'", func(e *Encoder) { e.PutString("Hi") }, "0000000248690000"},
		{"opaque 0xde,0xad", func(e *Encoder) { e.PutOpaque([]byte{0xde, 0xad}) }, "00000002dead0000"},
		{"fixed 3 bytes", func(e *Encoder) { e.PutFixedOpaque([]byte{1, 2, 3}) }, "01020300"},
		{"int32s [1,-1]", func(e *Encoder) { e.PutInt32s([]int32{1, -1}) }, "0000000200000001ffffffff"},
	}
	for _, c := range cases {
		e := NewEncoder(16)
		c.enc(e)
		got := fmt.Sprintf("%x", e.Bytes())
		if got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
