package xdr

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

type inner struct {
	Tag   string
	Count uint32
}

type outer struct {
	Name     string
	ID       int32
	Big      int64
	Ratio    float64
	OK       bool
	Blob     []byte
	Scores   []float64
	Fixed    [3]int32
	Nested   inner
	MaybeOne *inner
	MaybeNil *inner
	Labels   map[string]int32
	hidden   int    // unexported: skipped
	Skipped  string `xdr:"-"`
}

func sampleOuter() *outer {
	return &outer{
		Name:     "widget",
		ID:       -7,
		Big:      1 << 40,
		Ratio:    3.5,
		OK:       true,
		Blob:     []byte{1, 2, 3},
		Scores:   []float64{0.5, -1.25},
		Fixed:    [3]int32{9, 8, 7},
		Nested:   inner{Tag: "in", Count: 4},
		MaybeOne: &inner{Tag: "opt", Count: 1},
		Labels:   map[string]int32{"b": 2, "a": 1},
		hidden:   99,
		Skipped:  "never",
	}
}

func TestReflectRoundTrip(t *testing.T) {
	in := sampleOuter()
	b, err := MarshalAny(in)
	if err != nil {
		t.Fatal(err)
	}
	var out outer
	if err := UnmarshalAny(b, &out); err != nil {
		t.Fatal(err)
	}
	// hidden and Skipped must not travel.
	if out.hidden != 0 || out.Skipped != "" {
		t.Fatalf("excluded fields decoded: %+v", out)
	}
	out.hidden = in.hidden
	out.Skipped = in.Skipped
	if !reflect.DeepEqual(&out, in) {
		t.Fatalf("got %+v want %+v", out, *in)
	}
}

func TestReflectDeterministicMaps(t *testing.T) {
	v := map[string]int32{"z": 1, "a": 2, "m": 3}
	b1, err := MarshalAny(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b2, err := MarshalAny(map[string]int32{"m": 3, "z": 1, "a": 2})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatal("map encoding not deterministic")
		}
	}
}

func TestReflectNilPointerOptional(t *testing.T) {
	var p *inner
	b, err := MarshalAny(struct{ P *inner }{p})
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ P *inner }
	if err := UnmarshalAny(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.P != nil {
		t.Fatal("nil pointer decoded as present")
	}
}

func TestReflectInteropWithHandwritten(t *testing.T) {
	// A type with MarshalXDR uses its own codec even via reflection.
	p := &pair{A: 5, B: "five"}
	viaReflect, err := MarshalAny(p)
	if err != nil {
		t.Fatal(err)
	}
	viaMethod, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaReflect, viaMethod) {
		t.Fatalf("reflect %x vs method %x", viaReflect, viaMethod)
	}
	var out pair
	if err := UnmarshalAny(viaReflect, &out); err != nil {
		t.Fatal(err)
	}
	if out != *p {
		t.Fatalf("%+v", out)
	}
}

func TestReflectUnsupported(t *testing.T) {
	if _, err := MarshalAny(make(chan int)); err == nil {
		t.Fatal("chan accepted")
	}
	if _, err := MarshalAny(map[int]string{1: "x"}); err == nil {
		t.Fatal("int-keyed map accepted")
	}
	var s string
	if err := UnmarshalAny(nil, s); err == nil {
		t.Fatal("non-pointer accepted")
	}
	var f func()
	if err := UnmarshalAny([]byte{0, 0, 0, 0}, &f); err == nil {
		t.Fatal("func accepted")
	}
}

func TestReflectTrailingRejected(t *testing.T) {
	b, _ := MarshalAny(int32(5))
	var v int32
	if err := UnmarshalAny(append(b, 0, 0, 0, 0), &v); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestReflectScalarWidths(t *testing.T) {
	// int32/uint32 use 4 bytes; other ints use 8.
	b, _ := MarshalAny(int32(1))
	if len(b) != 4 {
		t.Fatalf("int32 encoded in %d bytes", len(b))
	}
	b, _ = MarshalAny(int64(1))
	if len(b) != 8 {
		t.Fatalf("int64 encoded in %d bytes", len(b))
	}
	b, _ = MarshalAny(uint8(1))
	if len(b) != 8 {
		t.Fatalf("uint8 encoded in %d bytes (hyper rule)", len(b))
	}
	// Overflow detection on decode into narrow types.
	big, _ := MarshalAny(int64(1 << 40))
	var small int8
	if err := UnmarshalAny(big, &small); err == nil {
		t.Fatal("overflow accepted")
	}
}

// Property: generated structs round-trip through the reflective codec.
func TestQuickReflectRoundTrip(t *testing.T) {
	type generated struct {
		A int32
		B uint64
		C string
		D []byte
		E []int32
		F bool
		G float64
		H map[string]string
	}
	f := func(in generated) bool {
		b, err := MarshalAny(&in)
		if err != nil {
			return false
		}
		var out generated
		if err := UnmarshalAny(b, &out); err != nil {
			return false
		}
		// Empty slices/maps may decode as empty-but-non-nil; normalize.
		if len(in.D) == 0 {
			in.D = nil
		}
		if len(out.D) == 0 {
			out.D = nil
		}
		if len(in.E) == 0 {
			in.E = nil
		}
		if len(out.E) == 0 {
			out.E = nil
		}
		if len(in.H) == 0 {
			in.H = nil
		}
		if len(out.H) == 0 {
			out.H = nil
		}
		return reflect.DeepEqual(in, out) ||
			(in.G != in.G && out.G != out.G) // NaN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReflectMarshal(b *testing.B) {
	v := sampleOuter()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MarshalAny(v); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReflectMapLengthIsNotASizeHint: a map's wire length is hostile
// until its entries arrive, so a 2^27-entry claim over 8 bytes of input
// must fail without reserving room for 2^27 entries.
func TestReflectMapLengthIsNotASizeHint(t *testing.T) {
	var e Encoder
	e.PutUint32(1 << 27)
	e.PutString("k")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var m map[string]int32
	if err := UnmarshalAny(e.Bytes(), &m); err == nil {
		t.Fatal("a map claiming 2^27 entries over 8 bytes decoded")
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("a failed 8-byte map decode allocated %d bytes", n)
	}
}
