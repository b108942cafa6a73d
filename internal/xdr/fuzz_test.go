package xdr

import "testing"

// FuzzDecoder exercises every decoding primitive on arbitrary input; no
// input may panic or allocate unboundedly.
func FuzzDecoder(f *testing.F) {
	e := NewEncoder(64)
	e.PutString("seed")
	e.PutInt32s([]int32{1, -2, 3})
	e.PutOpaque([]byte{9})
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		d.Uint32()
		d.Int64()
		d.Bool()
		d.Float64()
		d.String()
		d.Opaque()
		d.OpaqueView()
		d.Int32s()
		d.Float64s()
		d.Strings()
		d.FixedOpaque(4)
		d.Optional(func(d *Decoder) error { _, err := d.Uint32(); return err })
	})
}
