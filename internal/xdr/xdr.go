// Package xdr implements the subset of the XDR external data
// representation (RFC 4506) used by the Open HPC++ wire protocol.
//
// The original Open HPC++ system used Sun RPC's XDR for data encoding in
// its TCP protocol objects. This package reimplements that discipline
// from scratch: all items occupy a multiple of four bytes, multi-byte
// quantities are big-endian, and variable-length data is length-prefixed
// and zero-padded to a four-byte boundary.
//
// Encoder and Decoder operate over an internal byte buffer to avoid
// per-item interface calls; Bytes/Reset allow buffer reuse so steady-state
// encoding performs no allocation beyond buffer growth, and the zero
// value of either is ready to use (SetBuf, Decoder.Reset), so a caller
// that keeps one on its stack allocates nothing for it.
//
// Decoding copies where the result has its own type — String, Int32s,
// Float64s, Opaque and FixedOpaque return fresh memory the caller owns
// outright, except that a lending decoder's Int32s and Float64s (Lend) are
// valid only until Release — and aliases only where the name says so:
// OpaqueView returns a slice of the decoder's input, valid while it is.
package xdr

import (
	"encoding/binary"
	"errors"
	"math"
	"unsafe"

	"openhpcxx/internal/bufpool"
	"openhpcxx/internal/errs"
)

// Maximum variable-length element count accepted by the decoder. Guards
// against corrupt or hostile length prefixes allocating unbounded memory.
const maxDecodeLen = 1 << 28

var (
	// ErrShortBuffer is returned when the decoder runs out of input.
	ErrShortBuffer = errors.New("xdr: short buffer")
	// ErrLength is returned when a length prefix is negative or exceeds
	// the decoder's sanity limit.
	ErrLength = errors.New("xdr: invalid length")
	// ErrPadding is returned when pad bytes are not zero.
	ErrPadding = errors.New("xdr: nonzero padding")
	// ErrBool is returned when a boolean is neither 0 nor 1.
	ErrBool = errors.New("xdr: invalid bool")
	// ErrTrailing is returned by Unmarshal and DecodeFull when input
	// remains after the value has been decoded.
	ErrTrailing = errors.New("xdr: trailing bytes")
)

// Marshaler is implemented by types that can append themselves to an
// Encoder.
type Marshaler interface {
	MarshalXDR(e *Encoder) error
}

// Unmarshaler is implemented by types that can read themselves from a
// Decoder.
type Unmarshaler interface {
	UnmarshalXDR(d *Decoder) error
}

func pad(n int) int { return (4 - n&3) & 3 }

// Encoder appends XDR-encoded values to a growable buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer. The slice is valid until the next
// call to Reset or an encoding method.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the buffer contents, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// SetBuf makes the encoder append to buf, after whatever buf already
// holds. A caller that knows the encoded size hands over a buffer of
// that capacity and gets it back, unmoved, from Bytes.
func (e *Encoder) SetBuf(buf []byte) { e.buf = buf }

// grow extends the buffer by n bytes and returns them. A buffer that
// must move grows to max(need, 2*len): geometric, so a run of small
// Puts reallocates O(log n) times, yet one large Put allocates exactly
// what it needs rather than twice that.
func (e *Encoder) grow(n int) []byte {
	l := len(e.buf)
	if l+n <= cap(e.buf) {
		e.buf = e.buf[:l+n]
	} else {
		nb := make([]byte, l+n, max(l+n, 2*l))
		copy(nb, e.buf)
		e.buf = nb
	}
	return e.buf[l : l+n]
}

// PutUint32 encodes a 32-bit unsigned integer.
func (e *Encoder) PutUint32(v uint32) {
	binary.BigEndian.PutUint32(e.grow(4), v)
}

// PutInt32 encodes a 32-bit signed integer.
func (e *Encoder) PutInt32(v int32) { e.PutUint32(uint32(v)) }

// PutUint64 encodes an XDR unsigned hyper.
func (e *Encoder) PutUint64(v uint64) {
	binary.BigEndian.PutUint64(e.grow(8), v)
}

// PutInt64 encodes an XDR hyper.
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutInt encodes a Go int as an XDR hyper.
func (e *Encoder) PutInt(v int) { e.PutInt64(int64(v)) }

// PutBool encodes a boolean as an XDR enum (0 or 1).
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutUint32(1)
	} else {
		e.PutUint32(0)
	}
}

// PutFloat32 encodes an IEEE-754 single-precision float.
func (e *Encoder) PutFloat32(v float32) { e.PutUint32(math.Float32bits(v)) }

// PutFloat64 encodes an IEEE-754 double-precision float.
func (e *Encoder) PutFloat64(v float64) { e.PutUint64(math.Float64bits(v)) }

// PutFixedOpaque encodes opaque data of known length (no length prefix).
func (e *Encoder) PutFixedOpaque(p []byte) {
	b := e.grow(len(p) + pad(len(p)))
	n := copy(b, p)
	for i := n; i < len(b); i++ {
		b[i] = 0
	}
}

// PutOpaque encodes variable-length opaque data (length prefixed).
func (e *Encoder) PutOpaque(p []byte) {
	e.PutUint32(uint32(len(p)))
	e.PutFixedOpaque(p)
}

// PutString encodes a string.
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	b := e.grow(len(s) + pad(len(s)))
	n := copy(b, s)
	for i := n; i < len(b); i++ {
		b[i] = 0
	}
}

// PutInt32s encodes a variable-length array of 32-bit integers. This is
// the fast path used by the paper's bandwidth experiment, which exchanges
// arrays of integers between client and server.
func (e *Encoder) PutInt32s(v []int32) {
	e.PutUint32(uint32(len(v)))
	b := e.grow(4 * len(v))
	k := swap[int32](ptr(b), ptr(v), len(b)) / 4
	encodeInt32sPortable(b[4*k:], v[k:])
}

// PutFloat64s encodes a variable-length array of doubles.
func (e *Encoder) PutFloat64s(v []float64) {
	e.PutUint32(uint32(len(v)))
	b := e.grow(8 * len(v))
	k := swap[float64](ptr(b), ptr(v), len(b)) / 8
	encodeFloat64sPortable(b[8*k:], v[k:])
}

// PutStrings encodes a variable-length array of strings.
func (e *Encoder) PutStrings(v []string) {
	e.PutUint32(uint32(len(v)))
	for _, s := range v {
		e.PutString(s)
	}
}

// PutOptional encodes an XDR optional-data marker followed, if present is
// true, by the value via fn.
func (e *Encoder) PutOptional(present bool, fn func(*Encoder)) {
	e.PutBool(present)
	if present {
		fn(e)
	}
}

// Marshal encodes a Marshaler into a fresh byte slice.
func Marshal(m Marshaler) ([]byte, error) {
	e := NewEncoder(64)
	if err := m.MarshalXDR(e); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

// Decoder reads XDR-encoded values from a byte slice.
type Decoder struct {
	buf  []byte
	off  int
	lend bool
	lent [4][]byte // what Int32s and Float64s borrowed, for Release
}

// NewDecoder returns a Decoder reading from p.
func NewDecoder(p []byte) *Decoder { return &Decoder{buf: p} }

// Reset makes the decoder read p from its start.
func (d *Decoder) Reset(p []byte) { d.buf, d.off = p, 0 }

// Lend makes the first four Int32s/Float64s arrays decode into unzeroed
// bufpool memory, valid until Release; any further one is allocated.
func (d *Decoder) Lend() { d.lend = true }

// Release hands back every array the decoder lent; none may be read after.
func (d *Decoder) Release() {
	for _, b := range d.lent {
		putBuf(b) // Put(nil) is a no-op
	}
	d.lent = [4][]byte{}
}

var getBuf, putBuf = bufpool.Get, bufpool.Put // variables, so tests count them

// array returns n elements for Int32s or Float64s to overwrite: lent while
// the decoder lends and has a slot free, else fresh. A pooled buffer is a
// pointer-free allocation of at least 64 bytes, hence 8-byte aligned.
func array[T int32 | float64](d *Decoder, n int) []T {
	if d.lend && n > 0 {
		for i, b := range d.lent {
			if b == nil {
				d.lent[i] = getBuf(n * int(unsafe.Sizeof(T(0))))
				return unsafe.Slice((*T)(ptr(d.lent[i])), n)
			}
		}
	}
	return make([]T, n)
}

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// take consumes n bytes from the input.
func (d *Decoder) take(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.buf) {
		return nil, ErrShortBuffer
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes an XDR unsigned hyper.
func (d *Decoder) Uint64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// Int64 decodes an XDR hyper.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Int decodes an XDR hyper into a Go int.
func (d *Decoder) Int() (int, error) {
	v, err := d.Int64()
	return int(v), err
}

// Bool decodes a boolean, rejecting values other than 0 and 1.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, ErrBool
}

// Float32 decodes a single-precision float.
func (d *Decoder) Float32() (float32, error) {
	v, err := d.Uint32()
	return math.Float32frombits(v), err
}

// Float64 decodes a double-precision float.
func (d *Decoder) Float64() (float64, error) {
	v, err := d.Uint64()
	return math.Float64frombits(v), err
}

func (d *Decoder) checkPad(n int) error {
	p, err := d.take(pad(n))
	if err != nil {
		return err
	}
	for _, b := range p {
		if b != 0 {
			return ErrPadding
		}
	}
	return nil
}

// FixedOpaque decodes opaque data of known length into a fresh slice:
// the one copy the decoder makes of opaque data, for callers that keep
// the bytes beyond the life of the input.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	b, err := d.take(n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, b)
	return out, d.checkPad(n)
}

func (d *Decoder) length() (int, error) {
	v, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	if v > maxDecodeLen {
		return 0, ErrLength
	}
	return int(v), nil
}

// Opaque decodes variable-length opaque data into a fresh slice (see
// FixedOpaque).
func (d *Decoder) Opaque() ([]byte, error) {
	n, err := d.length()
	if err != nil {
		return nil, err
	}
	return d.FixedOpaque(n)
}

// OpaqueView decodes variable-length opaque data without copying: the
// returned slice aliases the decoder's input and keeps all of it
// reachable. Its capacity is its length, so an append to it reallocates
// instead of writing over whatever follows in the input.
func (d *Decoder) OpaqueView() ([]byte, error) {
	n, err := d.length()
	if err != nil {
		return nil, err
	}
	b, err := d.take(n)
	if err != nil {
		return nil, err
	}
	return b[:n:n], d.checkPad(n)
}

// String decodes a string.
func (d *Decoder) String() (string, error) {
	n, err := d.length()
	if err != nil {
		return "", err
	}
	b, err := d.take(n)
	if err != nil {
		return "", err
	}
	s := string(b)
	return s, d.checkPad(n)
}

// Int32s decodes a variable-length array of 32-bit integers.
func (d *Decoder) Int32s() ([]int32, error) {
	n, err := d.length()
	if err != nil {
		return nil, err
	}
	b, err := d.take(4 * n)
	if err != nil {
		return nil, err
	}
	out := array[int32](d, n)
	k := swap[int32](ptr(out), ptr(b), len(b)) / 4
	decodeInt32sPortable(out[k:], b[4*k:])
	return out, nil
}

// Float64s decodes a variable-length array of doubles.
func (d *Decoder) Float64s() ([]float64, error) {
	n, err := d.length()
	if err != nil {
		return nil, err
	}
	b, err := d.take(8 * n)
	if err != nil {
		return nil, err
	}
	out := array[float64](d, n)
	k := swap[float64](ptr(out), ptr(b), len(b)) / 8
	decodeFloat64sPortable(out[k:], b[8*k:])
	return out, nil
}

// ptr addresses s for swap, the kernel that moves the fixed-width arrays'
// whole 32-byte blocks on amd64 and arm64. The per-word loops below move
// the rest, do it all on other GOARCHes, and are the kernel's reference.
func ptr[T any](s []T) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(s)) }

func encodeInt32sPortable(b []byte, v []int32) {
	for _, x := range v {
		binary.BigEndian.PutUint32(b, uint32(x))
		b = b[4:]
	}
}

func decodeInt32sPortable(out []int32, b []byte) {
	for i := range out {
		out[i] = int32(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
}

func encodeFloat64sPortable(b []byte, v []float64) {
	for _, x := range v {
		binary.BigEndian.PutUint64(b, math.Float64bits(x))
		b = b[8:]
	}
}

func decodeFloat64sPortable(out []float64, b []byte) {
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(b))
		b = b[8:]
	}
}

// Strings decodes a variable-length array of strings.
func (d *Decoder) Strings() ([]string, error) {
	n, err := d.length()
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, min(n, 1024))
	for i := 0; i < n; i++ {
		s, err := d.String()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Optional decodes an optional-data marker; if present it invokes fn.
func (d *Decoder) Optional(fn func(*Decoder) error) (present bool, err error) {
	present, err = d.Bool()
	if err != nil || !present {
		return present, err
	}
	return true, fn(d)
}

// Unmarshal decodes p into u, requiring that all input is consumed.
func Unmarshal(p []byte, u Unmarshaler) error { return NewDecoder(p).DecodeFull(u) }

// DecodeFull decodes u from the rest of the input, requiring that all of
// it is consumed.
func (d *Decoder) DecodeFull(u Unmarshaler) error {
	if err := u.UnmarshalXDR(d); err != nil {
		return err
	}
	return d.Done()
}

// Done is DecodeFull's last check, that d consumed all of its input. A
// caller decoding a concrete type with a Decoder value of its own, which
// then stays off the heap, makes it itself.
func (d *Decoder) Done() error {
	if d.Remaining() != 0 {
		return errs.Wrapf(errs.Codec, ErrTrailing, "%d bytes", d.Remaining())
	}
	return nil
}
