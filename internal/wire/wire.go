// Package wire defines the Open HPC++ on-the-wire message format shared
// by every protocol object.
//
// A message is a length-delimited frame: a big-endian uint32 byte count,
// then one fixed XDR header, a chain of capability envelopes and an
// opaque body. Capability objects transform only the body and record
// what they did in the envelope chain, so a glue protocol can un-process
// a request on the server side in exactly the reverse order it was
// processed on the client side (paper §4.2, Figure 2).
//
// There is one layout. Integers are big-endian; a string or opaque is a
// uint32 length followed by the bytes, zero-padded to four:
//
//	field       width     meaning
//	magic       4         Magic ("HPCX")
//	version     4         Version; anything else is ErrBadVersion
//	type        4         MsgType
//	request id  8         reply matching, assigned by the transport
//	object      4+n pad   target object id ("context-id/obj-N")
//	method      4+n pad   method name
//	epoch       8         migration epoch of the OR the caller used
//	deadline    8         absolute Unix ns, 0 = none
//	trace id    8         caller's trace, 0 = untraced
//	span id     8         caller's span within that trace
//	flags       4         Flag* bits; unknown bits are carried verbatim
//	envelopes   4         count (at most 64), then per envelope:
//	  id        4+n pad   capability kind
//	  data      4+n pad   what the capability needs to undo its work
//	body        4+n pad   the (possibly transformed) argument bytes
//
// The flags word is the only extension point: a new boolean rides in a
// new bit, which peers that do not know it relay untouched. Anything
// that changes the layout bumps Version and is a flag day — a decoder
// accepts exactly its own Version and nothing else.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"io"
	"sync/atomic"

	"openhpcxx/internal/bufpool"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/xdr"
)

// Magic identifies Open HPC++ frames ("HPCX").
const Magic uint32 = 0x48504358

// Version is the wire layout this package speaks, the only one it
// decodes (see the package comment for the compatibility rule).
const Version uint32 = 4

// MaxFrame bounds a frame's total size (64 MiB), protecting servers from
// hostile length prefixes.
const MaxFrame = 64 << 20

// MsgType discriminates frame kinds.
type MsgType uint32

// Message kinds.
const (
	TRequest MsgType = 1 // method invocation
	TReply   MsgType = 2 // successful result
	TFault   MsgType = 3 // remote error
	TControl MsgType = 4 // runtime-internal traffic (migration, ping)
)

func (t MsgType) String() string {
	switch t {
	case TRequest:
		return "request"
	case TReply:
		return "reply"
	case TFault:
		return "fault"
	case TControl:
		return "control"
	case TBatch:
		return "batch"
	}
	return fmt.Sprintf("msgtype(%d)", uint32(t))
}

// Envelope records one capability's transformation of the body. ID names
// the capability kind; Data carries whatever the capability needs to undo
// the transformation (nonces, original lengths, MACs, ...).
type Envelope struct {
	ID   string
	Data []byte
}

// Message is one frame.
type Message struct {
	Type      MsgType
	RequestID uint64
	Object    string // target object id ("context-id/obj-N")
	Method    string
	Epoch     uint64 // migration epoch of the OR the caller used
	// Deadline is the absolute instant (Unix nanoseconds) after which
	// the caller no longer wants the result; 0 means no deadline.
	// Servers shed already-expired requests instead of doing dead work.
	Deadline int64
	// TraceID and SpanID carry the caller's end-to-end trace
	// identity so server-side spans join the client's trace. Both zero
	// means the caller was not tracing; servers must treat them as
	// opaque and never allocate based on their values.
	TraceID uint64
	SpanID  uint64
	// Flags carries per-message boolean hints. Unknown bits are
	// preserved verbatim through a decode/encode round trip, so a new
	// bit does not break relays that predate it.
	Flags     uint32
	Envelopes []Envelope
	Body      []byte

	lent []byte // what Release returns to bufpool: ReadLent's frame, or Lend's buffer
}

// Flag bits for Message.Flags.
const (
	// FlagKeepHint marks the trace this message belongs to as a
	// retention candidate: the caller's tail keeper is still buffering
	// it, so downstream keepers should buffer its server-side spans
	// too. Absent the bit, a tail keeper may discard the continued
	// trace's spans immediately instead of holding them to trace end.
	FlagKeepHint uint32 = 1 << 0
)

// KeepHint reports whether the frame marks its trace as a retention
// candidate (FlagKeepHint).
func (m *Message) KeepHint() bool {
	return m.Flags&FlagKeepHint != 0
}

// SetKeepHint sets or clears the retention-candidate bit.
func (m *Message) SetKeepHint(on bool) {
	if on {
		m.Flags |= FlagKeepHint
	} else {
		m.Flags &^= FlagKeepHint
	}
}

// Expired reports whether the message carries a deadline that has
// already passed at the given instant.
func (m *Message) Expired(now int64) bool {
	return m.Deadline != 0 && now > m.Deadline
}

// MarshalXDR encodes everything after the frame length prefix.
func (m *Message) MarshalXDR(e *xdr.Encoder) error {
	e.PutUint32(Magic)
	e.PutUint32(Version)
	e.PutUint32(uint32(m.Type))
	e.PutUint64(m.RequestID)
	e.PutString(m.Object)
	e.PutString(m.Method)
	e.PutUint64(m.Epoch)
	e.PutInt64(m.Deadline)
	e.PutUint64(m.TraceID)
	e.PutUint64(m.SpanID)
	e.PutUint32(m.Flags)
	e.PutUint32(uint32(len(m.Envelopes)))
	for _, env := range m.Envelopes {
		e.PutString(env.ID)
		e.PutOpaque(env.Data)
	}
	e.PutOpaque(m.Body)
	return nil
}

// xdrLen is the encoded size of a string or opaque of n bytes: the
// length word plus the bytes padded to a four-byte boundary.
func xdrLen(n int) int { return 4 + (n+3)&^3 }

// encodedLen is the exact number of bytes MarshalXDR appends for m, so
// every encode site allocates once and nothing grows.
func (m *Message) encodedLen() int {
	// magic, version, type; request id, epoch, deadline, trace id, span
	// id; flags, envelope count.
	n := 3*4 + 5*8 + 2*4
	n += xdrLen(len(m.Object)) + xdrLen(len(m.Method))
	for i := range m.Envelopes {
		n += xdrLen(len(m.Envelopes[i].ID)) + xdrLen(len(m.Envelopes[i].Data))
	}
	return n + xdrLen(len(m.Body))
}

// appendMessage appends m's encoding to dst. Callers size dst with
// encodedLen, so the encoder — held on this stack frame — never grows.
func appendMessage(dst []byte, m *Message) ([]byte, error) {
	var e xdr.Encoder
	e.SetBuf(dst)
	if err := m.MarshalXDR(&e); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

// Marshal returns m's encoding — everything after the frame length
// prefix — in a buffer of exactly that size, for protocols that embed a
// message in a carrier of their own instead of framing it with Write. Like
// Write, it releases m once m is copied.
func Marshal(m *Message) ([]byte, error) {
	defer m.Release()
	return appendMessage(make([]byte, 0, m.encodedLen()), m)
}

// decodeMessage decodes buf, which must hold exactly one encoding, into
// m. Body and Envelope.Data alias buf.
func decodeMessage(buf []byte, m *Message) error {
	var d xdr.Decoder
	d.Reset(buf)
	if err := m.UnmarshalXDR(&d); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return errs.Wrapf(errs.Codec, xdr.ErrTrailing, "%d bytes", d.Remaining())
	}
	return nil
}

// Frame errors.
var (
	// A peer that speaks another protocol or layout will do so again on
	// a retry: both are coded permanent, so the calls a mux read loop
	// fails with one are not re-sent as if the transport had blipped.
	ErrBadMagic   = errs.New(errs.Codec, "wire: bad magic")
	ErrBadVersion = errs.New(errs.Codec, "wire: unsupported version")
	ErrTooLarge   = errs.New(errs.Codec, "wire: frame exceeds MaxFrame")
)

// UnmarshalXDR decodes everything after the frame length prefix. Body
// and Envelope.Data are views of the decoder's input, not copies: the
// message stays valid as long as that input is left alone, and keeps it
// reachable.
func (m *Message) UnmarshalXDR(d *xdr.Decoder) error {
	magic, err := d.Uint32()
	if err != nil {
		return err
	}
	if magic != Magic {
		return ErrBadMagic
	}
	ver, err := d.Uint32()
	if err != nil {
		return err
	}
	if ver != Version {
		return ErrBadVersion
	}
	typ, err := d.Uint32()
	if err != nil {
		return err
	}
	m.Type = MsgType(typ)
	if m.RequestID, err = d.Uint64(); err != nil {
		return err
	}
	if m.Object, err = internString(d); err != nil {
		return err
	}
	if m.Method, err = internString(d); err != nil {
		return err
	}
	if m.Epoch, err = d.Uint64(); err != nil {
		return err
	}
	if m.Deadline, err = d.Int64(); err != nil {
		return err
	}
	if m.TraceID, err = d.Uint64(); err != nil {
		return err
	}
	if m.SpanID, err = d.Uint64(); err != nil {
		return err
	}
	if m.Flags, err = d.Uint32(); err != nil {
		return err
	}
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if n > 64 {
		return errs.Newf(errs.Codec, "wire: %d envelopes exceeds limit", n)
	}
	m.Envelopes = make([]Envelope, n)
	for i := range m.Envelopes {
		if m.Envelopes[i].ID, err = internString(d); err != nil {
			return err
		}
		if m.Envelopes[i].Data, err = d.OpaqueView(); err != nil {
			return err
		}
	}
	m.Body, err = d.OpaqueView()
	return err
}

// A frame's header strings — object, method, envelope ids — are the same
// few values on every frame, so decode interns them in a fixed table
// instead of allocating each per frame. The table cannot grow and holds
// only short strings: a peer inventing names pins at most internSlots ×
// internMax bytes and costs what every string cost before. A string has two
// candidate slots, evicted in turn, so hot names that collide settle apart.
const internSlots, internMax = 1024, 64

var (
	internTab    [internSlots]atomic.Pointer[string]
	internMisses atomic.Uint32
	internSeed   = maphash.MakeSeed() // per process: a peer cannot aim at a slot
)

// intern returns b as a string, shared while the table holds it.
func intern(b []byte) string {
	if len(b) == 0 || len(b) > internMax {
		return string(b)
	}
	h := maphash.Bytes(internSeed, b)
	slots := [2]*atomic.Pointer[string]{&internTab[h%internSlots], &internTab[h>>32%internSlots]}
	for _, slot := range slots {
		if p := slot.Load(); p != nil && *p == string(b) {
			return *p
		}
	}
	s := string(b)
	slots[internMisses.Add(1)&1].Store(&s)
	return s
}

// internString decodes an XDR string through intern. On an error the
// caller drops the frame, whatever the string.
func internString(d *xdr.Decoder) (string, error) {
	b, err := d.OpaqueView()
	return intern(b), err
}

// Write frames and writes m to w. It is not safe for concurrent use on
// one writer; callers serialize per connection. io.Writer may not retain
// what it is handed, so the frame buffer is back in bufpool on return, and
// so is m's loan (Release), written or refused.
func Write(w io.Writer, m *Message) error {
	defer m.Release()
	n := m.encodedLen()
	if n > MaxFrame {
		return ErrTooLarge
	}
	buf := bufpool.Get(4 + n)
	defer bufpool.Put(buf)
	buf, err := appendMessage(binary.BigEndian.AppendUint32(buf[:0], uint32(n)), m)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// readAhead is how far Read allocates beyond the bytes a peer has
// actually sent: a frame up to this size is one allocation, a larger one
// is gathered in pieces of this size, so a length prefix alone pins at
// most this much memory however large it claims the frame to be.
const readAhead = 1 << 20

// readFrame reads the n bytes of a frame body into one buffer: bufpool's
// if lend is set, which only a frame of at most readAhead bytes may ask.
func readFrame(r io.Reader, n int, lend bool) ([]byte, error) {
	if n <= readAhead {
		var buf []byte
		if lend {
			buf = bufpool.Get(n)
		} else {
			buf = make([]byte, n)
		}
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	var pieces [][]byte
	for got := 0; got < n; {
		p := make([]byte, min(n-got, readAhead))
		if _, err := io.ReadFull(r, p); err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		pieces = append(pieces, p)
		got += len(p)
	}
	buf := make([]byte, 0, n)
	for _, p := range pieces {
		buf = append(buf, p...)
	}
	return buf, nil
}

// Read reads one frame from r. The returned message's Body and envelope
// data alias the frame's buffer, which nothing else references: it lives
// exactly as long as the message (or any slice of it) does.
func Read(r io.Reader) (*Message, error) { return read(r, false) }

// ReadLent is Read for a caller that knows when it is done with the
// message and says so by calling Release: the frame's buffer is lent by
// bufpool, unless gathering it (above readAhead) allocated it anyway.
func ReadLent(r io.Reader) (*Message, error) { return read(r, true) }

func read(r io.Reader, lend bool) (*Message, error) {
	// The length word is read into the message's own allocation: a
	// local array would escape through the io.Reader call and cost an
	// allocation of its own.
	f := new(struct {
		Message
		prefix [4]byte
	})
	if _, err := io.ReadFull(r, f.prefix[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(f.prefix[:]))
	if n > MaxFrame {
		return nil, ErrTooLarge
	}
	lend = lend && n <= readAhead
	buf, err := readFrame(r, n, lend)
	if err != nil {
		return nil, err
	}
	if err := decodeMessage(buf, &f.Message); err != nil {
		return nil, err
	}
	if lend {
		f.lent = buf
	}
	return &f.Message, nil
}

// Lend hands m a bufpool buffer, one its Body aliases, for Release to
// return. A message holds at most one, a value copy the same one: clear
// the copy's with Lend(nil), or the buffer goes back twice.
func (m *Message) Lend(buf []byte) { m.lent = buf }

// Release returns the buffer m holds on loan, if any, to bufpool: m's
// Body and envelope data, and what aliased them (a servant's args, a reply
// that echoed them), must not be read afterwards. Idempotent, nil-safe and
// optional: an unreleased buffer is collected with its message.
func (m *Message) Release() {
	if m != nil && m.lent != nil {
		putLent(m.lent)
		m.lent = nil
	}
}

var putLent = bufpool.Put // a variable, so tests count what goes back
