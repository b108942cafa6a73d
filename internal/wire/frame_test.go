package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"openhpcxx/internal/bufpool"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/xdr"
)

// The frame path's contract, pinned layer by layer: Write borrows its
// buffer, Read allocates the frame once and decodes views of it, a batch
// is encoded in place, and none of that loosens what the decoder rejects.

const bulkBody = 256 << 10

func bulkMessage() *Message {
	body := make([]byte, bulkBody)
	rand.New(rand.NewSource(1)).Read(body)
	return &Message{Type: TRequest, RequestID: 9, Object: "ctx-a/obj-7", Method: "exchange", Epoch: 2, Body: body}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the mean number of
// heap bytes one call of f allocates, large objects counted in whole
// pages as the runtime accounts them.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

func TestWriteSteadyStateAllocatesNothing(t *testing.T) {
	m := bulkMessage()
	if n := testing.AllocsPerRun(50, func() {
		if err := Write(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Write of a %d-byte body: %v allocs per frame, want 0 (pooled, exact-size buffer)", bulkBody, n)
	}
}

func TestReadAllocatesTheFrameOnce(t *testing.T) {
	var frame bytes.Buffer
	if err := Write(&frame, bulkMessage()); err != nil {
		t.Fatal(err)
	}
	var r bytes.Reader
	read := func() {
		r.Reset(frame.Bytes())
		if _, err := Read(&r); err != nil {
			t.Fatal(err)
		}
	}
	// One frame buffer (rounded up to whole pages), the message and its
	// two header strings. A second copy of the body would double this.
	const slack = 8<<10 + 1<<10
	if got := allocBytesPerRun(20, read); got < bulkBody || got > uint64(frame.Len())+slack {
		t.Fatalf("Read allocated %d bytes for a %d-byte frame, want one frame buffer (at most %d)", got, frame.Len(), frame.Len()+slack)
	}
	if n := testing.AllocsPerRun(20, read); n > 4 {
		t.Fatalf("Read: %v allocs per frame, want at most 4 (frame, message, object, method)", n)
	}
}

func smallBatch(n int) []*Message {
	msgs := make([]*Message, n)
	for i := range msgs {
		msgs[i] = &Message{Type: TRequest, RequestID: uint64(i), Object: "ctx/obj-1", Method: "exchange",
			Body: bytes.Repeat([]byte{byte(i)}, 260)}
	}
	return msgs
}

func TestEncodeBatchAllocatesTheBodyOnce(t *testing.T) {
	msgs := smallBatch(64)
	if n := testing.AllocsPerRun(50, func() {
		if _, err := EncodeBatch(msgs); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("EncodeBatch of 64 messages: %v allocs, want at most 2 (body, frame)", n)
	}
}

// TestDecodeBatchAllocatesTheSlab: a 64-entry batch decodes into one
// slab of sub-messages plus the slice of pointers DecodeBatch returns,
// not one header per entry.
func TestDecodeBatchAllocatesTheSlab(t *testing.T) {
	frame, err := EncodeBatch(smallBatch(64))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := DecodeBatch(frame); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("DecodeBatch of 64 messages: %v allocs, want at most 2 (slab, slice)", n)
	}
}

// TestDecodeBatchSizesNoSlabFromACount: a count within MaxBatchMessages
// but with bytes for none of its entries is refused before the slab is
// made, so a hostile header costs no more than the frame it came in.
func TestDecodeBatchSizesNoSlabFromACount(t *testing.T) {
	frame := &Message{Type: TBatch, Body: []byte{0, 0, 0x10, 0, 0, 0, 0, 0}}
	var err error
	got := allocBytesPerRun(50, func() { _, err = DecodeBatch(frame) })
	if !errs.HasCode(err, errs.Codec) {
		t.Fatalf("count of %d in 8 bytes: %v", MaxBatchMessages, err)
	}
	if got > 1<<10 {
		t.Fatalf("refusing a count of %d allocated %d bytes", MaxBatchMessages, got)
	}
}

func TestDecodeBatchCopiesNoBody(t *testing.T) {
	const body = 64 << 10
	msgs := make([]*Message, 4)
	for i := range msgs {
		msgs[i] = &Message{Type: TRequest, Object: "ctx/obj-1", Method: "exchange", Body: bytes.Repeat([]byte{byte(i + 1)}, body)}
	}
	frame, err := EncodeBatch(msgs)
	if err != nil {
		t.Fatal(err)
	}
	got := allocBytesPerRun(50, func() {
		if _, err := DecodeBatch(frame); err != nil {
			t.Fatal(err)
		}
	})
	if got > 2<<10 {
		t.Fatalf("DecodeBatch allocated %d bytes for 4 bodies of %d, want headers only", got, body)
	}
}

func TestEncodedLenIsExact(t *testing.T) {
	cases := []*Message{
		{},
		sample(),
		bulkMessage(),
		{Type: TReply, TraceID: 7, SpanID: 8, Flags: FlagKeepHint, Body: []byte{1}},
		{Type: TReply, TraceID: 7, SpanID: 8, Flags: 0, Object: "abcde"},      // cleared keep-hint on a traced frame
		{Type: TRequest, Flags: 1 << 9, Envelopes: []Envelope{{ID: "x"}, {}}}, // unknown bit
	}
	for i, m := range cases {
		buf, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != m.encodedLen() || cap(buf) != len(buf) {
			t.Errorf("case %d: encodedLen %d, Marshal produced len %d cap %d", i, m.encodedLen(), len(buf), cap(buf))
		}
		if want := encodeFrame(t, m); !bytes.Equal(buf, want) {
			t.Errorf("case %d: Marshal differs from MarshalXDR", i)
		}
	}
}

func TestDecodedBodyAliasesTheFrame(t *testing.T) {
	in := sample()
	buf := encodeFrame(t, in)
	var out Message
	if err := decodeMessage(buf, &out); err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(buf, in.Body)
	if at < 0 || !bytes.Equal(out.Body, in.Body) {
		t.Fatalf("body %q not found in the encoding", in.Body)
	}
	buf[at] ^= 0xff
	if out.Body[0] != in.Body[0]^0xff {
		t.Fatal("Body is a copy: a write to the frame did not show through it")
	}
	envAt := bytes.Index(buf, in.Envelopes[0].Data)
	buf[envAt] ^= 0xff
	if out.Envelopes[0].Data[0] != in.Envelopes[0].Data[0]^0xff {
		t.Fatal("Envelope.Data is a copy: a write to the frame did not show through it")
	}
	// A view ends where its bytes end: appending to it must reallocate,
	// not write into the frame.
	if cap(out.Body) != len(out.Body) {
		t.Fatalf("Body has cap %d beyond len %d: an append would write into the frame", cap(out.Body), len(out.Body))
	}
}

func TestBatchBodiesAreDisjointViews(t *testing.T) {
	msgs := smallBatch(8)
	frame, err := EncodeBatch(msgs)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := DecodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	// Every sub-body is a window of the batch frame...
	saved := append([]byte(nil), frame.Body...)
	for i := range frame.Body {
		frame.Body[i] = 0xee
	}
	for i, sub := range subs {
		if !bytes.Equal(sub.Body, bytes.Repeat([]byte{0xee}, len(msgs[i].Body))) {
			t.Fatalf("sub %d body is a copy of the batch frame, not a view", i)
		}
	}
	copy(frame.Body, saved)
	// ...and no two windows overlap, even through append.
	for i, sub := range subs {
		for j := range sub.Body {
			sub.Body[j] = byte(0x80 + i)
		}
		_ = append(sub.Body, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	}
	for i, sub := range subs {
		if !bytes.Equal(sub.Body, bytes.Repeat([]byte{byte(0x80 + i)}, len(msgs[i].Body))) {
			t.Fatalf("sub %d body was written through another sub-message's view", i)
		}
		if sub.Object != msgs[i].Object || sub.RequestID != msgs[i].RequestID {
			t.Fatalf("sub %d header changed: %+v", i, sub)
		}
	}
}

// rawHeader encodes a header up to and including the envelope count.
func rawHeader(envelopes uint32) *xdr.Encoder {
	e := xdr.NewEncoder(128)
	e.PutUint32(Magic)
	e.PutUint32(Version)
	e.PutUint32(uint32(TRequest))
	e.PutUint64(1)
	e.PutString("ctx/obj-1")
	e.PutString("m")
	e.PutUint64(0)
	e.PutInt64(0)
	e.PutUint64(0)
	e.PutUint64(0)
	e.PutUint32(0)
	e.PutUint32(envelopes)
	return e
}

// TestAliasingDecodeStillRejects feeds the malformed encodings the
// copying decoder rejected through both entry points of the aliasing
// one, and expects the same errors.
func TestAliasingDecodeStillRejects(t *testing.T) {
	padded := func() []byte {
		e := rawHeader(0)
		e.PutOpaque([]byte{1, 2, 3})
		b := e.Bytes()
		b[len(b)-1] = 0x01
		return b
	}
	envPadded := func() []byte {
		e := rawHeader(1)
		e.PutString("glue")
		e.PutOpaque([]byte{1, 2, 3, 4, 5})
		b := e.Bytes()
		b[len(b)-2] = 0x01
		e.PutOpaque(nil)
		return e.Bytes()
	}
	truncated := func() []byte {
		e := rawHeader(0)
		e.PutUint32(100) // body claims 100 bytes, 8 follow
		e.PutUint64(0)
		return e.Bytes()
	}
	tooManyEnvelopes := func() []byte { return rawHeader(65).Bytes() }
	trailing := func() []byte {
		e := rawHeader(0)
		e.PutOpaque([]byte("body"))
		e.PutUint32(0)
		return e.Bytes()
	}
	cases := []struct {
		name string
		raw  []byte
		is   func(error) bool
	}{
		{"nonzero body pad", padded(), func(err error) bool { return errors.Is(err, xdr.ErrPadding) }},
		{"nonzero envelope pad", envPadded(), func(err error) bool { return errors.Is(err, xdr.ErrPadding) }},
		{"truncated body", truncated(), func(err error) bool { return errors.Is(err, xdr.ErrShortBuffer) }},
		{"oversize envelope count", tooManyEnvelopes(), func(err error) bool { return errs.HasCode(err, errs.Codec) }},
		{"trailing bytes", trailing(), func(err error) bool {
			return errors.Is(err, xdr.ErrTrailing) && errs.HasCode(err, errs.Codec)
		}},
	}
	for _, c := range cases {
		readErr, batchErr := decodeBothWays(c.raw)
		if readErr == nil || !c.is(readErr) {
			t.Errorf("Read, %s: got %v", c.name, readErr)
		}
		if batchErr == nil || !c.is(batchErr) {
			t.Errorf("DecodeBatch, %s: got %v", c.name, batchErr)
		}
	}
}

// decodeBothWays hands one message encoding to the two decoders that
// take bytes off a connection: Read, framed, and DecodeBatch, as a batch
// of one.
func decodeBothWays(raw []byte) (readErr, batchErr error) {
	framed := binary.BigEndian.AppendUint32(nil, uint32(len(raw)))
	_, readErr = Read(bytes.NewReader(append(framed, raw...)))
	e := xdr.NewEncoder(len(raw) + 8)
	e.PutUint32(1)
	e.PutOpaque(raw)
	_, batchErr = DecodeBatch(&Message{Type: TBatch, Body: e.Bytes()})
	return readErr, batchErr
}

// stallingReader hands out data and then blocks, like a peer that sends
// a length prefix and a few bytes and goes quiet.
type stallingReader struct {
	data    []byte
	stalled chan struct{} // closed when data is exhausted
	release chan struct{} // Read returns EOF once this is closed
}

func (s *stallingReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		close(s.stalled)
		<-s.release
		return 0, io.EOF
	}
	n := copy(p, s.data)
	s.data = s.data[n:]
	return n, nil
}

// readers are the two ways a frame comes off a connection: collected, and
// lent by bufpool until released. Every bound on one holds for the other.
var readers = map[string]func(io.Reader) (*Message, error){"Read": Read, "ReadLent": ReadLent}

// TestReadDoesNotTrustTheLengthPrefix: a peer that claims a MaxFrame
// frame, sends 16 bytes and stalls must pin about readAhead, not 64 MiB.
func TestReadDoesNotTrustTheLengthPrefix(t *testing.T) {
	for name, read := range readers {
		data := binary.BigEndian.AppendUint32(nil, MaxFrame)
		data = append(data, make([]byte, 16)...)
		r := &stallingReader{data: data, stalled: make(chan struct{}), release: make(chan struct{})}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		done := make(chan error, 1)
		go func() {
			_, err := read(r)
			done <- err
		}()
		<-r.stalled
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
			t.Errorf("a %d-byte length prefix and 16 bytes made %s allocate %d bytes, want well under 2 MiB", MaxFrame, name, got)
		}
		close(r.release)
		if err := <-done; !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s of the abandoned frame: %v, want io.ErrUnexpectedEOF", name, err)
		}
	}
}

// dribbleReader returns at most step bytes per Read, so a large frame
// arrives across piece boundaries at every alignment.
type dribbleReader struct {
	r    io.Reader
	step int
}

func (d dribbleReader) Read(p []byte) (int, error) {
	return d.r.Read(p[:min(len(p), d.step)])
}

func TestLargeFrameRoundTrips(t *testing.T) {
	in := &Message{Type: TReply, RequestID: 3, Object: "ctx/obj-1", Method: "bulk", Body: make([]byte, 8<<20)}
	rand.New(rand.NewSource(2)).Read(in.Body)
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), buf.Bytes()...)
	for name, read := range readers {
		out, err := read(dribbleReader{bytes.NewReader(frame), 300<<10 + 7})
		if err != nil {
			t.Fatal(err)
		}
		if out.Object != in.Object || out.Method != in.Method || out.RequestID != in.RequestID || !bytes.Equal(out.Body, in.Body) {
			t.Fatalf("%s: 8 MiB frame did not round-trip byte for byte", name)
		}
		// Gathered above readAhead, so nothing was lent: Release is a no-op.
		if out.Release(); out.lent != nil || !bytes.Equal(out.Body, in.Body) {
			t.Fatalf("%s: an 8 MiB frame was lent from the pool", name)
		}
		// Cut off exactly at a piece boundary, the stream is still short.
		if _, err := read(bytes.NewReader(frame[:4+2*readAhead])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: frame cut at a piece boundary: %v, want io.ErrUnexpectedEOF", name, err)
		}
	}
}

// TestReleaseIsIdempotentAndNilSafe: a message holds at most one lent
// buffer, gives it back once, and a message that holds none — or no
// message at all — releases nothing.
func TestReleaseIsIdempotentAndNilSafe(t *testing.T) {
	var none *Message
	none.Release()
	new(Message).Release()
	var frame bytes.Buffer
	if err := Write(&frame, sample()); err != nil {
		t.Fatal(err)
	}
	m, err := ReadLent(&frame)
	if err != nil || m.lent == nil || !bytes.Equal(m.Body, sample().Body) {
		t.Fatalf("ReadLent: %+v, %v", m, err)
	}
	m.Release()
	m.Release()
	m.Lend(bufpool.Get(100))
	if m.Release(); m.lent != nil {
		t.Fatal("Release left the buffer attached")
	}
}

// TestConcurrentWritersShareThePool: the write-buffer pool is the only
// state Write shares between connections. Eight writers with mixed frame
// sizes must each see exactly their own frames come back (run with -race).
func TestConcurrentWritersShareThePool(t *testing.T) {
	const writers, frames = 8, 24
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var conn bytes.Buffer
			var sent [][]byte
			for i := 0; i < frames; i++ {
				body := make([]byte, 64)
				if rng.Intn(3) == 0 {
					body = make([]byte, bulkBody)
				}
				rng.Read(body)
				sent = append(sent, body)
				if err := Write(&conn, &Message{Type: TRequest, RequestID: uint64(w<<16 | i), Object: "ctx/obj-1", Method: "exchange", Body: body}); err != nil {
					t.Error(err)
					return
				}
			}
			for i, body := range sent {
				m, err := Read(&conn)
				if err != nil {
					t.Errorf("writer %d frame %d: %v", w, i, err)
					return
				}
				if m.RequestID != uint64(w<<16|i) || !bytes.Equal(m.Body, body) {
					t.Errorf("writer %d frame %d came back as another frame (id %#x)", w, i, m.RequestID)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestInternedDecodeEqualsFreshDecode(t *testing.T) {
	long := string(bytes.Repeat([]byte("m"), internMax+1)) // never interned
	for _, m := range []*Message{
		sample(),
		{Type: TRequest, Object: "intern-test/obj-1", Method: long, Envelopes: []Envelope{{ID: "glue"}, {ID: long}, {ID: ""}}},
		{Type: TReply},
	} {
		buf, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		// The first decode of a new name misses the table, the second
		// hits it; both must be the message a copying decode returns.
		for pass := 0; pass < 2; pass++ {
			var got Message
			if err := decodeMessage(buf, &got); err != nil {
				t.Fatal(err)
			}
			if got.Object != m.Object || got.Method != m.Method || len(got.Envelopes) != len(m.Envelopes) {
				t.Fatalf("pass %d: decoded %+v, want %+v", pass, got, m)
			}
			for i := range m.Envelopes {
				if got.Envelopes[i].ID != m.Envelopes[i].ID {
					t.Fatalf("pass %d: envelope %d id %q, want %q", pass, i, got.Envelopes[i].ID, m.Envelopes[i].ID)
				}
			}
		}
	}
	// An interned string is its own memory, not a view of the frame it
	// was first seen in: scribbling over that frame must not change it.
	first := []byte("scribble-target")
	s := intern(first)
	copy(first, "XXXXXXXXXXXXXXX")
	if s != "scribble-target" || intern([]byte("scribble-target")) != s {
		t.Fatalf("interned string aliases its source: %q", s)
	}
}

func TestInternSteadyStateAllocatesNothing(t *testing.T) {
	frame, err := Marshal(&Message{Type: TRequest, Object: "ctx-a/obj-7", Method: "exchange",
		Envelopes: []Envelope{{ID: "glue"}, {ID: "auth"}}})
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	if n := testing.AllocsPerRun(100, func() {
		if err := decodeMessage(frame, &m); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("decode of a repeated header: %v allocs, want 1 (the envelope slots)", n)
	}
}

func TestInternTableIsBounded(t *testing.T) {
	// A peer inventing a name per frame replaces entries, it does not add
	// any: the table is an array, and what it pins is capped per entry.
	for i := 0; i < 10000; i++ {
		id := []byte(fmt.Sprintf("hostile-%d", i))
		if i%2 == 1 {
			id = append(id, bytes.Repeat([]byte("x"), internMax)...) // too long to keep
		}
		if got := intern(id); got != string(id) {
			t.Fatalf("intern(%q) = %q", id, got)
		}
	}
	held, bytesHeld := 0, 0
	for i := range internTab {
		if p := internTab[i].Load(); p != nil {
			held++
			bytesHeld += len(*p)
			if len(*p) > internMax {
				t.Fatalf("slot %d holds a %d-byte string", i, len(*p))
			}
		}
	}
	if held == 0 || held > internSlots || bytesHeld > internSlots*internMax {
		t.Fatalf("table of %d slots holds %d strings, %d bytes", internSlots, held, bytesHeld)
	}
}

func TestInternCollidingHotNamesSettle(t *testing.T) {
	// Two names with the same first slot, in a table with no free slot
	// left (the state a hostile peer leaves): after a few misses each
	// sits in a slot of its own and neither allocates again.
	for i := 0; i < 4*internSlots; i++ {
		intern([]byte(fmt.Sprintf("filler-%d", i)))
	}
	a := []byte("collide-a")
	var b []byte
	for i := 0; ; i++ {
		b = []byte(fmt.Sprintf("collide-%d", i))
		ha, hb := maphash.Bytes(internSeed, a), maphash.Bytes(internSeed, b)
		if ha%internSlots == hb%internSlots && ha>>32%internSlots != hb>>32%internSlots {
			break
		}
	}
	for i := 0; i < 8; i++ {
		intern(a)
		intern(b)
	}
	if n := testing.AllocsPerRun(100, func() { intern(a); intern(b) }); n != 0 {
		t.Fatalf("two hot names sharing a slot evict each other: %v allocs per pair", n)
	}
}
