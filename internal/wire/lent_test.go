package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"openhpcxx/internal/bufpool"
)

// An outgoing message's loan ends at its encoder: Write, Marshal and
// EncodeBatch give it back once its bytes are copied, whether they wrote
// the frame or refused it, and exactly once.

// countReturns counts, by base address, what Release gives back to
// bufpool until the test ends.
func countReturns(t *testing.T) map[*byte]int {
	back := make(map[*byte]int)
	put := putLent
	putLent = func(b []byte) { back[&b[:1][0]]++; put(b) }
	t.Cleanup(func() { putLent = put })
	return back
}

// lentMessage is a request whose body is a bufpool buffer it holds on loan.
func lentMessage(n int) (*Message, *byte) {
	buf := bufpool.Get(n)
	for i := range buf {
		buf[i] = byte(i)
	}
	m := &Message{Type: TRequest, Object: "ctx/obj-1", Method: "exchange", Body: buf}
	m.Lend(buf)
	return m, &buf[:1][0]
}

func TestEncodersGiveTheLentBufferBack(t *testing.T) {
	back := countReturns(t)
	huge := make([]byte, MaxFrame) // refused: past MaxFrame once framed
	var other *byte                // EncodeBatch's first sub-message
	encoders := map[string]func(*Message) error{
		"Write":   func(m *Message) error { return Write(io.Discard, m) },
		"Marshal": func(m *Message) error { _, err := Marshal(m); return err },
		"EncodeBatch": func(m *Message) error {
			var first *Message
			first, other = lentMessage(300)
			_, err := EncodeBatch([]*Message{first, m})
			return err
		},
	}
	for name, encode := range encoders {
		for _, refused := range []bool{false, name != "Marshal"} { // Marshal frames nothing, so refuses nothing
			clear(back) // bufpool hands the same buffers out again
			m, base := lentMessage(4 << 10)
			if refused {
				m.Envelopes = []Envelope{{ID: "pad", Data: huge}}
			}
			if err := encode(m); (err != nil) != refused {
				t.Fatalf("%s (refused %v): %v", name, refused, err)
			}
			m.Release() // idempotent: the encoder already did
			if back[base] != 1 {
				t.Fatalf("%s (refused %v): the lent body went back %d times, want once", name, refused, back[base])
			}
			if name == "EncodeBatch" && back[other] != 1 {
				t.Fatalf("EncodeBatch (refused %v): the other sub-message's body went back %d times, want once", refused, back[other])
			}
		}
	}
}

// TestValueCopyOfALentMessageGoesBackOnce: a copy by value holds its
// original's loan, so the copy drops it (Lend(nil)), as the glue does with
// its copies, and the buffer goes back once whichever copies are released.
func TestValueCopyOfALentMessageGoesBackOnce(t *testing.T) {
	back := countReturns(t)
	m, base := lentMessage(4 << 10)
	c := *m
	c.Lend(nil)
	c.Body = c.Body[:100]
	if err := Write(io.Discard, &c); err != nil {
		t.Fatal(err)
	}
	c.Release()
	m.Release()
	m.Release()
	if back[base] != 1 || len(back) != 1 {
		t.Fatalf("a lent body and its copy went back %d times (%d buffers), want once", back[base], len(back))
	}
	// The hazard the rule is for: a copy that keeps the loan returns it
	// a second time, and the next two Gets would share one buffer.
	clear(back)
	m, base = lentMessage(4 << 10)
	c = *m
	c.Release()
	m.Release()
	if back[base] != 2 {
		t.Fatalf("a copy that kept the loan returned it %d times", back[base])
	}
}

func TestBatchToTheWireAllocatesNoBody(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	msgs := smallBatch(64) // a 20 KiB batch body
	got := allocBytesPerRun(50, func() {
		frame, err := EncodeBatch(msgs)
		if err != nil {
			t.Fatal(err)
		}
		if err := Write(io.Discard, frame); err != nil {
			t.Fatal(err)
		}
	})
	if got > 1<<10 {
		t.Fatalf("EncodeBatch then Write allocates %d bytes per batch, want the frame header only (a body is %d)", got, 64*300)
	}
}

// TestRecycledHeaderIsScrubbed: Release gives a pooled header back —
// Read's, and Pooled's once an encoder is done with it — scrubbed, so a
// read past Release sees an empty header, not the request it held. A
// header built as a literal, or a value copy of a pooled one, never goes
// back.
func TestRecycledHeaderIsScrubbed(t *testing.T) {
	var frame bytes.Buffer
	if err := Write(&frame, sample()); err != nil {
		t.Fatal(err)
	}
	m, err := ReadLent(bytes.NewReader(frame.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	kept := *m // a value copy holds the pool but is not its header
	kept.Lend(nil)
	kept.Release()
	if m.RequestID != sample().RequestID || m.Object != sample().Object {
		t.Fatalf("releasing a copy recycled the header it copied: %+v", m)
	}
	m.Release()
	if !reflect.DeepEqual(fields(m), Message{}) {
		t.Fatalf("a released request header reads %+v, want the scrub", m)
	}

	reply := Pooled(Message{Type: TReply, Object: "ctx/obj-1", Method: "exchange", Body: []byte("out")})
	if err := Write(io.Discard, reply); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fields(reply), Message{}) {
		t.Fatalf("a written pooled reply reads %+v, want the scrub", reply)
	}

	lit := &Message{Type: TRequest, RequestID: 7, Object: "ctx/obj-1", Method: "exchange"}
	if err := Write(io.Discard, lit); err != nil {
		t.Fatal(err)
	}
	if lit.RequestID != 7 || lit.Method != "exchange" {
		t.Fatalf("a literal header was recycled: %+v", lit)
	}
}

// TestEncodedFaultIsSharedNotLent: an Encoded fault's bytes answer every
// request that carries it, so FaultMessage sends them unlent, and writing,
// marshaling or batching the reply gives nothing of them to bufpool.
func TestEncodedFaultIsSharedNotLent(t *testing.T) {
	back := countReturns(t)
	f := Encoded(&Fault{Code: FaultMoved, Message: "object migrated", Data: []byte("forwarding reference")})
	want := append([]byte(nil), f.enc...)
	encode := []func(m *Message) error{
		func(m *Message) error { return Write(io.Discard, m) },
		func(m *Message) error { _, err := Marshal(m); return err },
		func(m *Message) error { _, err := EncodeBatch([]*Message{m}); return err },
	}
	for i, enc := range encode {
		m, err := FaultMessage(&Message{Type: TRequest, RequestID: uint64(i), Object: "ctx/obj-1", Method: "exchange"}, f)
		if err != nil || &m.Body[0] != &f.enc[0] {
			t.Fatalf("reply %d does not carry the fault's encoding (%v)", i, err)
		}
		if err := enc(m); err != nil {
			t.Fatal(err)
		}
	}
	if n := back[&f.enc[0]]; n != 0 || !bytes.Equal(f.enc, want) {
		t.Fatalf("an encoded fault went back to bufpool %d times; its bytes now %x", n, f.enc)
	}
	if got, ok := DecodeFault(want).(*Fault); !ok || got.Code != f.Code || got.Message != f.Message || !bytes.Equal(got.Data, f.Data) {
		t.Fatalf("the encoding decodes to %+v", got)
	}
}
