package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"testing/quick"

	"openhpcxx/internal/errs"
	"openhpcxx/internal/xdr"
)

func sample() *Message {
	return &Message{
		Type:      TRequest,
		RequestID: 42,
		Object:    "ctx-a/obj-7",
		Method:    "Exchange",
		Epoch:     3,
		Envelopes: []Envelope{
			{ID: "encrypt", Data: []byte{1, 2, 3}},
			{ID: "quota", Data: nil},
		},
		Body: []byte("payload"),
	}
}

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sample()
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.RequestID != in.RequestID || out.Object != in.Object ||
		out.Method != in.Method || out.Epoch != in.Epoch {
		t.Fatalf("header mismatch: %+v vs %+v", out, in)
	}
	if len(out.Envelopes) != 2 || out.Envelopes[0].ID != "encrypt" ||
		!bytes.Equal(out.Envelopes[0].Data, []byte{1, 2, 3}) || out.Envelopes[1].ID != "quota" {
		t.Fatalf("envelopes: %+v", out.Envelopes)
	}
	if !bytes.Equal(out.Body, in.Body) {
		t.Fatalf("body %q", out.Body)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left in stream", buf.Len())
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		m := sample()
		m.RequestID = uint64(i)
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		m, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if m.RequestID != uint64(i) {
			t.Fatalf("frame %d has id %d", i, m.RequestID)
		}
	}
}

func TestBadMagic(t *testing.T) {
	e := xdr.NewEncoder(16)
	e.PutUint32(8)
	e.PutUint32(0xdeadbeef)
	e.PutUint32(Version)
	_, err := Read(bytes.NewReader(e.Bytes()))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

// withVersion returns m's encoding (no length prefix) with the version
// word overwritten; it lives after the magic.
func withVersion(t *testing.T, m *Message, ver uint32) []byte {
	t.Helper()
	raw, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(raw[4:], ver)
	return raw
}

// The decoder accepts exactly Version: every other version word is
// rejected, whichever entry point the bytes arrive through, with the
// permanent (codec) sentinel.
func TestBadVersion(t *testing.T) {
	for _, ver := range []uint32{0, 1, 2, 3, 5, 0xFFFFFFFF} {
		raw := withVersion(t, sample(), ver)
		check := func(entry string, err error) {
			t.Helper()
			if !errors.Is(err, ErrBadVersion) || errs.CodeOf(err) != errs.Codec {
				t.Errorf("version %#x through %s: got %v, want ErrBadVersion coded codec", ver, entry, err)
			}
		}
		readErr, batchErr := decodeBothWays(raw)
		check("Read", readErr)
		check("DecodeBatch", batchErr)
		check("xdr.Unmarshal", xdr.Unmarshal(raw, new(Message)))
	}
	if err := xdr.Unmarshal(withVersion(t, sample(), Version), new(Message)); err != nil {
		t.Fatalf("version %d rejected: %v", Version, err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var hdr [4]byte
	n := uint32(MaxFrame + 1)
	hdr[0], hdr[1], hdr[2], hdr[3] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	_, err := Read(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:buf.Len()-3]
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Fatal("want error on truncated frame")
	}
}

func TestEnvelopeLimit(t *testing.T) {
	m := sample()
	m.Envelopes = make([]Envelope, 65)
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("want envelope-limit error")
	}
}

func TestMsgTypeString(t *testing.T) {
	cases := map[MsgType]string{TRequest: "request", TReply: "reply", TFault: "fault", TControl: "control", MsgType(9): "msgtype(9)"}
	for in, want := range cases {
		if in.String() != want {
			t.Errorf("%d.String() = %q want %q", uint32(in), in.String(), want)
		}
	}
}

func TestFaultRoundTrip(t *testing.T) {
	req := sample()
	in := &Fault{Code: FaultQuota, Message: "out of requests", Data: []byte{9}}
	reply, err := FaultMessage(req, in)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TFault || reply.RequestID != req.RequestID {
		t.Fatalf("reply header %+v", reply)
	}
	got := DecodeFault(reply.Body)
	var f *Fault
	if !errors.As(got, &f) {
		t.Fatalf("DecodeFault returned %T", got)
	}
	if f.Code != FaultQuota || f.Message != "out of requests" || !bytes.Equal(f.Data, []byte{9}) {
		t.Fatalf("fault %+v", f)
	}
}

func TestAsFaultWrapsPlainErrors(t *testing.T) {
	f := AsFault(errors.New("boom"))
	if f.Code != FaultInternal || f.Message != "boom" {
		t.Fatalf("%+v", f)
	}
	orig := Faultf(FaultAuth, "denied %s", "alice")
	if got := AsFault(fmt.Errorf("call failed: %w", orig)); got != orig {
		t.Fatal("AsFault must unwrap")
	}
	if orig.Message != "denied alice" {
		t.Fatalf("Faultf message %q", orig.Message)
	}
}

func TestFaultCodeStrings(t *testing.T) {
	for c := FaultInternal; c <= FaultBadRequest; c++ {
		if s := c.String(); s == "" || s[0] == 'f' && s != "fault(0)" && len(s) > 6 && s[:6] == "fault(" {
			t.Errorf("code %d has no name: %q", c, s)
		}
	}
	if FaultCode(99).String() != "fault(99)" {
		t.Fatal("unknown code formatting")
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Code: FaultMoved, Message: "gone"}
	want := "remote fault [moved]: gone"
	if f.Error() != want {
		t.Fatalf("Error() = %q want %q", f.Error(), want)
	}
}

// Property: arbitrary messages survive the frame round trip.
func TestQuickMessageRoundTrip(t *testing.T) {
	f := func(reqID uint64, object, method string, epoch uint64, envIDs []string, body []byte) bool {
		in := &Message{Type: TReply, RequestID: reqID, Object: object, Method: method, Epoch: epoch, Body: body}
		for i, id := range envIDs {
			if i == 8 {
				break
			}
			in.Envelopes = append(in.Envelopes, Envelope{ID: id, Data: []byte(id)})
		}
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			return false
		}
		out, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(out.Envelopes) == 0 {
			out.Envelopes = nil
		}
		if len(in.Envelopes) == 0 {
			in.Envelopes = nil
		}
		return reflect.DeepEqual(fields(in), fields(out))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Read never panics on arbitrary bytes.
func TestQuickReadRobust(t *testing.T) {
	f := func(p []byte) bool {
		// The property under test is "no panic"; the decode error (or
		// message) itself is irrelevant here.
		_, _ = Read(bytes.NewReader(p))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// fields is m's frame content, without what the process keeps beside it
// (a loan, the pool a header goes back to).
func fields(m *Message) Message {
	c := *m
	c.lent, c.home, c.self = nil, nil, nil
	return c
}

// goldenFrame is one fully populated frame — traced, hinted, one flag
// bit this version does not know, two envelopes — and goldenBytes its
// encoding. A change to the layout shows up here as a diff.
var goldenFrame = Message{
	Type:      TRequest,
	RequestID: 0x0102030405060708,
	Object:    "ctx/o",
	Method:    "get",
	Epoch:     9,
	Deadline:  0x1122334455667788,
	TraceID:   0xa1a2a3a4a5a6a7a8,
	SpanID:    0xb1b2b3b4b5b6b7b8,
	Flags:     FlagKeepHint | 1<<31,
	Envelopes: []Envelope{{ID: "glue", Data: []byte{1, 2, 3, 4, 5}}, {ID: "q", Data: nil}},
	Body:      []byte("hello!"),
}

var goldenBytes = []byte{
	0x00, 0x00, 0x00, 0x7c, // length prefix: 124 bytes follow
	'H', 'P', 'C', 'X', // magic
	0x00, 0x00, 0x00, 0x04, // version
	0x00, 0x00, 0x00, 0x01, // type: request
	0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // request id
	0x00, 0x00, 0x00, 0x05, 'c', 't', 'x', '/', 'o', 0, 0, 0, // object
	0x00, 0x00, 0x00, 0x03, 'g', 'e', 't', 0, // method
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, // epoch
	0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, // deadline
	0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, // trace id
	0xb1, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6, 0xb7, 0xb8, // span id
	0x80, 0x00, 0x00, 0x01, // flags: unknown bit 31, keep-hint
	0x00, 0x00, 0x00, 0x02, // envelope count
	0x00, 0x00, 0x00, 0x04, 'g', 'l', 'u', 'e', // envelope 0 id
	0x00, 0x00, 0x00, 0x05, 1, 2, 3, 4, 5, 0, 0, 0, // envelope 0 data
	0x00, 0x00, 0x00, 0x01, 'q', 0, 0, 0, // envelope 1 id
	0x00, 0x00, 0x00, 0x00, // envelope 1 data: empty
	0x00, 0x00, 0x00, 0x06, 'h', 'e', 'l', 'l', 'o', '!', 0, 0, // body
}

func TestGoldenFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &goldenFrame); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), goldenBytes) {
		t.Fatalf("frame layout changed:\n got %x\nwant %x", buf.Bytes(), goldenBytes)
	}
	out, err := Read(bytes.NewReader(goldenBytes))
	if err != nil {
		t.Fatal(err)
	}
	want := goldenFrame
	want.Envelopes = []Envelope{goldenFrame.Envelopes[0], {ID: "q", Data: []byte{}}}
	if !reflect.DeepEqual(fields(out), want) {
		t.Fatalf("golden bytes decoded to\n %+v\nwant\n %+v", *out, want)
	}
}

// The flags word is carried, never interpreted: whatever a peer set —
// bits this version does not know, or a cleared keep-hint on a traced
// frame — leaves a relay exactly as it arrived.
func TestFlagsSurviveRelayByteForByte(t *testing.T) {
	for _, flags := range []uint32{0, FlagKeepHint, 1 << 7, 0xFFFFFFFE, 0xFFFFFFFF} {
		in := sample()
		in.TraceID, in.SpanID = 7, 8
		in.Flags = flags
		raw, err := Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var relayed Message
		if err := xdr.Unmarshal(raw, &relayed); err != nil {
			t.Fatal(err)
		}
		if relayed.Flags != flags || relayed.KeepHint() != (flags&FlagKeepHint != 0) {
			t.Fatalf("flags %#x decoded as %#x (keep-hint %v)", flags, relayed.Flags, relayed.KeepHint())
		}
		again, err := Marshal(&relayed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, again) {
			t.Fatalf("flags %#x: relay changed the frame:\n in  %x\n out %x", flags, raw, again)
		}
	}
}

func TestKeepHintRoundTrip(t *testing.T) {
	in := sample()
	in.TraceID, in.SpanID = 11, 12
	in.SetKeepHint(true)
	if !in.KeepHint() {
		t.Fatal("SetKeepHint(true) did not set the bit")
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !out.KeepHint() {
		t.Fatal("keep-hint lost in round trip")
	}
	out.SetKeepHint(false)
	if out.KeepHint() || out.Flags != 0 {
		t.Fatalf("SetKeepHint(false) left flags %#x", out.Flags)
	}
	// Unknown future bits must survive a round trip untouched.
	in.Flags = FlagKeepHint | 1<<7
	buf.Reset()
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	if out, err = Read(&buf); err != nil {
		t.Fatal(err)
	}
	if out.Flags != FlagKeepHint|1<<7 {
		t.Fatalf("flags %#x, want %#x", out.Flags, FlagKeepHint|1<<7)
	}
}

func TestTraceIDsRoundTrip(t *testing.T) {
	in := sample()
	in.TraceID, in.SpanID = 0xdeadbeefcafe, 0x1234
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceID != in.TraceID || out.SpanID != in.SpanID {
		t.Fatalf("trace ids %d/%d, want %d/%d", out.TraceID, out.SpanID, in.TraceID, in.SpanID)
	}
	if out.Deadline != in.Deadline {
		t.Fatalf("deadline %d want %d", out.Deadline, in.Deadline)
	}
}

func TestWriteOverPipe(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go func() {
		// A write failure surfaces as a Read error on c2 below; this
		// goroutine may not call t.Fatal.
		_ = Write(c1, sample())
	}()
	m, err := Read(c2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Method != "Exchange" {
		t.Fatalf("method %q", m.Method)
	}
}

func TestReadEOF(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func BenchmarkWriteRead(b *testing.B) {
	m := sample()
	m.Body = make([]byte, 4096)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Write(&buf, m); err != nil {
			b.Fatal(err)
		}
		if _, err := Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
