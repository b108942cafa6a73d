package wire

import (
	"bytes"
	"reflect"
	"testing"

	"openhpcxx/internal/xdr"
)

// FuzzRead drives the frame decoder with arbitrary bytes; it must never
// panic, and any frame it accepts must re-encode and re-decode stably.
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	seedErr := Write(&seed, &Message{
		Type:      TRequest,
		Object:    "ctx/obj-1",
		Method:    "exchange",
		Epoch:     2,
		Envelopes: []Envelope{{ID: "glue", Data: []byte("tag")}, {ID: "encrypt", Data: []byte{1, 2}}},
		Body:      []byte("body"),
	})
	if seedErr != nil {
		f.Fatal(seedErr)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 1, 2, 3, 4})

	// TBatch seed: a micro-batch of two requests (one enveloped), so the
	// fuzzer explores the batch decoder's count/opaque/nested-frame paths.
	batch, err := EncodeBatch([]*Message{
		{Type: TRequest, Object: "ctx/obj-1", Method: "exchange", Body: []byte("a")},
		{Type: TRequest, Object: "ctx/obj-2", Method: "get", Epoch: 3,
			Envelopes: []Envelope{{ID: "glue", Data: []byte("sec")}}, Body: []byte("bb")},
	})
	if err != nil {
		f.Fatal(err)
	}
	var batchSeed bytes.Buffer
	if err := Write(&batchSeed, batch); err != nil {
		f.Fatal(err)
	}
	f.Add(batchSeed.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data))
		// The releasing read accepts and rejects exactly what Read does,
		// and decodes the same message.
		lm, lerr := ReadLent(bytes.NewReader(data))
		if (err == nil) != (lerr == nil) {
			t.Fatalf("Read: %v, ReadLent: %v", err, lerr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(fields(m), fields(lm)) { // the frame stays with lm, unreleased
			t.Fatalf("Read decoded %+v, ReadLent %+v", m, lm)
		}
		if m.Type == TBatch {
			// Any accepted batch must decode without panicking, and an
			// accepted decode must re-encode and re-decode stably.
			subs, err := DecodeBatch(m)
			if err == nil {
				re, err := EncodeBatch(subs)
				if err != nil {
					t.Fatalf("accepted batch failed to re-encode: %v", err)
				}
				subs2, err := DecodeBatch(re)
				if err != nil || len(subs2) != len(subs) {
					t.Fatalf("unstable batch round trip: %v (%d vs %d)", err, len(subs2), len(subs))
				}
			}
		}
		var out bytes.Buffer
		sent := fields(m) // Write ends m, a pooled header
		if err := Write(&out, m); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		m2, err := Read(&out)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if m := &sent; m.Type != m2.Type || m.Object != m2.Object || m.Method != m2.Method ||
			m.Epoch != m2.Epoch || !bytes.Equal(m.Body, m2.Body) || len(m.Envelopes) != len(m2.Envelopes) ||
			m.TraceID != m2.TraceID || m.SpanID != m2.SpanID || m.Deadline != m2.Deadline {
			t.Fatalf("unstable round trip: %+v vs %+v", m, m2)
		}
	})
}

// encodeFrame returns m's header+body encoding (everything after the
// frame length prefix).
func encodeFrame(t testing.TB, m *Message) []byte {
	t.Helper()
	e := xdr.NewEncoder(64 + len(m.Body))
	if err := m.MarshalXDR(e); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), e.Bytes()...)
}

// FuzzDecodeHeader throws arbitrary bytes directly at the header
// decoder (no length prefix). The decoder must never panic, and any
// input it accepts must re-encode to a frame that decodes to the same
// message — corrupt trace IDs, envelope chains, or deadlines cannot
// smuggle state through a re-encode. Seeds cover traced and untraced
// frames, a hand-rolled one, and one with the wrong version word.
func FuzzDecodeHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x48, 0x50, 0x43, 0x58}) // bare magic
	f.Add(encodeFrame(f, &Message{Type: TRequest, RequestID: 7, Object: "ctx/obj-1", Method: "echo", Body: []byte("hi")}))
	f.Add(encodeFrame(f, &Message{
		Type: TRequest, RequestID: 9, Object: "ctx/obj-2", Method: "exchange",
		Epoch: 3, Deadline: 1700000000000000000, TraceID: 0xfeed, SpanID: 0xbeef,
		Envelopes: []Envelope{{ID: "enc", Data: []byte{1, 2}}, {ID: "auth", Data: []byte{3}}},
		Body:      bytes.Repeat([]byte{0xab}, 32),
	}))
	f.Add(encodeFrame(f, &Message{Type: TFault, Method: "m", Body: []byte("boom")}))
	// Hand-rolled frame, field by field.
	raw := xdr.NewEncoder(64)
	raw.PutUint32(Magic)
	raw.PutUint32(Version)
	raw.PutUint32(uint32(TRequest))
	raw.PutUint64(5)
	raw.PutString("o")
	raw.PutString("m")
	raw.PutUint64(0)
	raw.PutInt64(0)
	raw.PutUint64(0)
	raw.PutUint64(0)
	raw.PutUint32(0)
	raw.PutUint32(0)
	raw.PutOpaque([]byte("raw"))
	f.Add(append([]byte(nil), raw.Bytes()...))
	wrongVersion := append([]byte(nil), raw.Bytes()...)
	wrongVersion[7] = 3
	f.Add(wrongVersion)

	f.Fuzz(func(t *testing.T, data []byte) {
		var m1 Message
		if err := xdr.Unmarshal(data, &m1); err != nil {
			return // rejected input: fine, as long as it did not panic
		}
		re := encodeFrame(t, &m1)
		var m2 Message
		if err := xdr.Unmarshal(re, &m2); err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("decode/encode not stable:\n m1=%+v\n m2=%+v", m1, m2)
		}
	})
}

// FuzzDecodeBatch throws arbitrary bytes at the TBatch body decoder: no
// panic, hostile counts rejected before per-entry work, and accepted
// batches re-encode to an equal batch.
func FuzzDecodeBatch(f *testing.F) {
	mk := func(msgs ...*Message) []byte {
		b, err := EncodeBatch(msgs)
		if err != nil {
			f.Fatal(err)
		}
		return b.Body
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // hostile count
	f.Add(mk(&Message{Type: TRequest, RequestID: 1, Object: "o", Method: "m", Body: []byte("a")}))
	f.Add(mk(
		&Message{Type: TRequest, RequestID: 1, Object: "o", Method: "m", TraceID: 1, SpanID: 2, Body: []byte("a")},
		&Message{Type: TRequest, RequestID: 2, Object: "o", Method: "m", Envelopes: []Envelope{{ID: "q", Data: []byte{9}}}, Body: []byte("b")},
	))

	f.Fuzz(func(t *testing.T, body []byte) {
		outer := &Message{Type: TBatch, Body: body}
		subs, err := DecodeBatch(outer)
		if err != nil {
			return
		}
		if len(subs) == 0 || len(subs) > MaxBatchMessages {
			t.Fatalf("accepted batch with %d sub-messages", len(subs))
		}
		re, err := EncodeBatch(subs)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		back, err := DecodeBatch(re)
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v", err)
		}
		if !reflect.DeepEqual(subs, back) {
			t.Fatalf("batch decode/encode not stable: %d vs %d messages", len(subs), len(back))
		}
	})
}
