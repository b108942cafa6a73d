package wire

import (
	"encoding/binary"

	"openhpcxx/internal/bufpool"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/xdr"
)

// TBatch is a micro-batch frame: its body is a count followed by
// concatenated sub-messages, each a complete (magic+version checked)
// message encoding. The client-side coalescer packs many small
// requests into one TBatch so per-frame latency and framing overhead
// are paid once per flush instead of once per call; the server
// dispatches every sub-request through the ordinary path (including
// glue capability un-processing — each sub-message carries its own
// envelope chain) and answers with a TBatch of the replies in request
// order.
const TBatch MsgType = 5

// MaxBatchMessages bounds the sub-message count a decoder accepts,
// protecting servers from hostile counts.
const MaxBatchMessages = 4096

// EncodeBatch packs msgs into one TBatch frame. The outer frame's
// RequestID is left zero — the transport assigns it like any other
// request — and sub-messages keep their own ids (reply matching inside
// a batch is positional). Like Write it releases every sub-message, and
// the frame it returns holds its body on loan.
func EncodeBatch(msgs []*Message) (*Message, error) {
	defer func() {
		for _, m := range msgs {
			m.Release()
		}
	}()
	if len(msgs) == 0 {
		return nil, errs.New(errs.BadRequest, "wire: empty batch")
	}
	if len(msgs) > MaxBatchMessages {
		return nil, errs.Newf(errs.BadRequest, "wire: batch of %d exceeds %d", len(msgs), MaxBatchMessages)
	}
	size := 4
	for _, m := range msgs {
		if m.Type == TBatch {
			return nil, errs.New(errs.BadRequest, "wire: nested batch")
		}
		size += 4 + m.encodedLen()
	}
	if size > MaxFrame {
		return nil, ErrTooLarge
	}
	// Each sub-message is an XDR opaque: encoded in place behind its
	// length word, which is patched once the length is known. An
	// encoding is a whole number of words, so no padding follows.
	body := binary.BigEndian.AppendUint32(bufpool.Get(size)[:0], uint32(len(msgs)))
	for _, m := range msgs {
		at := len(body)
		var err error
		if body, err = appendMessage(append(body, 0, 0, 0, 0), m); err != nil {
			return nil, err
		}
		binary.BigEndian.PutUint32(body[at:], uint32(len(body)-at-4))
	}
	return &Message{Type: TBatch, Body: body, lent: body}, nil
}

// minBatchEntry is the fewest bytes a batch entry takes: its length word and an empty message.
var minBatchEntry = 4 + (&Message{}).encodedLen()

// DecodeBatch unpacks a TBatch frame into its sub-messages. Nested
// batches are rejected, so dispatch recursion is bounded at one level.
// The sub-messages are one slab, and their bodies disjoint views of
// m.Body: keeping one sub-message keeps the whole batch frame.
func DecodeBatch(m *Message) ([]*Message, error) {
	if m.Type != TBatch {
		return nil, errs.Newf(errs.Codec, "wire: DecodeBatch on %v frame", m.Type)
	}
	var d xdr.Decoder
	d.Reset(m.Body)
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, errs.New(errs.Codec, "wire: empty batch")
	}
	if n > MaxBatchMessages || int(n) > d.Remaining()/minBatchEntry {
		// No slab is sized by a count the frame's bytes cannot back.
		return nil, errs.Newf(errs.Codec, "wire: batch of %d in %d bytes (at most %d)", n, d.Remaining(), MaxBatchMessages)
	}
	slab := make([]Message, n)
	out := make([]*Message, 0, n)
	for i := range slab {
		raw, err := d.OpaqueView()
		if err != nil {
			return nil, errs.Wrapf(errs.Codec, err, "wire: batch entry %d", i)
		}
		sub := &slab[i]
		if err := decodeMessage(raw, sub); err != nil {
			return nil, errs.Wrapf(errs.Codec, err, "wire: batch entry %d", i)
		}
		if sub.Type == TBatch {
			return nil, errs.Newf(errs.Codec, "wire: batch entry %d is a nested batch", i)
		}
		out = append(out, sub)
	}
	return out, nil
}
