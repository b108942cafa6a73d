package core

import (
	"context"
	"sync/atomic"

	"openhpcxx/internal/bufpool"
	"openhpcxx/internal/xdr"
)

// Call invokes a remote method with typed, XDR-marshaled arguments and
// results. Req and Resp are pointer types implementing the xdr
// interfaces; Resp is allocated by the stub.
func Call[Req xdr.Marshaler, Resp any, PResp interface {
	*Resp
	xdr.Unmarshaler
}](g *GlobalPtr, method string, req Req) (*Resp, error) {
	return CallCtx[Req, Resp, PResp](context.Background(), g, method, req)
}

// CallCtx is Call bounded by a context: the deadline travels in the wire
// header and cancellation abandons an overdue in-flight exchange (see
// GlobalPtr.InvokeCtx).
func CallCtx[Req xdr.Marshaler, Resp any, PResp interface {
	*Resp
	xdr.Unmarshaler
}](ctx context.Context, g *GlobalPtr, method string, req Req) (*Resp, error) {
	// Arguments go into a pooled buffer sized by this GP's last call, back
	// only on success: a failed attempt may still sit in a coalescer.
	var e xdr.Encoder
	e.SetBuf(bufpool.Get(int(g.argSize.Load()))[:0])
	if err := req.MarshalXDR(&e); err != nil {
		return nil, err
	}
	args := e.Bytes()
	g.argSize.Store(int64(len(args)))
	out, err := g.InvokeCtx(ctx, method, args)
	if err != nil {
		return nil, err
	}
	resp := PResp(new(Resp))
	err = xdr.Unmarshal(out, resp)
	bufpool.Put(args) // after the decode: a reply may alias the request
	if err != nil {
		return nil, err
	}
	return (*Resp)(resp), nil
}

// Handler adapts a typed implementation function into a Method. It is
// the server-side counterpart of Call. A Req's Int32s/Float64s slices are
// lent (xdr.Decoder.Lend) and valid until fn returns: fn copies what it
// keeps. The reply it returns is lent too (see lentReplies): a method
// that wraps the stub returns that slice, or a prefix of it, and does not
// keep it.
func Handler[Req any, PReq interface {
	*Req
	xdr.Unmarshaler
}, Resp xdr.Marshaler](fn func(*Req) (Resp, error)) Method {
	// The last reply's size is the next buffer's, so the encoder rarely grows.
	size := new(atomic.Int64)
	return func(args []byte) ([]byte, error) {
		d := xdr.NewDecoder(args)
		d.Lend()
		defer d.Release() // after the reply, which may echo them, is encoded
		req := PReq(new(Req))
		if err := d.DecodeFull(req); err != nil {
			return nil, err
		}
		resp, err := fn((*Req)(req))
		if err != nil {
			return nil, err
		}
		buf := bufpool.Get(int(size.Load()))
		var e xdr.Encoder
		e.SetBuf(buf[:0])
		if err := resp.MarshalXDR(&e); err != nil {
			return nil, err
		}
		out := e.Bytes()
		size.Store(int64(len(out)))
		if cap(out) != cap(buf) { // the encoder outgrew buf and copied out of it
			bufpool.Put(buf)
			return out, nil
		}
		lentReplies[lentNext.Add(1)%uint32(len(lentReplies))].Store(&out[:1][0])
		return out, nil
	}
}

// A Method returns a bare slice, so whether dispatch may give a reply
// back to bufpool has to be read off the slice: a stub records the base of
// each buffer it lends here, and dispatch claims it by compare-and-swap
// the moment the Method returns. The table is small and fixed (like wire's
// intern table): a stub called outside dispatch, or a lend overwritten
// before its claim, leaves garbage — one allocation — and a slice the ORB
// did not lend is never in the table, so never recycled.
var (
	lentReplies [8]atomic.Pointer[byte]
	lentNext    atomic.Uint32
)

// claimReply reports whether a stub lent out; if so the caller now owns it.
func claimReply(out []byte) bool {
	if cap(out) == 0 {
		return false
	}
	base := &out[:1][0]
	for i := range lentReplies {
		if lentReplies[i].Load() == base && lentReplies[i].CompareAndSwap(base, nil) {
			return true
		}
	}
	return false
}

// Int32Slice is a ready-made XDR wrapper for []int32 — the payload type
// of the paper's bandwidth experiment ("the requests exchange an array
// of integers between the client and the server").
type Int32Slice struct{ V []int32 }

// MarshalXDR implements xdr.Marshaler.
func (s *Int32Slice) MarshalXDR(e *xdr.Encoder) error {
	e.PutInt32s(s.V)
	return nil
}

// UnmarshalXDR implements xdr.Unmarshaler.
func (s *Int32Slice) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	s.V, err = d.Int32s()
	return err
}

// StringValue is a ready-made XDR wrapper for a single string.
type StringValue struct{ V string }

// MarshalXDR implements xdr.Marshaler.
func (s *StringValue) MarshalXDR(e *xdr.Encoder) error {
	e.PutString(s.V)
	return nil
}

// UnmarshalXDR implements xdr.Unmarshaler.
func (s *StringValue) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	s.V, err = d.String()
	return err
}

// Empty is a zero-field XDR value for methods without inputs or outputs.
type Empty struct{}

// MarshalXDR implements xdr.Marshaler.
func (*Empty) MarshalXDR(*xdr.Encoder) error { return nil }

// UnmarshalXDR implements xdr.Unmarshaler.
func (*Empty) UnmarshalXDR(*xdr.Decoder) error { return nil }

// Float64Slice is a ready-made XDR wrapper for []float64.
type Float64Slice struct{ V []float64 }

// MarshalXDR implements xdr.Marshaler.
func (s *Float64Slice) MarshalXDR(e *xdr.Encoder) error {
	e.PutFloat64s(s.V)
	return nil
}

// UnmarshalXDR implements xdr.Unmarshaler.
func (s *Float64Slice) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	s.V, err = d.Float64s()
	return err
}
