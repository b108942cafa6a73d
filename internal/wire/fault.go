package wire

import (
	"errors"
	"fmt"

	"openhpcxx/internal/errs"
	"openhpcxx/internal/xdr"
)

// FaultCode classifies remote errors so clients can react mechanically
// (retry after a move, re-select a protocol, surface a quota violation).
// The values are numerically identical to the wire-shared subset of the
// in-process taxonomy (internal/errs.Code): a fault decoded off the
// wire and an error minted locally carry the same code and class.
// TestFaultErrsBijective pins the two tables together.
type FaultCode uint32

// Fault codes.
const (
	FaultInternal      FaultCode = 1  // unclassified server-side failure
	FaultNoObject      FaultCode = 2  // unknown object id
	FaultNoMethod      FaultCode = 3  // object has no such method
	FaultMoved         FaultCode = 4  // object migrated; Data holds the new OR
	FaultAuth          FaultCode = 5  // authentication failed
	FaultQuota         FaultCode = 6  // quota capability exhausted
	FaultCapability    FaultCode = 7  // capability processing failed
	FaultNotApplicable FaultCode = 8  // protocol not applicable for this pair
	FaultBadRequest    FaultCode = 9  // malformed arguments
	FaultExpired       FaultCode = 10 // request deadline already passed; not retryable
	FaultUnavailable   FaultCode = 11 // endpoint draining/overloaded; retry elsewhere
)

func (c FaultCode) String() string {
	switch c {
	case FaultInternal:
		return "internal"
	case FaultNoObject:
		return "no-object"
	case FaultNoMethod:
		return "no-method"
	case FaultMoved:
		return "moved"
	case FaultAuth:
		return "auth"
	case FaultQuota:
		return "quota"
	case FaultCapability:
		return "capability"
	case FaultNotApplicable:
		return "not-applicable"
	case FaultBadRequest:
		return "bad-request"
	case FaultExpired:
		return "expired"
	case FaultUnavailable:
		return "unavailable"
	}
	return fmt.Sprintf("fault(%d)", uint32(c))
}

// Err returns the fault code's twin in the in-process taxonomy.
func (c FaultCode) Err() errs.Code { return errs.Code(c) }

// Class returns the reaction class of this fault code (the errs
// taxonomy's, since the code spaces are shared).
func (c FaultCode) Class() errs.Class { return errs.Code(c).Class() }

// Fault is a remote error. It travels as the body of a TFault message and
// implements error on the client side.
type Fault struct {
	Code    FaultCode
	Message string
	// Data carries code-specific payload; for FaultMoved it is the
	// XDR-encoded new ObjectRef.
	Data []byte

	enc []byte // Encoded's body, which every reply carrying f shares
}

// Encoded encodes f once, for a fault that answers many requests alike
// (a tombstone's FaultMoved): FaultMessage then sends those bytes, shared
// and never lent, so no Release hands them to bufpool.
func Encoded(f *Fault) *Fault {
	var e xdr.Encoder
	e.SetBuf(make([]byte, 0, 16+len(f.Message)+len(f.Data)))
	_ = f.MarshalXDR(&e)
	f.enc = e.Bytes()
	return f
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("remote fault [%s]: %s", f.Code, f.Message)
}

// ErrCode implements errs.Coder: errs.CodeOf classifies a decoded fault
// directly, with the same code an in-process errs.E would carry.
func (f *Fault) ErrCode() uint32 { return uint32(f.Code) }

// MarshalXDR encodes the fault body.
func (f *Fault) MarshalXDR(e *xdr.Encoder) error {
	e.PutUint32(uint32(f.Code))
	e.PutString(f.Message)
	e.PutOpaque(f.Data)
	return nil
}

// UnmarshalXDR decodes the fault body.
func (f *Fault) UnmarshalXDR(d *xdr.Decoder) error {
	c, err := d.Uint32()
	if err != nil {
		return err
	}
	f.Code = FaultCode(c)
	if f.Message, err = d.String(); err != nil {
		return err
	}
	f.Data, err = d.Opaque()
	return err
}

// Faultf builds a Fault with a formatted message.
func Faultf(code FaultCode, format string, args ...any) *Fault {
	return &Fault{Code: code, Message: fmt.Sprintf(format, args...)}
}

// AsFault extracts a *Fault from an error chain, or builds one so
// servers always have something well-formed to send. A coded error
// (errs.E) whose code lies in the wire-shared range crosses with its
// code intact — a local quota denial faults as FaultQuota, not as an
// anonymous internal error; in-process-only codes (transport, codec,
// config ...) downgrade to FaultInternal since the peer could not
// react to them mechanically anyway.
func AsFault(err error) *Fault {
	if f, ok := err.(*Fault); ok {
		return f
	}
	var f *Fault
	if errors.As(err, &f) {
		return f
	}
	if c := errs.CodeOf(err); c > errs.Unknown && c < errs.CodeLocalBase {
		return &Fault{Code: FaultCode(c), Message: err.Error()}
	}
	return &Fault{Code: FaultInternal, Message: err.Error()}
}

// FaultMessage builds the TFault reply for a request: a pooled header
// (Pooled), which the encoder it is handed to gives back.
func FaultMessage(req *Message, err error) (*Message, error) {
	f := AsFault(err)
	body := f.enc
	if body == nil {
		var merr error
		if body, merr = xdr.Marshal(f); merr != nil {
			return nil, merr
		}
	}
	return Pooled(Message{
		Type:      TFault,
		RequestID: req.RequestID,
		Object:    req.Object,
		Method:    req.Method,
		Epoch:     req.Epoch,
		Body:      body,
	}), nil
}

// DecodeFault parses a TFault body into an error.
func DecodeFault(body []byte) error {
	var d xdr.Decoder
	d.Reset(body)
	f := new(Fault)
	err := f.UnmarshalXDR(&d)
	if err == nil {
		err = d.Done()
	}
	if err != nil {
		return errs.Wrap(errs.Codec, err, "wire: undecodable fault")
	}
	return f
}
