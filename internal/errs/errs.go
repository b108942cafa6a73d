// Package errs is the project's coded-error taxonomy: every error the
// runtime mints carries a machine-readable Code and a reaction Class
// (retryable / permanent / hedgeable / resource), so SLO accounting,
// retry budgets, and the introspection plane can react to *kinds* of
// failure instead of grepping message strings.
//
// The code space is shared with the wire fault codes (internal/wire's
// FaultCode values 1..11 are the same numbers here), so a fault decoded
// off the wire and an error minted in-process carry the same code and
// class — the capability model's structured denials (quota, auth,
// capability) classify identically whether they were refused locally or
// by the remote glue chain. Codes at or above CodeLocalBase never
// travel as faults; the wire layer downgrades them to Internal when a
// server must answer with one.
//
// errs deliberately imports nothing but the standard library (and no
// other project package): xdr, netsim, and wire — the bottom of the
// dependency tower — all mint coded errors through it. The wire
// package, which does know both vocabularies, owns the Fault<->errs
// bridge; it participates here only through the Coder interface.
//
// Construction:
//
//	errs.New(errs.Config, "stream: empty address")
//	errs.Newf(errs.NoObject, "registry: no binding for %q", name)
//	errs.Wrapf(errs.Codec, err, "xdr: field %s", f.Name)
//	errs.New(errs.Unavailable, "draining").With("ctx", c.Name())
//
// Classification (works through any errors.Is/As chain, including
// *wire.Fault and context errors):
//
//	errs.CodeOf(err)  -> errs.Code
//	errs.ClassOf(err) -> errs.Class
//	errs.HasCode(err, errs.Quota)
package errs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Code identifies one failure kind. Values 1..11 are numerically
// identical to the wire fault codes (internal/wire.FaultCode); values
// >= CodeLocalBase are in-process-only kinds that never travel as
// faults.
type Code uint32

// Wire-shared codes (numeric twins of wire.FaultCode).
const (
	Unknown       Code = 0  // unclassified; treat as permanent
	Internal      Code = 1  // unclassified server-side failure
	NoObject      Code = 2  // unknown object id / name
	NoMethod      Code = 3  // object has no such method
	Moved         Code = 4  // object migrated; chase the new reference
	Auth          Code = 5  // authentication failed
	Quota         Code = 6  // quota capability exhausted
	Capability    Code = 7  // capability processing failed
	NotApplicable Code = 8  // protocol not applicable for this pair
	BadRequest    Code = 9  // malformed arguments / bad input
	Expired       Code = 10 // request deadline already passed
	Unavailable   Code = 11 // endpoint draining/overloaded; retry elsewhere
)

// CodeLocalBase is the first in-process-only code. Local codes never
// travel as wire faults; wire.AsFault downgrades them to Internal.
const CodeLocalBase Code = 100

// In-process-only codes.
const (
	Transport Code = 100 // connection/dial/mux/link failure beneath the protocol
	Codec     Code = 101 // XDR or frame encode/decode failure
	Config    Code = 102 // invalid configuration, address, or API misuse
	Canceled  Code = 103 // caller canceled the work
	Exhausted Code = 104 // a client-side budget (retry tokens) ran dry
	Conflict  Code = 105 // duplicate registration / concurrent-update clash
)

// Class is the reaction a caller should have to a failure kind; it is
// what the retry-budget machinery keys on.
type Class uint8

const (
	// ClassPermanent failures will fail identically if re-issued
	// unchanged: never retry, never hedge.
	ClassPermanent Class = iota
	// ClassRetryable failures are safe to re-issue (the request never
	// executed: refused, undeliverable, or stale routing) but each retry
	// must draw from the retry budget so storms stay bounded.
	ClassRetryable
	// ClassHedgeable failures indicate the request was shed without
	// executing — safe not just to retry but to race a duplicate
	// against a slow first attempt (the hedged requests of the parked
	// Adaptivity v2 in ROADMAP.md).
	ClassHedgeable
	// ClassResource failures are budget/quota denials: retrying without
	// new budget is pointless, backing off or surfacing upward is right.
	ClassResource
)

func (c Class) String() string {
	switch c {
	case ClassPermanent:
		return "permanent"
	case ClassRetryable:
		return "retryable"
	case ClassHedgeable:
		return "hedgeable"
	case ClassResource:
		return "resource"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// codeInfo is the taxonomy table: name and class per code.
var codeInfo = map[Code]struct {
	name  string
	class Class
}{
	Internal:      {"internal", ClassPermanent},
	NoObject:      {"no-object", ClassPermanent},
	NoMethod:      {"no-method", ClassPermanent},
	Moved:         {"moved", ClassRetryable},
	Auth:          {"auth", ClassPermanent},
	Quota:         {"quota", ClassResource},
	Capability:    {"capability", ClassPermanent},
	NotApplicable: {"not-applicable", ClassRetryable},
	BadRequest:    {"bad-request", ClassPermanent},
	Expired:       {"expired", ClassHedgeable},
	Unavailable:   {"unavailable", ClassRetryable},
	Transport:     {"transport", ClassRetryable},
	Codec:         {"codec", ClassPermanent},
	Config:        {"config", ClassPermanent},
	Canceled:      {"canceled", ClassPermanent},
	Exhausted:     {"retry-budget-exhausted", ClassResource},
	Conflict:      {"conflict", ClassPermanent},
}

// String returns the stable name used in metric labels and /varz keys.
// Unknown codes render as "code(N)" so forward-compat faults from newer
// peers stay printable and countable.
func (c Code) String() string {
	if i, ok := codeInfo[c]; ok {
		return i.name
	}
	if c == Unknown {
		return "unknown"
	}
	return fmt.Sprintf("code(%d)", uint32(c))
}

// Class returns the reaction class for this code. Codes this build does
// not know (a newer peer's fault) classify permanent: never amplify
// load on a failure kind we cannot reason about.
func (c Code) Class() Class {
	if i, ok := codeInfo[c]; ok {
		return i.class
	}
	return ClassPermanent
}

// KnownCodes lists every code in the taxonomy in ascending numeric
// order; the runtime pre-resolves one error counter per entry.
func KnownCodes() []Code {
	out := make([]Code, 0, len(codeInfo))
	for c := range codeInfo {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Coder is implemented by errors that carry a taxonomy code without
// depending on this package's E type — notably *wire.Fault, whose
// FaultCode values share this numeric space.
type Coder interface {
	ErrCode() uint32
}

// KV is one key-value context pair attached to an error.
type KV struct {
	K string
	V any
}

// E is a coded error: code, message, optional cause, optional key-value
// context. It is errors.Is/As-compatible: Unwrap exposes the cause, so
// sentinel checks (context.Canceled, io.EOF, *wire.Fault) keep working
// through any wrap depth.
type E struct {
	Code  Code
	Msg   string
	Cause error
	kv    []KV
}

// New builds a coded error.
func New(code Code, msg string) *E {
	return &E{Code: code, Msg: msg}
}

// Newf builds a coded error with a formatted message. %w verbs are not
// interpreted — use Wrap/Wrapf to attach a cause.
func Newf(code Code, format string, args ...any) *E {
	return &E{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Wrap builds a coded error wrapping a cause. A nil cause is allowed
// (it degenerates to New).
func Wrap(code Code, cause error, msg string) *E {
	return &E{Code: code, Msg: msg, Cause: cause}
}

// Wrapf is Wrap with a formatted message.
func Wrapf(code Code, cause error, format string, args ...any) *E {
	return &E{Code: code, Msg: fmt.Sprintf(format, args...), Cause: cause}
}

// With attaches one key-value context pair and returns the error for
// chaining: errs.New(...).With("object", id).With("epoch", ep).
func (e *E) With(key string, value any) *E {
	e.kv = append(e.kv, KV{K: key, V: value})
	return e
}

// Context returns the attached key-value pairs in attachment order.
func (e *E) Context() []KV { return e.kv }

// Error renders "msg: cause {k=v, ...} [code]". The code rides at the
// end so callers' message prefixes survive intact.
func (e *E) Error() string {
	var b strings.Builder
	b.WriteString(e.Msg)
	if e.Cause != nil {
		if e.Msg != "" {
			b.WriteString(": ")
		}
		b.WriteString(e.Cause.Error())
	}
	if len(e.kv) > 0 {
		b.WriteString(" {")
		for i, kv := range e.kv {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=%v", kv.K, kv.V)
		}
		b.WriteString("}")
	}
	fmt.Fprintf(&b, " [%s]", e.Code)
	return b.String()
}

// Unwrap exposes the cause for errors.Is/As chains.
func (e *E) Unwrap() error { return e.Cause }

// ErrCode implements Coder.
func (e *E) ErrCode() uint32 { return uint32(e.Code) }

// Class returns the error's reaction class.
func (e *E) Class() Class { return e.Code.Class() }

// BudgetExhausted is the typed error surfaced when a retryable failure
// wanted another attempt but the GP's retry budget was dry: the caller
// sees both that the budget stopped the retry (code Exhausted, class
// resource) and what the last attempt actually hit (Code + Err).
type BudgetExhausted struct {
	// Code is the taxonomy code of the failure that asked for the
	// retry; /varz exhaustion counters are keyed on it.
	Code Code
	// Err is the last attempt's error.
	Err error
}

// Error renders the exhaustion with the denied failure's code.
func (b *BudgetExhausted) Error() string {
	return fmt.Sprintf("retry budget exhausted (would have retried %s): %v [%s]", b.Code, b.Err, Exhausted)
}

// Unwrap exposes the last attempt's error.
func (b *BudgetExhausted) Unwrap() error { return b.Err }

// ErrCode implements Coder: the exhaustion itself classifies as
// Exhausted/resource, not as the underlying failure.
func (b *BudgetExhausted) ErrCode() uint32 { return uint32(Exhausted) }

// CodeOf extracts the taxonomy code from an error chain: the first *E
// or Coder (so *wire.Fault classifies directly), with context
// cancellation/deadline mapped to Canceled/Expired. Unrecognized errors
// report Unknown.
func CodeOf(err error) Code {
	if err == nil {
		return Unknown
	}
	if c, ok := err.(Coder); ok {
		return Code(c.ErrCode())
	}
	var c Coder
	if errors.As(err, &c) {
		return Code(c.ErrCode())
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return Expired
	}
	if errors.Is(err, context.Canceled) {
		return Canceled
	}
	return Unknown
}

// ClassOf is CodeOf's class: the reaction the retry machinery should
// have. Unrecognized errors classify permanent — an error we cannot
// name is not one we should amplify.
func ClassOf(err error) Class {
	return CodeOf(err).Class()
}

// HasCode reports whether the chain carries the given code.
func HasCode(err error, code Code) bool {
	return err != nil && CodeOf(err) == code
}
