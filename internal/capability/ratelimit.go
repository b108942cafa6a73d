package capability

import (
	"math"
	"sync"
	"time"

	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// KindRateLimit names the request-rate capability — the quality-of-
// service attribute from the paper's introduction ("different clients
// may have totally different requirements of quality of service"),
// distinct from the quota capability: a quota bounds the *total* number
// of accesses, a rate limit bounds how *fast* they may arrive.
const KindRateLimit = "ratelimit"

// RateLimit is a token-bucket rate limiter: up to Burst requests
// instantly, refilling at PerSecond. Like the quota, the server-side
// instance inside the glue server is authoritative and the client-side
// twin fails fast.
type RateLimit struct {
	perSecond float64
	burst     float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// NewRateLimit builds a rate limiter admitting perSecond requests per
// second with bursts up to burst. Both must be finite: the spec arrives
// in a reference's proto-data, and a NaN or infinite bucket never denies.
func NewRateLimit(perSecond float64, burst float64) (*RateLimit, error) {
	if !(perSecond > 0 && burst >= 1) || math.IsInf(perSecond, 0) || math.IsInf(burst, 0) {
		return nil, errs.Newf(errs.Config, "capability: ratelimit needs finite perSecond > 0 and burst >= 1 (got %g, %g)", perSecond, burst)
	}
	return &RateLimit{perSecond: perSecond, burst: burst, tokens: burst}, nil
}

// MustNewRateLimit is NewRateLimit, panicking on error (fixture use).
func MustNewRateLimit(perSecond, burst float64) *RateLimit {
	r, err := NewRateLimit(perSecond, burst)
	if err != nil {
		panic(err)
	}
	return r
}

// Kind implements Capability.
func (*RateLimit) Kind() string { return KindRateLimit }

// Applicable implements Capability: rate limits always apply — like the
// quota, exceeding one must fault, never fall through to an unlimited
// protocol.
func (*RateLimit) Applicable(client, server netsim.Locality) bool { return true }

type rateLimitConfig struct {
	PerSecond float64
	Burst     float64
}

func (c *rateLimitConfig) MarshalXDR(e *xdr.Encoder) error {
	e.PutFloat64(c.PerSecond)
	e.PutFloat64(c.Burst)
	return nil
}

func (c *rateLimitConfig) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if c.PerSecond, err = d.Float64(); err != nil {
		return err
	}
	c.Burst, err = d.Float64()
	return err
}

// Config implements Capability.
func (r *RateLimit) Config() ([]byte, error) {
	return xdr.Marshal(&rateLimitConfig{PerSecond: r.perSecond, Burst: r.burst})
}

// take charges one token at the frame's clock time.
func (r *RateLimit) take(f *Frame) error {
	now := time.Now()
	if f != nil && f.Clock != nil {
		now = f.Clock.Now()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.last.IsZero() {
		r.last = now
	}
	elapsed := now.Sub(r.last).Seconds()
	if elapsed > 0 {
		r.tokens = math.Min(r.burst, r.tokens+elapsed*r.perSecond)
		r.last = now
	}
	if r.tokens < 1 {
		return wire.Faultf(wire.FaultQuota, "rate limit of %g req/s exceeded", r.perSecond)
	}
	r.tokens--
	return nil
}

// Refund implements Refunder: one token is handed back (capped at the
// burst size). The glue calls it when the request this instance charged
// cannot execute: its chain rejected it, or its transport attempt died.
func (r *RateLimit) Refund(*Frame) {
	r.mu.Lock()
	r.tokens = math.Min(r.burst, r.tokens+1)
	r.mu.Unlock()
}

// Tokens reports the bucket's current content (tests and introspection).
func (r *RateLimit) Tokens() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tokens
}

// Process charges the limiter on the client for requests.
func (r *RateLimit) Process(f *Frame, body []byte) ([]byte, []byte, error) {
	if f.Dir != Request {
		return body, nil, nil
	}
	if err := r.take(f); err != nil {
		return nil, nil, err
	}
	return body, nil, nil
}

// Unprocess charges the limiter on the server for requests (the
// authoritative bucket).
func (r *RateLimit) Unprocess(f *Frame, envelope, body []byte) ([]byte, error) {
	if f.Dir != Request {
		return body, nil
	}
	if err := r.take(f); err != nil {
		return nil, err
	}
	return body, nil
}

func init() {
	RegisterKind(KindRateLimit, func(config []byte) (Capability, error) {
		c := new(rateLimitConfig)
		if err := xdr.Unmarshal(config, c); err != nil {
			return nil, errs.Wrap(errs.Codec, err, "capability: ratelimit config")
		}
		return NewRateLimit(c.PerSecond, c.Burst)
	})
}
