package capability

import (
	"sync/atomic"
	"time"

	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// KindQuota names the paper's "timeout capability that lets the client
// make only a certain maximum number of requests" (C2 in Figure 2). It
// supports both a request-count ceiling ("access on a total number of
// accesses basis") and a wall-clock deadline ("access to the weather
// data only for the time they have paid for").
const KindQuota = "quota"

// Quota enforces the request budget. The server-side instance inside the
// glue server is authoritative; the client-side instance mirrors the
// count to fail fast without a round trip. Because the client-side
// mirror also charges transparent retries (e.g. a tombstone chase after
// migration), it can run ahead of the server's count; the divergence is
// at most one per migration and only ever errs toward denying early on
// the client, never toward exceeding the server's budget.
type Quota struct {
	max      uint64 // 0 = unlimited count
	deadline int64  // unix nanos; 0 = no deadline
	scope    Scope
	used     atomic.Uint64
}

// NewQuota builds a quota capability applying everywhere. max is the
// number of requests allowed (0 = unlimited); deadline, if non-zero, is
// the instant access expires.
func NewQuota(max uint64, deadline time.Time) *Quota {
	return NewScopedQuota(max, deadline, ScopeAlways)
}

// NewScopedQuota is NewQuota with an applicability scope. The paper's
// Figure 4 experiment needs one: its timeout capability stops being
// applicable once the server migrates onto the client's own LAN, which
// is what lets the scenario fall through to the shared-memory and Nexus
// protocols. A scoped quota intentionally exempts in-scope-local
// clients from metering — exactly the paper's "local clients access its
// resources without any authentication" stance.
func NewScopedQuota(max uint64, deadline time.Time, scope Scope) *Quota {
	q := &Quota{max: max, scope: scope}
	if !deadline.IsZero() {
		q.deadline = deadline.UnixNano()
	}
	return q
}

// Kind implements Capability.
func (*Quota) Kind() string { return KindQuota }

// Applicable implements Capability: the configured scope decides. Note
// that quota *exhaustion* never affects applicability — an exhausted
// quota denies access with a fault rather than silently falling through
// to an unmetered protocol lower in the table.
func (q *Quota) Applicable(client, server netsim.Locality) bool {
	return q.scope.Applies(client, server)
}

// Used reports how many requests this instance has counted.
func (q *Quota) Used() uint64 { return q.used.Load() }

// Remaining reports how many requests remain, or ^uint64(0) if
// unlimited.
func (q *Quota) Remaining() uint64 {
	if q.max == 0 {
		return ^uint64(0)
	}
	u := q.used.Load()
	if u >= q.max {
		return 0
	}
	return q.max - u
}

type quotaConfig struct {
	Max      uint64
	Deadline int64
	Scope    Scope
}

func (c *quotaConfig) MarshalXDR(e *xdr.Encoder) error {
	e.PutUint64(c.Max)
	e.PutInt64(c.Deadline)
	e.PutUint32(uint32(c.Scope))
	return nil
}

func (c *quotaConfig) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if c.Max, err = d.Uint64(); err != nil {
		return err
	}
	if c.Deadline, err = d.Int64(); err != nil {
		return err
	}
	s, err := d.Uint32()
	c.Scope = Scope(s)
	return err
}

// Config implements Capability.
func (q *Quota) Config() ([]byte, error) {
	return xdr.Marshal(&quotaConfig{Max: q.max, Deadline: q.deadline, Scope: q.scope})
}

func (q *Quota) check(f *Frame) error {
	if q.deadline != 0 && f.Clock != nil && f.Clock.Now().UnixNano() > q.deadline {
		return wire.Faultf(wire.FaultQuota, "access expired at %s",
			time.Unix(0, q.deadline).UTC().Format(time.RFC3339))
	}
	if q.max != 0 {
		if used := q.used.Add(1); used > q.max {
			q.used.Add(^uint64(0)) // undo; the request is not served
			return wire.Faultf(wire.FaultQuota, "request quota of %d exhausted", q.max)
		}
		return nil
	}
	q.used.Add(1)
	return nil
}

// Refund implements Refunder: one previously charged request is handed
// back. The glue calls it when the request this instance charged cannot
// execute — its chain rejected it, or (on the client) its transport
// attempt died — so neither rejects nor failover retries are charged.
func (q *Quota) Refund(*Frame) {
	for {
		u := q.used.Load()
		if u == 0 {
			return
		}
		if q.used.CompareAndSwap(u, u-1) {
			return
		}
	}
}

// Process charges the quota on the client side for requests; replies
// pass through untouched.
func (q *Quota) Process(f *Frame, body []byte) ([]byte, []byte, error) {
	if f.Dir != Request {
		return body, nil, nil
	}
	if err := q.check(f); err != nil {
		return nil, nil, err
	}
	return body, nil, nil
}

// Unprocess charges the quota on the server side for requests (the
// authoritative count); replies pass through untouched.
func (q *Quota) Unprocess(f *Frame, envelope, body []byte) ([]byte, error) {
	if f.Dir != Request {
		return body, nil
	}
	if err := q.check(f); err != nil {
		return nil, err
	}
	return body, nil
}

func init() {
	RegisterKind(KindQuota, func(config []byte) (Capability, error) {
		c := new(quotaConfig)
		if err := xdr.Unmarshal(config, c); err != nil {
			return nil, errs.Wrap(errs.Codec, err, "capability: quota config")
		}
		return &Quota{max: c.Max, deadline: c.Deadline, scope: c.Scope}, nil
	})
}
