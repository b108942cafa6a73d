package core

import (
	"openhpcxx/internal/errs"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/wire"
)

// stampTrace copies an open root span's identity into a request header
// so server-side spans join the caller's trace, plus the retention
// keep-hint flag: when a tail-based keeper has already decided this
// trace is not worth keeping, the bit is clear and downstream servers
// skip buffering its spans. A nil span — the no-recorder fast path —
// leaves the header untraced (zero IDs), which peers treat as "don't
// trace".
func stampTrace(t *obs.Tracer, m *wire.Message, root *obs.Active) {
	if root != nil {
		m.TraceID, m.SpanID = uint64(root.TraceID()), uint64(root.SpanID())
		m.SetKeepHint(t.KeepHintFor(root.TraceID()))
	}
}

// retryCause renders the error that triggered a retry for span records
// by its taxonomy code name ("moved", "unavailable", "transport", ...):
// wire faults and in-process coded errors classify identically.
func retryCause(err error) string {
	if err == nil {
		return ""
	}
	if c := errs.CodeOf(err); c != errs.Unknown {
		return c.String()
	}
	return "transport"
}

// EnvCaps joins an envelope chain's capability kinds (everything after
// the leading glue entry) in processing order, for Span.Caps.
func EnvCaps(envs []wire.Envelope) string {
	if len(envs) <= 1 {
		return ""
	}
	n := 0
	for _, e := range envs[1:] {
		n += len(e.ID) + 1
	}
	b := make([]byte, 0, n)
	for i, e := range envs[1:] {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, e.ID...)
	}
	return string(b)
}
