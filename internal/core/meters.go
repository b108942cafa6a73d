// Per-endpoint telemetry meters: every bound endpoint ("proto|addr",
// the same key the health tracker uses) carries a pair of EWMA channels
// in the runtime registry — a smoothed latency level in microseconds
// and a time-decayed payload rate in bytes/s. The engine feeds them in
// finish, where the send span ends, so the meters describe exactly the
// traffic the traces describe. Adaptive protocol selection (ROADMAP item 4)
// scores endpoints from these; /varz and Runtime.Status() surface them.
package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"time"
	"unicode/utf8"

	"openhpcxx/internal/stats"
)

// endpointMeters is the cached pair of meter handles for one endpoint.
// A GP resolves it once per bind (endpointMeter, under rt.epMu) and
// keeps it in its binding next to the protocol metric handles, so an
// invocation touches neither the metrics registry nor the meter cache.
type endpointMeters struct {
	latency *stats.EWMA // rpc.endpoint.latency_us — level channel, µs
	bytes   *stats.EWMA // rpc.endpoint.bytes_ps — rate channel, bytes/s
}

// observe accounts one finished exchange: the round-trip duration into
// the latency level and the payload bytes (request + reply bodies) into
// the rate channel at now.
func (em *endpointMeters) observe(d time.Duration, n int, now time.Time) {
	if em == nil {
		return
	}
	em.latency.Observe(float64(d) / float64(time.Microsecond))
	em.bytes.Add(float64(n), now)
}

// addBytes accounts payload bytes alone — one-way posts have no reply
// to time, so only the rate channel moves.
func (em *endpointMeters) addBytes(n int, now time.Time) {
	if em == nil {
		return
	}
	em.bytes.Add(float64(n), now)
}

// meterLabel makes an endpoint address printable as a metric label:
// glue entries embed raw protocol data (length-prefixed XDR) in their
// health key, and control bytes would corrupt the Prometheus text
// exposition. Overlong values are elided in the middle — the label only
// has to stay distinguishable, the raw key stays the cache identity.
func meterLabel(addr string) string {
	clean := strings.Map(func(r rune) rune {
		if r < 0x20 || r == 0x7f {
			return '.'
		}
		return r
	}, addr)
	const max = 96
	if len(clean) <= max {
		return clean
	}
	// Back the cut off to a rune boundary so the truncation never
	// splits a multi-byte rune and emits invalid UTF-8 into a label.
	cut := max
	for cut > 0 && !utf8.RuneStart(clean[cut]) {
		cut--
	}
	// Two glue endpoints can agree everywhere but in the elided middle;
	// a hash of the full address keeps their series distinct.
	h := fnv.New32a()
	_, _ = io.WriteString(h, addr)
	return fmt.Sprintf("%s…%08x", clean[:cut], h.Sum32())
}

// endpointMeter returns the meter pair for a health key, creating and
// caching it on first use. The key's "proto|addr" halves become the
// {proto=..., endpoint=...} labels, so /metrics and /varz group series
// the same way the health tracker and select spans name endpoints.
func (rt *Runtime) endpointMeter(key string) *endpointMeters {
	rt.epMu.RLock()
	em := rt.epMeters[key]
	rt.epMu.RUnlock()
	if em != nil {
		return em
	}
	proto, addr, _ := strings.Cut(key, "|")
	labels := stats.Labels{"proto": proto, "endpoint": meterLabel(addr)}
	fresh := &endpointMeters{
		latency: rt.metrics.MeterWith("rpc.endpoint.latency_us", labels),
		bytes:   rt.metrics.MeterWith("rpc.endpoint.bytes_ps", labels),
	}
	rt.epMu.Lock()
	if exist, ok := rt.epMeters[key]; ok {
		fresh = exist
	} else {
		rt.epMeters[key] = fresh
	}
	rt.epMu.Unlock()
	return fresh
}
