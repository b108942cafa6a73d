// Package stats provides the lightweight metrics the runtime uses to
// account for protocol usage: counters and log-scale latency/size
// histograms, lock-free on the hot path. The ORB records per-endpoint
// call counts, errors, payload bytes, and round-trip latencies, which
// the experiments and the ohpc-demo use to report what actually flowed
// where.
package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the counter.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways — in-flight
// invocations, pool occupancy, breaker states. All methods are atomic
// and nil-safe: a nil *Gauge is a no-op, so optional instrumentation
// costs one nil check when unwired.
type Gauge struct {
	v atomic.Int64
}

// Set stores an absolute value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Inc moves the gauge up by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec moves the gauge down by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the gauge (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Labels decorate a metric name with dimensions (endpoint, protocol,
// state ...). They canonicalize into the metric key as
// name{k1="v1",k2="v2"} with keys sorted, so the same label set always
// names the same metric and text exposition diffs cleanly.
type Labels map[string]string

// KeyWithLabels renders the canonical registry key for a labeled
// metric: name{k="v",...} with label keys sorted. Empty labels return
// the bare name. SplitKey is the inverse.
func KeyWithLabels(name string, labels Labels) string {
	if len(labels) == 0 {
		return name
	}
	// One allocation — the key — for the usual few labels with nothing
	// to escape: a GP builds seven of these on every bind.
	var few [4]string
	keys, size := few[:0], len(name)+1
	for k, v := range labels {
		keys = append(keys, k)
		size += len(k) + len(v) + len(`="",`)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.Grow(size)
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(labels[k]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// The text-exposition escapes (backslash, quote, newline) and their
// inverse, so label values survive round trips through keys and scrapes.
var (
	labelEscaper   = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	labelUnescaper = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
)

// SplitKey is the inverse of KeyWithLabels: the metric name and its
// labels, values unescaped. A bare name — or a key not in the canonical
// form — comes back whole with no labels. name is always a prefix of
// key, so key[len(name):] is the label block as rendered.
func SplitKey(key string) (name string, labels Labels) {
	open := strings.IndexByte(key, '{')
	if open < 0 || !strings.HasSuffix(key, "}") {
		return key, nil
	}
	labels = Labels{}
	for rest := key[open+1 : len(key)-1]; rest != ""; {
		k, after, _ := strings.Cut(rest, `="`)
		end := 0 // of the value: the first quote no backslash escapes
		for end < len(after) && after[end] != '"' {
			if after[end] == '\\' {
				end++
			}
			end++
		}
		if end >= len(after) {
			return key, nil
		}
		labels[k] = labelUnescaper.Replace(after[:end])
		rest = strings.TrimPrefix(after[end+1:], ",")
	}
	return key[:open], labels
}

// Histogram accumulates int64 observations into power-of-two buckets:
// bucket i counts observations with bit length i (0 counts zero and
// negative values). Percentiles are therefore approximate within 2x,
// which is plenty for latency accounting.
//
// Each bucket also carries one exemplar slot: the last traced
// observation that landed in it (ObserveTraced), so a surprising
// quantile resolves to an actual retained trace instead of an
// anonymous count. Untraced observations never touch the slots, so
// the plain Observe path stays allocation-free.
type Histogram struct {
	buckets   [65]atomic.Uint64
	exemplars [65]atomic.Pointer[exemplar]
	sum       atomic.Int64
	count     atomic.Uint64
}

// exemplar pins one traced observation to its bucket.
type exemplar struct {
	trace uint64
	value int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
	}
	h.buckets[idx].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveTraced records one value and, for a non-zero trace, stamps it
// as the bucket's exemplar. The trace/value pair is stored as one
// atomic pointer, so readers never see a value paired with another
// observation's trace.
func (h *Histogram) ObserveTraced(v int64, trace uint64) {
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
	}
	h.buckets[idx].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	if trace != 0 {
		h.exemplars[idx].Store(&exemplar{trace: trace, value: v})
	}
}

// ObserveDuration records a duration in microseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(int64(d / time.Microsecond))
}

// ObserveDurationTraced records a duration in microseconds with an
// exemplar trace.
func (h *Histogram) ObserveDurationTraced(d time.Duration, trace uint64) {
	h.ObserveTraced(int64(d/time.Microsecond), trace)
}

// Merge folds every observation of o into h, bucket by bucket. Workers
// that each record into a private histogram (no cross-CPU contention on
// the hot path) combine their results with Merge at the end of a run;
// because the buckets are position-aligned, merged percentiles keep the
// same documented 2x bound as if every value had been observed directly
// on h. Merging a histogram into itself doubles it; o is read
// atomically but not frozen, so merge quiescent histograms for exact
// totals.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	for i := range o.buckets {
		if c := o.buckets[i].Load(); c > 0 {
			h.buckets[i].Add(c)
		}
		if e := o.exemplars[i].Load(); e != nil {
			h.exemplars[i].Store(e)
		}
	}
	h.sum.Add(o.sum.Load())
	h.count.Add(o.count.Load())
}

// Snapshot is a consistent-enough view of a histogram.
type Snapshot struct {
	Count uint64  `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
	Max   int64   `json:"max"` // upper bound of the highest non-empty bucket
	// Exemplars lists, per bucket that has one, the last traced
	// observation (omitted entirely for histograms no one traced).
	Exemplars []BucketExemplar `json:"exemplars,omitempty"`
}

// BucketExemplar is one bucket's pinned traced observation.
type BucketExemplar struct {
	// Bucket is the bucket index (the value's bit length); Upper is
	// the bucket's inclusive upper bound.
	Bucket int   `json:"bucket"`
	Upper  int64 `json:"upper"`
	// Trace and Value are the pinned observation; Value always falls
	// inside the bucket's bounds.
	Trace uint64 `json:"trace"`
	Value int64  `json:"value"`
	// Cum is the cumulative observation count at or below Upper when
	// the snapshot was taken — the `le` count an exposition line needs.
	Cum uint64 `json:"cum"`
}

// Percentile returns an upper bound for the p-th percentile (p in
// (0,1]). Because observations land in power-of-two buckets, the bound
// is within 2x of the exact percentile value: for an exact percentile
// v > 0, v <= Percentile(p) < 2*v. p <= 0 returns 0; an empty
// histogram returns 0.
func (h *Histogram) Percentile(p float64) int64 {
	if p <= 0 {
		return 0
	}
	if p > 1 {
		p = 1
	}
	var counts [65]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(total)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= target {
			return bucketUpper(i)
		}
	}
	return bucketUpper(64)
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	if s.Count == 0 {
		return s
	}
	s.Mean = float64(s.Sum) / float64(s.Count)
	var counts [65]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	quantile := func(q float64) int64 {
		target := uint64(math.Ceil(q * float64(total)))
		if target == 0 {
			target = 1
		}
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen >= target {
				return bucketUpper(i)
			}
		}
		return bucketUpper(64)
	}
	s.P50 = quantile(0.50)
	s.P90 = quantile(0.90)
	s.P99 = quantile(0.99)
	s.P999 = quantile(0.999)
	for i := 64; i >= 0; i-- {
		if counts[i] > 0 {
			s.Max = bucketUpper(i)
			break
		}
	}
	var cum uint64
	for i := range h.exemplars {
		cum += counts[i]
		if e := h.exemplars[i].Load(); e != nil {
			s.Exemplars = append(s.Exemplars, BucketExemplar{
				Bucket: i, Upper: bucketUpper(i), Trace: e.trace, Value: e.value, Cum: cum,
			})
		}
	}
	return s
}

// bucketUpper is the largest value mapping to bucket i.
func bucketUpper(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<i - 1
}

// Registry holds named metrics. The zero value is not usable; call New.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterWith returns the counter for name decorated with labels: each
// distinct label set is its own counter under the canonical
// name{k="v",...} key.
func (r *Registry) CounterWith(name string, labels Labels) *Counter {
	return r.Counter(KeyWithLabels(name, labels))
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeWith returns the gauge for name decorated with labels.
func (r *Registry) GaugeWith(name string, labels Labels) *Gauge {
	return r.Gauge(KeyWithLabels(name, labels))
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// HistogramWith returns the histogram for name decorated with labels.
func (r *Registry) HistogramWith(name string, labels Labels) *Histogram {
	return r.Histogram(KeyWithLabels(name, labels))
}

// RegistrySnapshot is a point-in-time export of every registered
// metric — the JSON shape WriteTo emits and Runtime.MetricsSnapshot
// returns.
type RegistrySnapshot struct {
	Counters   map[string]uint64   `json:"counters"`
	Gauges     map[string]int64    `json:"gauges"`
	Histograms map[string]Snapshot `json:"histograms"`
}

// Snapshot captures every counter and gauge value and histogram
// summary. Each metric is read atomically; the set as a whole is as
// consistent as a live system allows.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	cs := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		cs[n] = c
	}
	gs := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gs[n] = g
	}
	hs := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		hs[n] = h
	}
	r.mu.Unlock()

	out := RegistrySnapshot{
		Counters:   make(map[string]uint64, len(cs)),
		Gauges:     make(map[string]int64, len(gs)),
		Histograms: make(map[string]Snapshot, len(hs)),
	}
	for n, c := range cs {
		out.Counters[n] = c.Value()
	}
	for n, g := range gs {
		out.Gauges[n] = g.Value()
	}
	for n, h := range hs {
		out.Histograms[n] = h.Snapshot()
	}
	return out
}

// CounterNames lists the snapshot's counter keys, sorted — the
// deterministic iteration order every exporter should use.
func (s RegistrySnapshot) CounterNames() []string { return sortedKeys(s.Counters) }

// GaugeNames lists the snapshot's gauge keys, sorted.
func (s RegistrySnapshot) GaugeNames() []string { return sortedKeys(s.Gauges) }

// HistogramNames lists the snapshot's histogram keys, sorted.
func (s RegistrySnapshot) HistogramNames() []string { return sortedKeys(s.Histograms) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WriteTo writes the registry snapshot as one indented JSON document —
// the export behind `ohpc-demo`'s metrics dump and Runtime metrics
// files. Metrics are emitted in sorted name order by construction (not
// by relying on the encoder), so two scrapes of an unchanged registry
// are byte-identical and diff cleanly.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	err := r.Snapshot().WriteJSON(cw)
	return cw.n, err
}

// WriteJSON emits the snapshot as one indented JSON document with every
// section in sorted name order.
func (s RegistrySnapshot) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{\n  \"counters\": {")
	writeSortedJSON(&b, s.CounterNames(), func(n string) string {
		return fmt.Sprintf("%d", s.Counters[n])
	})
	b.WriteString("},\n  \"gauges\": {")
	writeSortedJSON(&b, s.GaugeNames(), func(n string) string {
		return fmt.Sprintf("%d", s.Gauges[n])
	})
	b.WriteString("},\n  \"histograms\": {")
	writeSortedJSON(&b, s.HistogramNames(), func(n string) string {
		j, _ := json.Marshal(s.Histograms[n])
		return string(j)
	})
	b.WriteString("}\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSortedJSON renders one `"name": value` object body, indented.
func writeSortedJSON(b *strings.Builder, names []string, value func(string) string) {
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n    ")
		key, _ := json.Marshal(n)
		b.Write(key)
		b.WriteString(": ")
		b.WriteString(value(n))
	}
	if len(names) > 0 {
		b.WriteString("\n  ")
	}
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Dump renders every metric as one line each, sorted by name.
func (r *Registry) Dump() string {
	s := r.Snapshot()
	var b strings.Builder
	for _, n := range s.CounterNames() {
		fmt.Fprintf(&b, "%s %d\n", n, s.Counters[n])
	}
	for _, n := range s.GaugeNames() {
		fmt.Fprintf(&b, "%s %d\n", n, s.Gauges[n])
	}
	for _, n := range s.HistogramNames() {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "%s count=%d mean=%.1f p50<=%d p90<=%d p99<=%d\n",
			n, h.Count, h.Mean, h.P50, h.P90, h.P99)
	}
	return b.String()
}
