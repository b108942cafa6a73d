package obs

import (
	"encoding/json"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/stats"
)

// Store defaults.
const (
	// DefaultMaxSpans is the span budget NewStore uses for MaxSpans <= 0.
	DefaultMaxSpans = 4096
	// DefaultBaselineSlots is the reservoir size for normal traces.
	DefaultBaselineSlots = 4
	// DefaultIdleFlush decides rootless (server-side) traces that have
	// been quiet this long.
	DefaultIdleFlush = time.Second
	// DefaultRotateEvery is the number of root durations per moving-p99
	// half-window.
	DefaultRotateEvery = 512
	// decidedCap bounds each generation of the decided-trace memory.
	decidedCap = 8192
)

// StoreOptions configures a Store. The zero value is a keep-everything
// store of DefaultMaxSpans spans.
type StoreOptions struct {
	// MaxSpans is the total span budget (<= 0 uses DefaultMaxSpans).
	// Keep-everything mode gives it all to the kept FIFO; tail mode
	// buffers undecided traces in one half and keeps decided ones in
	// the other, so both modes occupy the same span memory.
	MaxSpans int
	// Tail selects tail-based retention: spans wait with their trace
	// until its root ends, and the whole trace is kept iff it errored,
	// ran slow, or won a baseline slot. Without Tail every span goes
	// straight to the kept FIFO (newest spans win). The fields below
	// are read only in tail mode.
	Tail bool
	// MinSlow floors the slow threshold: a root must run at least this
	// long to be kept as slow even when the moving p99 is lower. Zero
	// means the moving p99 alone decides.
	MinSlow time.Duration
	// Baseline is the reservoir size for normal traces (< 0 disables,
	// 0 uses DefaultBaselineSlots).
	Baseline int
	// IdleFlush is how long a rootless trace may stay quiet before it
	// is decided anyway (<= 0 uses DefaultIdleFlush). Server-side
	// traces never see their root end locally; the flush loop decides
	// them by their earliest local span.
	IdleFlush time.Duration
	// RotateEvery is the number of root durations per half-window of
	// the moving p99 (<= 0 uses DefaultRotateEvery).
	RotateEvery int
	// Seed seeds the baseline reservoir's RNG so tests are
	// deterministic (0 uses a fixed default).
	Seed int64
	// Clock is the time source for idle flushing (nil uses the real
	// clock).
	Clock clock.Clock
}

// Store is the span recorder that retains spans for inspection — the
// source /tracez, `ohpc-bench -trace=` and `ohpc-demo -trace=` read.
// Kept spans live in a FIFO of fixed capacity, so a store left on
// through a whole experiment cannot grow without limit.
//
// In keep-everything mode (the zero StoreOptions) every span is kept
// and the oldest are evicted. In tail mode (StoreOptions.Tail) spans
// are buffered per trace until the root ends; the tree is then kept iff
// it errored, ran past the slow threshold (a moving p99 of recent
// roots, floored at MinSlow), or wins a baseline reservoir slot, and
// dropped otherwise. Memory is hard-bounded by MaxSpans across pending
// and kept spans, and every dropped trace is accounted under a drop
// policy. Under keep-everything the slow and errored traces overload
// produces are exactly the ones evicted; tail mode decides after
// observing the outcome, so they are exactly the ones retained.
//
// The store implements Hinter: its per-trace answer rides the wire as
// the keep-hint bit, so downstream tail stores buffer only traces the
// origin is still considering. A keep-everything store hints every
// trace.
type Store struct {
	opt StoreOptions
	clk clock.Clock

	mu sync.Mutex

	// The kept FIFO: buf[next] is the oldest span once wrapped.
	buf     []Span
	next    int
	wrapped bool

	// Tail mode: undecided traces and the decision state.
	pending      map[TraceID]*pendingTrace
	queue        []TraceID // pending traces in creation order (may hold stale ids)
	pendingSpans int
	pendingCap   int

	decidedCur  map[TraceID]decision
	decidedPrev map[TraceID]decision

	durCur, durPrev *stats.Histogram // root durations (µs), rotating pair
	durCount        int
	normalSeen      float64
	rng             *rand.Rand

	total         uint64 // spans offered (Record calls)
	keptSpans     uint64 // spans put in the FIFO (the SnapshotSince cursor)
	droppedSpans  uint64 // spans dropped by policy or evicted from the FIFO
	keptTraces    map[string]uint64
	droppedTraces map[string]uint64

	m *storeMetrics

	startOnce sync.Once
	closeOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

var _ Recorder = (*Store)(nil)
var _ Hinter = (*Store)(nil)

// storeMetrics are the optional live registry counters (SetMetrics).
type storeMetrics struct {
	spans        *stats.Counter // obs.spans_total
	keptSpans    *stats.Counter // obs.kept_spans
	droppedSpans *stats.Counter // obs.dropped_spans
	pending      *stats.Gauge   // obs.pending_spans
	kept         map[string]*stats.Counter
	dropped      map[string]*stats.Counter
}

// NewStore builds a store with the given options. A tail store's
// idle-flush loop does not run until Start; deterministic tests call
// FlushIdle directly instead.
func NewStore(opt StoreOptions) *Store {
	if opt.MaxSpans <= 0 {
		opt.MaxSpans = DefaultMaxSpans
	}
	if opt.Baseline == 0 {
		opt.Baseline = DefaultBaselineSlots
	}
	if opt.IdleFlush <= 0 {
		opt.IdleFlush = DefaultIdleFlush
	}
	if opt.RotateEvery <= 0 {
		opt.RotateEvery = DefaultRotateEvery
	}
	clk := opt.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	keptCap := opt.MaxSpans
	if opt.Tail {
		keptCap = max(opt.MaxSpans/2, 1)
	}
	return &Store{
		opt:           opt,
		clk:           clk,
		buf:           make([]Span, keptCap),
		pending:       make(map[TraceID]*pendingTrace),
		pendingCap:    opt.MaxSpans - keptCap,
		decidedCur:    make(map[TraceID]decision),
		durCur:        &stats.Histogram{},
		durPrev:       &stats.Histogram{},
		rng:           rand.New(rand.NewSource(seed)),
		keptTraces:    make(map[string]uint64),
		droppedTraces: make(map[string]uint64),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
	}
}

// SetMetrics mirrors the store's accounting into live registry
// metrics: `obs.spans_total`, `obs.kept_spans`, `obs.dropped_spans`,
// the per-policy `obs.kept_traces{policy=...}` /
// `obs.dropped_traces{policy=...}` counters, and the
// `obs.pending_spans` gauge — so /varz rate windows show trace loss as
// it happens instead of on /tracez polls.
func (k *Store) SetMetrics(reg *stats.Registry) {
	if reg == nil {
		return
	}
	m := &storeMetrics{
		spans:        reg.Counter("obs.spans_total"),
		keptSpans:    reg.Counter("obs.kept_spans"),
		droppedSpans: reg.Counter("obs.dropped_spans"),
		pending:      reg.Gauge("obs.pending_spans"),
		kept:         make(map[string]*stats.Counter, 3),
		dropped:      make(map[string]*stats.Counter, 3),
	}
	for _, p := range []string{PolicyError, PolicySlow, PolicyBaseline} {
		m.kept[p] = reg.CounterWith("obs.kept_traces", stats.Labels{"policy": p})
	}
	for _, p := range []string{DropNormal, DropOverflow, DropUnhinted} {
		m.dropped[p] = reg.CounterWith("obs.dropped_traces", stats.Labels{"policy": p})
	}
	k.mu.Lock()
	k.m = m
	k.mu.Unlock()
}

// Record implements Recorder. Keep-everything mode keeps the span at
// once; tail mode buffers it with its trace and decides the trace when
// its root (Parent == 0) ends.
func (k *Store) Record(s Span) {
	k.mu.Lock()
	k.total++
	if k.m != nil {
		k.m.spans.Inc()
	}
	if k.opt.Tail {
		k.recordTailLocked(s)
	} else {
		k.keepSpanLocked(s)
	}
	k.mu.Unlock()
}

// keepSpanLocked appends one span to the kept FIFO, evicting the oldest
// once it is full.
func (k *Store) keepSpanLocked(s Span) {
	if k.wrapped {
		k.dropSpansLocked(1, "") // buf[next] holds a live span about to be evicted
	}
	k.buf[k.next] = s
	k.next++
	if k.next == len(k.buf) {
		k.next = 0
		k.wrapped = true
	}
	k.keptSpans++
	if k.m != nil {
		k.m.keptSpans.Inc()
	}
}

// dropSpansLocked accounts n dropped spans, and (for non-empty policy)
// one dropped trace under it.
func (k *Store) dropSpansLocked(n uint64, policy string) {
	k.droppedSpans += n
	if k.m != nil {
		k.m.droppedSpans.Add(n)
	}
	if policy != "" {
		k.droppedTraces[policy]++
		if k.m != nil {
			k.m.dropped[policy].Inc()
		}
	}
}

// spansLocked assembles the kept spans, oldest first. Caller holds mu.
func (k *Store) spansLocked() []Span {
	if !k.wrapped {
		out := make([]Span, k.next)
		copy(out, k.buf[:k.next])
		return out
	}
	out := make([]Span, 0, len(k.buf))
	out = append(out, k.buf[k.next:]...)
	return append(out, k.buf[:k.next]...)
}

// Spans returns the kept spans, oldest first.
func (k *Store) Spans() []Span {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.spansLocked()
}

// SnapshotSince returns every kept span published after the given
// cursor that the FIFO still retains (oldest first), how many spans
// kept after the cursor were already evicted before this call
// (dropped), and the cursor to pass next time. Cursors are lifetime
// counts of kept spans: pass 0 for "everything", then thread the
// returned next through subsequent polls. /tracez uses the dropped
// count to tell the operator how much of the trace stream the poll
// interval lost.
func (k *Store) SnapshotSince(cursor uint64) (spans []Span, dropped uint64, next uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	next = k.keptSpans
	if cursor > next {
		// A cursor from another store's lifetime; start over.
		cursor = 0
	}
	retained := uint64(k.next)
	if k.wrapped {
		retained = uint64(len(k.buf))
	}
	if oldest := next - retained; cursor < oldest {
		dropped = oldest - cursor
		cursor = oldest
	}
	if want := next - cursor; want > 0 {
		all := k.spansLocked()
		spans = all[uint64(len(all))-want:]
	}
	return spans, dropped, next
}

// Trace returns one trace's spans in Seq order — kept spans plus any
// still pending, so /tracez?trace= can show a trace before its root
// ends.
func (k *Store) Trace(id TraceID) []Span {
	k.mu.Lock()
	var out []Span
	for _, s := range k.spansLocked() {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	if p := k.pending[id]; p != nil {
		out = append(out, p.spans...)
	}
	k.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Total counts spans offered to the store over its lifetime.
func (k *Store) Total() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.total
}

// Stats is the store's accounting at one instant. Every span offered is
// pending (tail mode, trace undecided), retained in the FIFO, or
// dropped: Total = Pending + retained + Dropped. Dropped counts spans a
// policy discarded and kept spans the FIFO evicted; Kept counts every
// span ever put in the FIFO.
type Stats struct {
	TotalSpans    uint64            `json:"total"`
	PendingSpans  int               `json:"pending"`
	KeptSpans     uint64            `json:"kept"`
	DroppedSpans  uint64            `json:"dropped"`
	KeptTraces    map[string]uint64 `json:"kept_traces,omitempty"`
	DroppedTraces map[string]uint64 `json:"dropped_traces,omitempty"`
}

// Stats snapshots the accounting.
func (k *Store) Stats() Stats {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.statsLocked()
}

func (k *Store) statsLocked() Stats {
	st := Stats{
		TotalSpans:    k.total,
		PendingSpans:  k.pendingSpans,
		KeptSpans:     k.keptSpans,
		DroppedSpans:  k.droppedSpans,
		KeptTraces:    make(map[string]uint64, len(k.keptTraces)),
		DroppedTraces: make(map[string]uint64, len(k.droppedTraces)),
	}
	for p, n := range k.keptTraces {
		st.KeptTraces[p] = n
	}
	for p, n := range k.droppedTraces {
		st.DroppedTraces[p] = n
	}
	return st
}

// Export is the JSON shape WriteJSON emits: the accounting and the kept
// spans, taken in one snapshot so the document agrees with itself
// (Retained == len(Spans)).
type Export struct {
	Stats
	Retained int    `json:"retained"`
	Spans    []Span `json:"spans"`
}

// WriteJSON dumps the kept spans and the accounting as one indented
// JSON document.
func (k *Store) WriteJSON(w io.Writer) error {
	k.mu.Lock()
	exp := Export{Stats: k.statsLocked(), Spans: k.spansLocked()}
	k.mu.Unlock()
	exp.Retained = len(exp.Spans)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(exp)
}
