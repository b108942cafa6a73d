// /tracez: the span store rendered as trees. Spans arrive flat (the
// store records them in end order, client and server sides
// interleaved); the handler groups them by trace ID, wires children to
// parents by span ID, and emits the newest traces first — the live
// counterpart of the obstest assertions PR 3 introduced.
//
// When the store is in tail mode, each tree also carries its retention
// policy ("error"/"slow"/"baseline") and ?slow=1 narrows the list to
// the slow-kept traces, each annotated with its dominant self-time span
// — the attribution answer to "where did that p99 trace spend its
// time". ?trace=<hex trace id> looks one trace up directly (the target
// of the exemplar trace_id links on /metrics).
package introspect

import (
	"net/http"
	"sort"
	"strconv"

	"openhpcxx/internal/obs"
)

// TraceNode is one span with its children nested, in start (Seq) order.
type TraceNode struct {
	obs.Span
	Children []*TraceNode `json:"children,omitempty"`
}

// TraceTree is one reconstructed trace: its roots (normally one —
// the client "invoke" span), plus rollups the list view sorts and
// filters on.
type TraceTree struct {
	Trace obs.TraceID `json:"trace"`
	// Spans counts every retained span of the trace; DurNS is the root
	// span's duration (the longest root's, if several); Err is the
	// first error recorded anywhere in the trace.
	Spans int    `json:"spans"`
	DurNS int64  `json:"dur_ns"`
	Err   string `json:"err,omitempty"`
	// Policy is why a tail store retained the trace ("error", "slow",
	// "baseline"); empty under keep-everything.
	Policy string `json:"policy,omitempty"`
	// Hot is the trace's dominant self-time span — the attribution
	// answer for a slow trace.
	Hot   *HotSpan     `json:"hot,omitempty"`
	Roots []*TraceNode `json:"roots"`
}

// HotSpan identifies the span with the largest self time (own duration
// minus the sum of its children's) in a trace.
type HotSpan struct {
	Span   obs.SpanID `json:"span"`
	Name   string     `json:"name"`
	Object string     `json:"object,omitempty"`
	Method string     `json:"method,omitempty"`
	DurNS  int64      `json:"dur_ns"`
	SelfNS int64      `json:"self_ns"`
}

// TracezPayload is the /tracez response body.
type TracezPayload struct {
	// Total and Dropped mirror the store's lifetime accounting; Cursor
	// is what the next poll passes as ?cursor= to see only new spans
	// (and how many the store evicted in between).
	Total   uint64      `json:"total"`
	Dropped uint64      `json:"dropped"`
	Cursor  uint64      `json:"cursor"`
	Traces  []TraceTree `json:"traces"`
}

// tracezDefaultLimit bounds how many traces one response carries unless
// ?limit= asks otherwise.
const tracezDefaultLimit = 64

func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		http.Error(w, "tracez unavailable: a non-store span recorder is installed", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()

	// Direct lookup: ?trace=<hex id> — the target of the exemplar
	// trace_id links on /metrics. Under a tail store this also shows
	// still-pending (undecided) traces.
	if h := q.Get("trace"); h != "" {
		id, err := strconv.ParseUint(h, 16, 64)
		if err != nil || id == 0 {
			http.Error(w, "bad ?trace= (want a hex trace id)", http.StatusBadRequest)
			return
		}
		trees := s.annotate(buildTraceTrees(s.store.Trace(obs.TraceID(id))))
		writeJSON(w, TracezPayload{Total: s.store.Total(), Traces: trees})
		return
	}

	cursor, _ := strconv.ParseUint(q.Get("cursor"), 10, 64)
	spans, dropped, next := s.store.SnapshotSince(cursor)

	// Span-level filter: kind restricts which spans appear at all.
	if kind := q.Get("kind"); kind != "" {
		spans = filterSpans(spans, func(sp obs.Span) bool { return sp.Kind.String() == kind })
	}

	trees := s.annotate(buildTraceTrees(spans))

	// Trace-level filters: error, minimum latency, slow-kept.
	if q.Get("error") == "1" {
		trees = filterTrees(trees, func(t TraceTree) bool { return t.Err != "" })
	}
	if minUS, err := strconv.ParseInt(q.Get("min_us"), 10, 64); err == nil && minUS > 0 {
		trees = filterTrees(trees, func(t TraceTree) bool { return t.DurNS >= minUS*1000 })
	}
	if q.Get("slow") == "1" {
		// Slow-kept traces only — meaningful in tail mode (keep-everything
		// has no retention policies, so the filter yields nothing; use
		// ?min_us= there).
		trees = filterTrees(trees, func(t TraceTree) bool { return t.Policy == obs.PolicySlow })
	}

	limit := tracezDefaultLimit
	if n, err := strconv.Atoi(q.Get("limit")); err == nil && n > 0 {
		limit = n
	}
	if len(trees) > limit {
		trees = trees[:limit]
	}
	writeJSON(w, TracezPayload{Total: s.store.Total(), Dropped: dropped, Cursor: next, Traces: trees})
}

// annotate decorates trees with the store's retention policy (empty
// under keep-everything) and each trace's dominant self-time span.
func (s *Server) annotate(trees []TraceTree) []TraceTree {
	for i := range trees {
		trees[i].Policy = s.store.Policy(trees[i].Trace)
		trees[i].Hot = hotSpan(trees[i].Roots)
	}
	return trees
}

// hotSpan walks a trace tree and returns the span with the largest
// self time — its own duration minus its children's, clamped at zero
// (clock skew between client and server halves can make a child
// nominally outlast its parent).
func hotSpan(roots []*TraceNode) *HotSpan {
	var best *HotSpan
	var walk func(n *TraceNode)
	walk = func(n *TraceNode) {
		self := int64(n.Dur)
		for _, c := range n.Children {
			self -= int64(c.Dur)
			walk(c)
		}
		if self < 0 {
			self = 0
		}
		if best == nil || self > best.SelfNS {
			best = &HotSpan{
				Span:   n.ID,
				Name:   n.Name,
				Object: n.Object,
				Method: n.Method,
				DurNS:  int64(n.Dur),
				SelfNS: self,
			}
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return best
}

func filterSpans(spans []obs.Span, keep func(obs.Span) bool) []obs.Span {
	out := spans[:0:0]
	for _, sp := range spans {
		if keep(sp) {
			out = append(out, sp)
		}
	}
	return out
}

func filterTrees(trees []TraceTree, keep func(TraceTree) bool) []TraceTree {
	out := trees[:0:0]
	for _, t := range trees {
		if keep(t) {
			out = append(out, t)
		}
	}
	return out
}

// buildTraceTrees groups spans by trace, nests children under parents,
// and returns the traces newest first (by the highest Seq each trace
// retains). A span whose parent was evicted from the store is promoted
// to a root — a truncated trace still renders.
func buildTraceTrees(spans []obs.Span) []TraceTree {
	byTrace := make(map[obs.TraceID][]obs.Span)
	var order []obs.TraceID
	for _, sp := range spans {
		if _, seen := byTrace[sp.Trace]; !seen {
			order = append(order, sp.Trace)
		}
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	trees := make([]TraceTree, 0, len(order))
	for _, id := range order {
		trees = append(trees, buildTree(id, byTrace[id]))
	}
	// Newest first: sort by the trace's highest Seq, descending.
	sort.Slice(trees, func(i, j int) bool {
		return maxSeq(trees[i].Roots) > maxSeq(trees[j].Roots)
	})
	return trees
}

func buildTree(id obs.TraceID, spans []obs.Span) TraceTree {
	nodes := make(map[obs.SpanID]*TraceNode, len(spans))
	ordered := make([]*TraceNode, 0, len(spans))
	for _, sp := range spans {
		n := &TraceNode{Span: sp}
		nodes[sp.ID] = n
		ordered = append(ordered, n)
	}
	t := TraceTree{Trace: id, Spans: len(spans)}
	for _, n := range ordered {
		if t.Err == "" && n.Err != "" {
			t.Err = n.Err
		}
		if parent, ok := nodes[n.Parent]; ok && n.Parent != 0 && parent != n {
			parent.Children = append(parent.Children, n)
			continue
		}
		t.Roots = append(t.Roots, n)
	}
	for _, n := range nodes {
		sort.Slice(n.Children, func(i, j int) bool { return n.Children[i].Seq < n.Children[j].Seq })
	}
	sort.Slice(t.Roots, func(i, j int) bool { return t.Roots[i].Seq < t.Roots[j].Seq })
	for _, root := range t.Roots {
		if d := int64(root.Dur); d > t.DurNS {
			t.DurNS = d
		}
	}
	return t
}

func maxSeq(roots []*TraceNode) uint64 {
	var m uint64
	for _, r := range roots {
		if r.Seq > m {
			m = r.Seq
		}
		if c := maxSeq(r.Children); c > m {
			m = c
		}
	}
	return m
}
