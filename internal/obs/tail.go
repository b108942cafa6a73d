package obs

import (
	"sort"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/stats"
)

// Retention policies a tail store keeps traces under.
const (
	// PolicyError keeps traces where any span recorded an error.
	PolicyError = "error"
	// PolicySlow keeps traces whose root duration reached the slow
	// threshold (the moving p99 of recent roots, floored at MinSlow).
	PolicySlow = "slow"
	// PolicyBaseline keeps reservoir-sampled "normal" traces so the
	// retained set still shows what healthy invocations look like.
	PolicyBaseline = "baseline"
)

// Drop policies a tail store accounts trace loss under.
const (
	// DropNormal is the intended case: the trace completed healthy and
	// did not win a baseline slot.
	DropNormal = "normal"
	// DropOverflow means the pending budget was exhausted and an
	// undecided trace was evicted before its root ended.
	DropOverflow = "overflow"
	// DropUnhinted means a continued trace arrived without the wire
	// keep-hint, so its spans were discarded without buffering.
	DropUnhinted = "unhinted"
)

// decision is the remembered outcome for a recently decided trace.
type decision struct {
	kept   bool
	policy string // keep policy, or a Drop* reason
}

// pendingTrace buffers one undecided trace.
type pendingTrace struct {
	spans []Span
	last  time.Time // newest Record for this trace (idle-flush clock)
}

// Start launches the idle-flush loop (idempotent). The loop wakes on
// the injected clock every IdleFlush and decides rootless traces that
// stayed quiet a full interval. A keep-everything store has nothing to
// flush and needs no loop.
func (k *Store) Start() {
	k.startOnce.Do(func() {
		go k.loop()
	})
}

func (k *Store) loop() {
	defer close(k.done)
	for {
		// Waiting on the injected clock keeps the loop nosleep-clean and
		// lets a fake clock drive idle flushing deterministically.
		select {
		case <-k.stop:
			return
		case <-clock.After(k.clk, k.opt.IdleFlush):
			k.FlushIdle()
		}
	}
}

// Close stops the idle-flush loop and waits for it to exit. The kept
// spans stay readable after Close.
func (k *Store) Close() {
	k.closeOnce.Do(func() { close(k.stop) })
	k.startOnce.Do(func() { close(k.done) }) // never started: nothing to wait for
	<-k.done
}

// recordTailLocked buffers one span with its trace, deciding the trace
// when its root ends.
func (k *Store) recordTailLocked(s Span) {
	if d, ok := k.decidedLocked(s.Trace); ok {
		// Straggler for an already decided trace: follow the decision.
		if d.kept {
			k.keepSpanLocked(s)
		} else {
			k.dropSpansLocked(1, "")
		}
		return
	}
	p := k.pending[s.Trace]
	if p == nil {
		if !s.Hint {
			// A continued trace the origin is not keeping: discard
			// without buffering — the point of the wire hint.
			k.dropSpansLocked(1, DropUnhinted)
			return
		}
		p = &pendingTrace{}
		k.pending[s.Trace] = p
		k.queue = append(k.queue, s.Trace)
	}
	p.spans = append(p.spans, s)
	p.last = k.clk.Now()
	k.pendingSpans++
	if s.Parent == 0 {
		k.decideLocked(s.Trace, s.Dur)
	}
	for k.pendingSpans > k.pendingCap {
		k.evictOldestPendingLocked()
	}
	if k.m != nil {
		k.m.pending.Set(int64(k.pendingSpans))
	}
}

// KeepHint implements Hinter. A keep-everything store wants every
// trace. A tail store wants a trace while it is undecided and the
// pending budget has room; once decided, the decision answers.
func (k *Store) KeepHint(id TraceID) bool {
	if !k.opt.Tail {
		return true
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if d, ok := k.decidedLocked(id); ok {
		return d.kept
	}
	if _, ok := k.pending[id]; ok {
		return true
	}
	return k.pendingSpans < k.pendingCap
}

// FlushIdle decides every pending trace that has been quiet for a full
// IdleFlush interval, using its earliest local span as the root. The
// background loop calls it every interval; deterministic tests call it
// directly.
func (k *Store) FlushIdle() {
	now := k.clk.Now()
	k.mu.Lock()
	var idle []TraceID
	for id, p := range k.pending {
		if now.Sub(p.last) >= k.opt.IdleFlush {
			idle = append(idle, id)
		}
	}
	// Deterministic decision order regardless of map iteration.
	sort.Slice(idle, func(i, j int) bool { return idle[i] < idle[j] })
	for _, id := range idle {
		p := k.pending[id]
		root := p.spans[0]
		for _, s := range p.spans[1:] {
			if s.Seq < root.Seq {
				root = s
			}
		}
		k.decideLocked(id, root.Dur)
	}
	if k.m != nil {
		k.m.pending.Set(int64(k.pendingSpans))
	}
	k.mu.Unlock()
}

// decidedLocked answers from the rotating decided-trace memory.
func (k *Store) decidedLocked(id TraceID) (decision, bool) {
	if d, ok := k.decidedCur[id]; ok {
		return d, true
	}
	d, ok := k.decidedPrev[id]
	return d, ok
}

// decideLocked resolves one pending trace whose root ran rootDur.
func (k *Store) decideLocked(id TraceID, rootDur time.Duration) {
	p := k.pending[id]
	if p == nil {
		return
	}
	// The threshold is the moving p99 of *previous* roots; observe this
	// one only afterwards, so a lone root can still read as slow.
	threshold := k.slowThresholdLocked()
	k.observeDurLocked(rootDur)
	policy := ""
	for i := range p.spans {
		if p.spans[i].Err != "" {
			policy = PolicyError
			break
		}
	}
	if policy == "" && rootDur >= threshold {
		policy = PolicySlow
	}
	if policy == "" && k.opt.Baseline > 0 {
		// Reservoir-style admission: the i-th healthy trace wins one of
		// the Baseline slots with probability Baseline/i, so the kept
		// baseline set stays a uniform-ish sample of normal traffic.
		k.normalSeen++
		if k.rng.Float64()*k.normalSeen < float64(k.opt.Baseline) {
			policy = PolicyBaseline
		}
	}
	delete(k.pending, id)
	k.pendingSpans -= len(p.spans)
	k.compactQueueLocked()
	if policy != "" {
		k.rememberLocked(id, decision{kept: true, policy: policy})
		sort.Slice(p.spans, func(i, j int) bool { return p.spans[i].Seq < p.spans[j].Seq })
		for _, s := range p.spans {
			k.keepSpanLocked(s)
		}
		k.keptTraces[policy]++
		if k.m != nil {
			k.m.kept[policy].Inc()
		}
		return
	}
	k.rememberLocked(id, decision{kept: false, policy: DropNormal})
	k.dropSpansLocked(uint64(len(p.spans)), DropNormal)
}

// evictOldestPendingLocked drops the oldest undecided trace to make
// room — the overflow path, accounted separately so operators can see
// the pending budget is too small for the load.
func (k *Store) evictOldestPendingLocked() {
	for len(k.queue) > 0 {
		id := k.queue[0]
		k.queue = k.queue[1:]
		p, ok := k.pending[id]
		if !ok {
			continue // already decided
		}
		delete(k.pending, id)
		k.pendingSpans -= len(p.spans)
		k.rememberLocked(id, decision{kept: false, policy: DropOverflow})
		k.dropSpansLocked(uint64(len(p.spans)), DropOverflow)
		return
	}
	// Queue exhausted but budget still over: nothing left to evict.
	k.pendingSpans = 0
}

// compactQueueLocked rebuilds the creation-order queue without the ids
// of traces that already left pending. Traces normally leave by
// decision, not eviction, so decided ids would otherwise accumulate in
// the queue forever — and the eviction path's re-slice would pin the
// old backing array. Rebuilding once stale entries outnumber live ones
// keeps queue memory proportional to the pending set; since a rebuild
// only fires after >= len(pending) decisions, the cost is amortized
// O(1) per decided trace.
func (k *Store) compactQueueLocked() {
	if len(k.queue) < 64 || len(k.queue) < 2*len(k.pending) {
		return
	}
	fresh := make([]TraceID, 0, len(k.pending))
	for _, id := range k.queue {
		if _, ok := k.pending[id]; ok {
			fresh = append(fresh, id)
		}
	}
	k.queue = fresh
}

// rememberLocked records a decision in the rotating memory so
// stragglers follow it instead of reopening the trace.
func (k *Store) rememberLocked(id TraceID, d decision) {
	if len(k.decidedCur) >= decidedCap {
		k.decidedPrev = k.decidedCur
		k.decidedCur = make(map[TraceID]decision, decidedCap/4)
	}
	k.decidedCur[id] = d
}

// observeDurLocked feeds one root duration into the rotating moving-p99
// window.
func (k *Store) observeDurLocked(d time.Duration) {
	k.durCur.ObserveDuration(d)
	k.durCount++
	if k.durCount >= k.opt.RotateEvery {
		k.durPrev = k.durCur
		k.durCur = &stats.Histogram{}
		k.durCount = 0
	}
}

// slowThresholdLocked is max(MinSlow, moving p99 of recent roots).
// Histogram percentiles are bucket upper bounds (within 2x of the
// exact p99): a root in the p99 bucket itself is not slow, anything
// past the bucket is.
func (k *Store) slowThresholdLocked() time.Duration {
	merged := &stats.Histogram{}
	merged.Merge(k.durCur)
	merged.Merge(k.durPrev)
	th := time.Duration(merged.Percentile(0.99)) * time.Microsecond
	if th < k.opt.MinSlow {
		th = k.opt.MinSlow
	}
	return th
}

// Policy returns the keep policy a retained trace was decided under
// ("" for unknown or dropped traces, and always under keep-everything)
// — /tracez renders it and filters ?slow=1 on it.
func (k *Store) Policy(id TraceID) string {
	k.mu.Lock()
	defer k.mu.Unlock()
	if d, ok := k.decidedLocked(id); ok && d.kept {
		return d.policy
	}
	return ""
}
