package load

import (
	"time"

	"openhpcxx/internal/stats"
)

// Recorder accumulates request latencies into a log-bucketed histogram
// (stats.Histogram: power-of-two buckets, percentiles within a 2x
// bound), one sample per request.
//
// What makes the open-loop numbers immune to coordinated omission is
// where the stopwatch starts: RecordFrom measures from the request's
// *intended* start time, not from whenever a stalled generator got
// around to issuing it. The open-loop generator never skips a slot of
// its schedule, so every request a stall delayed is in the sample with
// its queueing time charged — there is nothing left to synthesize.
//
// One Recorder per worker, merged at the end of the run (Merge is
// exact): the hot path is a single atomic histogram observe. The zero
// value is ready to use.
type Recorder struct {
	hist stats.Histogram
}

// RecordFrom records one request that was *intended* to start at
// intended and finished at end — the open-loop measurement. A request
// issued late (generator stall, full worker pool) is charged its full
// intended-to-finish time.
func (r *Recorder) RecordFrom(intended, end time.Time) {
	r.Record(end.Sub(intended))
}

// Record records one latency; a negative one (clock skew) counts as 0.
func (r *Recorder) Record(lat time.Duration) {
	if lat < 0 {
		lat = 0
	}
	r.hist.Observe(int64(lat))
}

// Merge folds another recorder's samples into this one (exact: bucket
// counts add). Merge quiescent recorders — per-worker recorders after
// their worker has exited.
func (r *Recorder) Merge(o *Recorder) {
	if o == nil {
		return
	}
	r.hist.Merge(&o.hist)
}

// Count returns the number of recorded samples.
func (r *Recorder) Count() uint64 { return r.hist.Snapshot().Count }

// Percentile returns the p-th latency percentile (upper bucket bound,
// within 2x of exact).
func (r *Recorder) Percentile(p float64) time.Duration {
	return time.Duration(r.hist.Percentile(p))
}

// Snapshot exports the full distribution.
func (r *Recorder) Snapshot() stats.Snapshot { return r.hist.Snapshot() }
