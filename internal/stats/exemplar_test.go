package stats

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// bucketBounds returns the inclusive [lo, hi] range of bucket i.
func bucketBounds(i int) (int64, int64) {
	if i == 0 {
		return -1 << 62, 0
	}
	return int64(1) << (i - 1), bucketUpper(i)
}

// Property: after arbitrary concurrent traced/untraced observations,
// every exemplar sits in a non-empty bucket and its value falls inside
// that bucket's bounds — the trace/value pair is stored as one atomic
// unit, so torn pairs would show up here under -race.
func TestExemplarWithinBucketBoundsConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				v := int64(rng.Uint64() >> (rng.Intn(60) + 1))
				if i%3 == 0 {
					h.Observe(v) // untraced: must never leave an exemplar
				} else {
					h.ObserveTraced(v, rng.Uint64()|1)
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	s := h.Snapshot()
	if len(s.Exemplars) == 0 {
		t.Fatal("no exemplars recorded")
	}
	var counts [65]uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	for _, ex := range s.Exemplars {
		lo, hi := bucketBounds(ex.Bucket)
		if ex.Value < lo || ex.Value > hi {
			t.Fatalf("exemplar value %d outside bucket %d bounds [%d,%d]", ex.Value, ex.Bucket, lo, hi)
		}
		if ex.Trace == 0 {
			t.Fatalf("exemplar in bucket %d has zero trace", ex.Bucket)
		}
		if counts[ex.Bucket] == 0 {
			t.Fatalf("exemplar in empty bucket %d", ex.Bucket)
		}
		if ex.Upper != bucketUpper(ex.Bucket) {
			t.Fatalf("exemplar upper %d for bucket %d", ex.Upper, ex.Bucket)
		}
	}
}

func TestExemplarZeroTraceIgnored(t *testing.T) {
	h := &Histogram{}
	h.ObserveTraced(100, 0)
	if got := h.Snapshot().Exemplars; len(got) != 0 {
		t.Fatalf("zero trace produced exemplars: %+v", got)
	}
}

func TestExemplarCumulativeCount(t *testing.T) {
	h := &Histogram{}
	h.Observe(1)                // bucket 1
	h.Observe(2)                // bucket 2
	h.ObserveTraced(3, 0xabc)   // bucket 2
	h.ObserveTraced(900, 0xdef) // bucket 10
	s := h.Snapshot()
	if len(s.Exemplars) != 2 {
		t.Fatalf("exemplars %+v", s.Exemplars)
	}
	if s.Exemplars[0].Cum != 3 { // <=3: the 1, 2, and 3 observations
		t.Fatalf("bucket 2 cum %d, want 3", s.Exemplars[0].Cum)
	}
	if s.Exemplars[1].Cum != 4 {
		t.Fatalf("bucket 10 cum %d, want 4", s.Exemplars[1].Cum)
	}
}

func TestExemplarSurvivesMerge(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	b.ObserveTraced(500, 0x77)
	a.Observe(500)
	a.Merge(b)
	s := a.Snapshot()
	if len(s.Exemplars) != 1 || s.Exemplars[0].Trace != 0x77 {
		t.Fatalf("merge lost exemplar: %+v", s.Exemplars)
	}
}

func TestObserveDurationTraced(t *testing.T) {
	h := &Histogram{}
	h.ObserveDurationTraced(1500*time.Microsecond, 0x42)
	s := h.Snapshot()
	if len(s.Exemplars) != 1 || s.Exemplars[0].Value != 1500 {
		t.Fatalf("duration exemplar %+v", s.Exemplars)
	}
}

// goldenRegistry builds the registry both exposition goldens render.
func goldenRegistry() *Registry {
	r := New()
	r.Counter("rpc.calls").Add(7)
	h := r.HistogramWith("rpc.latency_us", Labels{"proto": "tcp"})
	h.Observe(3)
	h.ObserveTraced(900, 0xfeed)
	return r
}

// Golden for the classic 0.0.4 exposition: exemplars must NOT appear —
// the 0.0.4 grammar allows only a timestamp after the value, so an
// exemplar suffix would fail a compliant scrape.
func TestWritePromExemplarGolden(t *testing.T) {
	r := goldenRegistry()
	var sb strings.Builder
	if err := r.Snapshot().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE rpc_calls counter
rpc_calls 7
# TYPE rpc_latency_us summary
rpc_latency_us{proto="tcp",quantile="0.5"} 3
rpc_latency_us{proto="tcp",quantile="0.9"} 1023
rpc_latency_us{proto="tcp",quantile="0.99"} 1023
rpc_latency_us_sum{proto="tcp"} 903
rpc_latency_us_count{proto="tcp"} 2
`
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
	if strings.Contains(sb.String(), "#") && strings.Contains(sb.String(), "trace_id") {
		t.Fatal("classic exposition leaked an exemplar")
	}
}

// Golden for the OpenMetrics exposition: histogram-typed family,
// exemplars on bucket lines, counters suffixed _total, # EOF trailer.
func TestWriteOpenMetricsExemplarGolden(t *testing.T) {
	r := goldenRegistry()
	var sb strings.Builder
	if err := r.Snapshot().WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE rpc_calls counter
rpc_calls_total 7
# TYPE rpc_latency_us histogram
rpc_latency_us_bucket{proto="tcp",le="1023"} 2 # {trace_id="000000000000feed"} 900
rpc_latency_us_bucket{proto="tcp",le="+Inf"} 2
rpc_latency_us_sum{proto="tcp"} 903
rpc_latency_us_count{proto="tcp"} 2
# EOF
`
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

// An OpenMetrics counter family already named *_total must not double
// the suffix.
func TestWriteOpenMetricsTotalSuffix(t *testing.T) {
	r := New()
	r.Counter("obs.spans_total").Add(3)
	var sb strings.Builder
	if err := r.Snapshot().WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE obs_spans counter\nobs_spans_total 3\n# EOF\n"
	if sb.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", sb.String(), want)
	}
}
