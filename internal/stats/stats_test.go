package stats

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("value %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("value %d", c.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty snapshot %+v", s)
	}
	for _, v := range []int64{1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 110 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Mean != 22 {
		t.Fatalf("mean %f", s.Mean)
	}
	// P50 falls in the bucket holding 3 (values 2,3 share bucket [2,3]).
	if s.P50 < 3 || s.P50 > 7 {
		t.Fatalf("p50 %d", s.P50)
	}
	// P99 lands in 100's bucket: [64,127].
	if s.P99 < 100 || s.P99 > 127 {
		t.Fatalf("p99 %d", s.P99)
	}
	if s.Max < 100 || s.Max > 127 {
		t.Fatalf("max %d", s.Max)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-5)
	s := h.Snapshot()
	if s.Count != 2 || s.Sum != -5 {
		t.Fatalf("%+v", s)
	}
	if s.P50 != 0 || s.P99 != 0 {
		t.Fatalf("zero bucket quantiles %+v", s)
	}
}

func TestHistogramDuration(t *testing.T) {
	var h Histogram
	h.ObserveDuration(3 * time.Millisecond)
	s := h.Snapshot()
	if s.Sum != 3000 {
		t.Fatalf("sum %d", s.Sum)
	}
}

// Property: quantile upper bounds always cover the observed values and
// are within 2x (power-of-two buckets).
func TestQuickHistogramBounds(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		var max int64
		for _, u := range raw {
			v := int64(u)
			h.Observe(v)
			if v > max {
				max = v
			}
		}
		s := h.Snapshot()
		if s.Count != uint64(len(raw)) {
			return false
		}
		// Every quantile bound must be >= some actual value at that
		// rank and <= the max bucket bound.
		if s.Max < max {
			return false
		}
		if max > 0 && s.Max > 2*max {
			return false
		}
		return s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketUpper(t *testing.T) {
	if bucketUpper(0) != 0 || bucketUpper(1) != 1 || bucketUpper(2) != 3 || bucketUpper(3) != 7 {
		t.Fatal("small buckets")
	}
	if bucketUpper(64) != math.MaxInt64 {
		t.Fatal("top bucket")
	}
}

func TestRegistry(t *testing.T) {
	r := New()
	c1 := r.Counter("a.calls")
	c2 := r.Counter("a.calls")
	if c1 != c2 {
		t.Fatal("counter identity")
	}
	c1.Inc()
	r.Counter("b.calls").Add(2)
	r.Histogram("a.latency").Observe(7)
	names := r.Snapshot().CounterNames()
	if len(names) != 2 || names[0] != "a.calls" || names[1] != "b.calls" {
		t.Fatalf("names %v", names)
	}
	dump := r.Dump()
	for _, want := range []string{"a.calls 1", "b.calls 2", "a.latency count=1"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("x").Inc()
				r.Histogram("y").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if r.Counter("x").Value() != 1600 {
		t.Fatalf("x = %d", r.Counter("x").Value())
	}
	if r.Histogram("y").Snapshot().Count != 1600 {
		t.Fatal("y count")
	}
}
