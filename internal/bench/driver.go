package bench

import (
	"context"
	"sort"
	"sync"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/testbed"
)

// paced describes one paced call stream: Workers closed loops, each
// issuing one Deadline-bounded operation (0 = the operation bounds
// itself), sleeping Pace, and repeating until Duration has elapsed.
type paced struct {
	Duration, Deadline, Pace time.Duration
	Workers                  int
}

// tally is what a paced run observed: how many operations it issued,
// how many fell into each of the caller's outcome classes, how long the
// workers ran, and the exact p50/p99 of the latencies the caller chose
// to sample.
type tally struct {
	Total    int
	By       map[string]int
	Elapsed  time.Duration
	P50, P99 time.Duration
}

// run drives the stream through plan on tb's clock — schedule, pacing,
// duration and latencies all read the same one — and returns once the
// workers have stopped and every fault event has fired. op performs
// operation i of its worker under ctx and classifies the outcome;
// sample says whether its latency belongs in the percentiles.
func (p paced) run(tb *testbed.Builder, plan *netsim.FaultPlan, op func(ctx context.Context, worker, i int) (class string, sample bool)) tally {
	clk := tb.RT.Clock()
	faults := plan.SetClock(clk).Run(tb.Net)
	defer faults.Stop()

	// One lock around the tally: operations here take milliseconds.
	var mu sync.Mutex
	t := tally{By: make(map[string]int)}
	var latencies []time.Duration
	start := clk.Now()
	var wg sync.WaitGroup
	for w := 0; w < p.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; clk.Now().Sub(start) < p.Duration; i++ {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if p.Deadline > 0 {
					ctx, cancel = context.WithTimeout(ctx, p.Deadline)
				}
				t0 := clk.Now()
				class, sample := op(ctx, w, i)
				lat := clk.Now().Sub(t0)
				cancel()
				mu.Lock()
				t.Total++
				t.By[class]++
				if sample {
					latencies = append(latencies, lat)
				}
				mu.Unlock()
				clock.Sleep(clk, p.Pace)
			}
		}(w)
	}
	wg.Wait()
	t.Elapsed = clk.Now().Sub(start)
	faults.Wait()
	t.P50, t.P99 = percentiles(latencies)
	return t
}

// percentiles returns the exact p50 and p99 of the sample (zero when
// empty), sorting it in place. Exact, not histogram-bucketed: the D1
// scale pin is a <= 2x ratio a power-of-two histogram cannot resolve.
func percentiles(ls []time.Duration) (p50, p99 time.Duration) {
	if len(ls) == 0 {
		return 0, 0
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	at := func(q float64) time.Duration { return ls[int(q*float64(len(ls)-1))] }
	return at(0.50), at(0.99)
}

// ratio is n/d, or 0 when d is 0.
func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
