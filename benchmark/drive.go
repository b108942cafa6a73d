package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"openhpcxx/internal/future"
)

// block is one repetition: a fixed number of calls and what they cost.
type block struct {
	calls    int
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	p50, p99 float64 // issue -> verified reply in microseconds, one sample per call
	heapPeak uint64  // highest live-object heap sampled during the repetition
}

// runBlock issues calls in closed loop and returns every call's latency
// in nanoseconds, unsorted, in a buffer the next block reuses (samples
// kept per repetition would grow the heap the benchmark measures). Sync
// workloads run in legs: all callers issue their share of a leg
// concurrently, and a touring object moves between legs while the callers
// wait.
func (d *deployment) runBlock(calls int) ([]int64, error) {
	perCaller := calls / len(d.callers)
	if cap(d.lat) < calls {
		d.lat = make([]int64, calls)
	}
	lat := d.lat[:perCaller*len(d.callers)]
	if d.w.async {
		d.failed += int64(d.callers[0].issueAsync(d, lat))
		d.attempted += int64(calls)
		return lat, d.noteSelected()
	}
	legLen := perCaller
	if d.w.tourEvery > 0 {
		legLen = d.w.tourEvery
	}
	for done := 0; done < perCaller; done += legLen {
		n := min(legLen, perCaller-done)
		moved := d.w.tourEvery > 0 && d.legs > 0
		if moved {
			if err := d.move(); err != nil {
				return nil, err
			}
		}
		d.legs++
		failed := make([]int, len(d.callers))
		var wg sync.WaitGroup
		for i, c := range d.callers {
			wg.Add(1)
			go func(i int, c *caller, leg []int64) {
				defer wg.Done()
				failed[i] = c.issueSync(d, leg)
			}(i, c, lat[i*perCaller+done:i*perCaller+done+n])
		}
		wg.Wait()
		for i := range d.callers {
			d.attempted += int64(n)
			d.failed += int64(failed[i])
			if moved {
				d.chaseNs = append(d.chaseNs, lat[i*perCaller+done])
			}
		}
		if err := d.noteSelected(); err != nil {
			return nil, err
		}
	}
	return lat, nil
}

// noteSelected records which protocol caller 0 is bound to, so a run can
// show that the touring object was reached over both shm and TCP and
// that glue was selected where it should be and nowhere else.
func (d *deployment) noteSelected() error {
	id, err := d.callers[0].gp.SelectedProtocol()
	if err != nil {
		return err
	}
	d.selected[id]++
	return nil
}

// issueSync makes len(lat) synchronous calls, verifying every reply
// byte for byte against the arguments it sent.
func (c *caller) issueSync(d *deployment, lat []int64) (failed int) {
	enc := c.enc[0]
	for i := range lat {
		seq := d.seq.Add(1)
		c.v[0] = seq
		enc.Reset()
		enc.PutInt32s(c.v)
		start := time.Now()
		out, err := c.gp.Invoke("exchange", enc.Bytes())
		end := time.Now()
		lat[i] = end.Sub(start).Nanoseconds()
		d.rec.add(layerCall, seq, 0, start, end)
		if err != nil || !bytes.Equal(out, enc.Bytes()) {
			failed++
		}
	}
	return failed
}

// issueAsync keeps asyncWindow InvokeAsync calls in flight: it waits for
// the oldest future before reusing its slot. A call's latency runs from
// InvokeAsync to the return of Wait.
func (c *caller) issueAsync(d *deployment, lat []int64) (failed int) {
	var (
		futs   [asyncWindow]*future.Future
		starts [asyncWindow]time.Time
		seqs   [asyncWindow]int32
	)
	for i := 0; i < len(lat)+asyncWindow; i++ {
		slot := i % asyncWindow
		enc := c.enc[slot]
		if i >= asyncWindow {
			out, err := futs[slot].Wait()
			end := time.Now()
			lat[i-asyncWindow] = end.Sub(starts[slot]).Nanoseconds()
			d.rec.add(layerCall, seqs[slot], 0, starts[slot], end)
			if err != nil || !bytes.Equal(out, enc.Bytes()) {
				failed++
			}
		}
		if i < len(lat) {
			seqs[slot] = d.seq.Add(1)
			c.v[0] = seqs[slot]
			enc.Reset()
			enc.PutInt32s(c.v)
			starts[slot] = time.Now()
			futs[slot] = c.gp.InvokeAsync("exchange", enc.Bytes())
		}
	}
	return failed
}

// measure runs one repetition and accounts for its wall time, process
// CPU, allocation and heap. The collector statistics are read outside
// the timed section (ReadMemStats stops the world).
func (d *deployment) measure(calls int) (block, error) {
	heap := startHeapSampler()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := processCPU()
	start := time.Now()
	lat, err := d.runBlock(calls)
	wall := time.Since(start)
	cpu = processCPU() - cpu
	runtime.ReadMemStats(&after)
	peak := heap.stopAndPeak()
	if err != nil {
		return block{}, err
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	percentile := func(q float64) float64 { return float64(lat[int(q*float64(len(lat)-1))]) / 1e3 }
	return block{
		calls:    len(lat),
		wall:     wall,
		cpu:      cpu,
		mallocs:  after.Mallocs - before.Mallocs,
		bytes:    after.TotalAlloc - before.TotalAlloc,
		p50:      percentile(0.50),
		p99:      percentile(0.99),
		heapPeak: peak,
	}, nil
}

func (b block) callsPerSecond() float64 { return float64(b.calls) / b.wall.Seconds() }

// processCPU is the user+system CPU time the process has used: client
// and server halves of the ORB together.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler reads the live-object heap every 5 ms through
// runtime/metrics, which does not stop the world, and reports the level
// the heap stayed under for 95 % of the repetition. The heap is a sawtooth
// with a period of milliseconds on the bulk workload: its maximum over a
// repetition is an extreme value that differs by a quarter from run to
// run, and a 10 Hz sampler sees a different tooth every time.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []uint64
}

func startHeapSampler() *heapSampler {
	// Room for 40 s of samples, allocated before the timed section.
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), samples: make([]uint64, 0, 8192)}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if len(h.samples) < cap(h.samples) {
				h.samples = append(h.samples, sample[0].Value.Uint64())
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stopAndPeak() uint64 {
	close(h.stop)
	<-h.done
	sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
	return h.samples[len(h.samples)*95/100]
}

// setUp deploys a workload and warms it up: what a process pays before
// its first timed call.
func setUp(w workload, cfg config, callers int, rec *recorder) (*deployment, error) {
	d, err := deploy(w, cfg, callers, rec)
	if err != nil {
		return nil, err
	}
	if err := d.warmUp(max(warmupCalls/cfg.scale, 2*callers)); err != nil {
		return nil, d.abandon(err)
	}
	return d, nil
}

// endToEndRun measures one workload with tracing off: timed set-ups (at
// least cfg.setups, and until cfg.setupTime has gone into them, so that a
// set-up of milliseconds is timed often enough for a steady median), then
// repetitions of the workload's fixed call count until
// cfg.seconds have been measured (three at least). Timing metrics are
// medians over the repetitions, count metrics totals over all of them.
func endToEndRun(cfg config, w workload) (result, error) {
	var r result
	var d *deployment
	var setups []float64
	for spent := time.Duration(0); len(setups) < cfg.setups || spent < cfg.setupTime; {
		if d != nil {
			r.account(d)
			d.close()
		}
		start := time.Now()
		var err error
		if d, err = setUp(w, cfg, cfg.callers, nil); err != nil {
			return r, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
	}
	defer d.close()

	var blocks []block
	for measured := time.Duration(0); measured < cfg.seconds || len(blocks) < 3; {
		b, err := d.measure(max(w.blockCalls/cfg.scale, 2*cfg.callers))
		if err != nil {
			return r, fmt.Errorf("%s: %w", w.name, err)
		}
		blocks = append(blocks, b)
		measured += b.wall
	}

	var calls, mallocs, allocated float64
	perBlock := func(f func(block) float64) float64 {
		vs := make([]float64, len(blocks))
		for i, b := range blocks {
			vs[i] = f(b)
		}
		return median(vs)
	}
	for _, b := range blocks {
		calls += float64(b.calls)
		mallocs += float64(b.mallocs)
		allocated += float64(b.bytes)
	}
	r.account(d)
	rate := perBlock(block.callsPerSecond)
	r.add("calls_per_s", rate, "1/s")
	r.add("lat_p50_us", perBlock(func(b block) float64 { return b.p50 }), "us")
	r.add("lat_p99_us", perBlock(func(b block) float64 { return b.p99 }), "us")
	r.add("cpu_us_per_call", perBlock(func(b block) float64 { return float64(b.cpu.Nanoseconds()) / 1e3 / float64(b.calls) }), "us")
	r.add("allocs_per_call", mallocs/calls, "count")
	r.add("alloc_B_per_call", allocated/calls, "bytes")
	r.add("heap_peak_MB", perBlock(func(b block) float64 { return float64(b.heapPeak) / 1e6 }), "MB")
	r.add("failed_frac", float64(r.failed)/float64(r.attempted), "ratio")
	r.add("setup_s", median(setups), "s")
	r.notes = append(r.notes,
		fmt.Sprintf("%d repetitions of %d calls and as many latency samples, %d set-ups", len(blocks), blocks[0].calls, len(setups)),
		fmt.Sprintf("bandwidth %.2f MB/s (calls_per_s x 2 x %d B payload; not gated)", rate*2*float64(4+4*w.ints)/1e6, 4+4*w.ints),
		fmt.Sprintf("protocols selected: %v", d.selected))
	return r, nil
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
