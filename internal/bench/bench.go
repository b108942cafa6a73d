// Package bench is the harness behind every figure in the paper's
// evaluation and this repository's extensions: one table of figures
// (figures.go), each a Run function from harness Options to a Report
// that formats itself and marshals to JSON, shared by the repository's
// testing.B benchmarks and the ohpc-bench command. Figures build their
// worlds with internal/testbed and, where they push a paced call stream
// through a fault schedule, drive it with the one loop in driver.go.
//
// The workload is the paper's: a client makes a series of remote service
// requests that exchange an array of integers with the server, and the
// average bandwidth over a number of readings is computed for array
// sizes from 1 to 1 million (paper §5).
package bench

import (
	"time"

	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/testbed"
)

// Options are the harness-wide knobs ohpc-bench's flags set. Each
// figure's fill folds them into its own defaults, so what -quick means
// for a figure is written next to what its full run is.
type Options struct {
	// Quick time-scales shaped links 16x and shortens runs and sweeps.
	Quick bool
	// Reps, when > 0, overrides a figure's per-cell repetition count.
	Reps int
	// Calls, when > 0, overrides the async figure's calls per mode.
	Calls int
	// Profile selects Figure 5's network: "atm", "ethernet", or both
	// ("" or "both").
	Profile string
	// Plot adds the ASCII log-log rendering to Figure 5's report.
	Plot bool
	// OnRuntime, when set, observes every runtime a figure builds, from
	// construction to shutdown (ohpc-bench -introspect attaches here).
	OnRuntime testbed.Hook
}

// pick returns the full-run value, or the quick one under -quick.
func pick[T any](o Options, full, quick T) T {
	if o.Quick {
		return quick
	}
	return full
}

// setDefault assigns v to *p when the caller left *p at its zero value.
func setDefault[T comparable](p *T, v T) {
	var zero T
	if *p == zero {
		*p = v
	}
}

// Sizes1ToM is the paper's sweep: array sizes from 1 to 1M integers in
// powers of four.
func Sizes1ToM() []int {
	var sizes []int
	for n := 1; n <= 1<<20; n *= 4 {
		sizes = append(sizes, n)
	}
	return sizes
}

// Measurement is one (protocol, size) cell of Figure 5.
type Measurement struct {
	Ints int // array length
	// Bytes is the XDR payload carried per request in each direction.
	Bytes int
	// Reps is how many exchanges were averaged.
	Reps int
	// AvgRTT is the mean round-trip time of one exchange.
	AvgRTT time.Duration
	// BandwidthBps is the payload throughput in bits per second,
	// counting both directions of the exchange.
	BandwidthBps float64
}

// exchange performs one echo call.
func exchange(gp *core.GlobalPtr, arr *core.Int32Slice) (*core.Int32Slice, error) {
	return core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", arr)
}

// MeasureExchange performs repeated exchanges of an n-int array through
// gp and reports the averaged bandwidth. It runs at least minReps
// exchanges and keeps going until minDuration has elapsed.
func MeasureExchange(gp *core.GlobalPtr, n int, minReps int, minDuration time.Duration) (Measurement, error) {
	if minReps < 1 {
		minReps = 1
	}
	arr := testbed.Ints(n)
	// Warm-up: protocol selection, connection setup, and one transfer.
	if _, err := exchange(gp, arr); err != nil {
		return Measurement{}, err
	}

	payload := 4 + 4*n // XDR: length prefix + ints
	reps := 0
	start := time.Now()
	for {
		out, err := exchange(gp, arr)
		if err != nil {
			return Measurement{}, err
		}
		if len(out.V) != n {
			return Measurement{}, errs.Newf(errs.Internal, "bench: exchange returned %d ints, want %d", len(out.V), n)
		}
		reps++
		if reps >= minReps && time.Since(start) >= minDuration {
			break
		}
	}
	elapsed := time.Since(start)
	totalBits := float64(2*payload*reps) * 8
	return Measurement{
		Ints:         n,
		Bytes:        payload,
		Reps:         reps,
		AvgRTT:       elapsed / time.Duration(reps),
		BandwidthBps: totalBits / elapsed.Seconds(),
	}, nil
}

// measure is MeasureExchange with the failing cell named in the error.
func measure(gp *core.GlobalPtr, n, minReps int, minDuration time.Duration, cell string, args ...any) (Measurement, error) {
	m, err := MeasureExchange(gp, n, minReps, minDuration)
	if err != nil {
		return m, errs.Wrapf(errs.CodeOf(err), err, "bench: "+cell, args...)
	}
	return m, nil
}
