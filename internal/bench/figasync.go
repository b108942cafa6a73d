// The async figure: small-message throughput of one client/server pair
// under three invocation disciplines — synchronous request/reply,
// pipelined futures, and adaptive micro-batching — plus batching through
// a full capability chain. The paper's §5 measures bandwidth for large
// arrays, where the link dominates; this extension measures the other
// end of the spectrum, many small calls, where per-round-trip latency
// dominates and the async subsystem pays off.
package bench

import (
	"strings"
	"time"

	"openhpcxx/internal/capability"
	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/future"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/testbed"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/xdr"
)

// Async figure mode names.
const (
	ModeSync         = "sync"
	ModePipelined    = "pipelined"
	ModeBatched      = "batched"
	ModeBatchedGlue  = "batched+glue"
	AsyncFigureTitle = "Figure A1: small-message invocation throughput"
)

// AsyncModes lists the figure's rows in presentation order.
func AsyncModes() []string {
	return []string{ModeSync, ModePipelined, ModeBatched, ModeBatchedGlue}
}

// AsyncConfig parameterizes the async throughput figure.
type AsyncConfig struct {
	// Profile shapes the client-server link (the figure targets
	// ProfileWAN and ProfileEthernet, where round trips are expensive).
	Profile netsim.LinkProfile
	// Ints is the array length exchanged per call (default 64 — a 260
	// byte payload, squarely in small-message territory).
	Ints int
	// Calls per mode (default 256).
	Calls int
	// MaxInFlight bounds the pipeline depth for the async modes
	// (default core.DefaultMaxInFlight).
	MaxInFlight int
}

func (c *AsyncConfig) fill(o Options) {
	setDefault(&c.Ints, 64)
	setDefault(&c.Calls, o.Calls)
	setDefault(&c.Calls, pick(o, 256, 128))
	setDefault(&c.MaxInFlight, core.DefaultMaxInFlight)
}

// AsyncPoint is one row of the figure: one invocation discipline.
type AsyncPoint struct {
	Mode string `json:"mode"`
	// Calls completed and payload bytes carried per call per direction.
	Calls int `json:"calls"`
	Bytes int `json:"bytes_per_call"`
	// Elapsed covers issuing every call and collecting every reply.
	Elapsed time.Duration `json:"elapsed_ns"`
	// CallsPerSec is the headline throughput number.
	CallsPerSec float64 `json:"calls_per_sec"`
	// AvgLatency is elapsed/calls — the effective per-call cost, which
	// pipelining amortizes below one round trip.
	AvgLatency time.Duration `json:"avg_latency_ns"`
	// Speedup is CallsPerSec relative to the sync row.
	Speedup float64 `json:"speedup_vs_sync"`
}

// AsyncResult is the whole figure for one link profile.
type AsyncResult struct {
	Profile string       `json:"profile"`
	Ints    int          `json:"ints"`
	Points  []AsyncPoint `json:"points"`
}

// runAsyncMode executes cfg.Calls exchanges under one discipline and
// reports the wall-clock throughput.
func runAsyncMode(gp *core.GlobalPtr, cfg AsyncConfig, mode string) (AsyncPoint, error) {
	gp.SetMaxInFlight(cfg.MaxInFlight)
	switch mode {
	case ModeBatched, ModeBatchedGlue:
		gp.SetBatchPolicy(&transport.BatchPolicy{
			MaxMessages: cfg.MaxInFlight,
			MaxDelay:    transport.DefaultBatchDelay,
		})
	}

	arr := testbed.Ints(cfg.Ints)
	payload := 4 + 4*cfg.Ints

	// Warm-up: selection, connection setup, one full exchange.
	if _, err := exchange(gp, arr); err != nil {
		return AsyncPoint{}, errs.Wrapf(errs.CodeOf(err), err, "bench: %s warm-up", mode)
	}

	args, err := xdr.Marshal(arr)
	if err != nil {
		return AsyncPoint{}, err
	}
	start := time.Now()
	switch mode {
	case ModeSync:
		for i := 0; i < cfg.Calls; i++ {
			out, err := gp.Invoke("exchange", args)
			if err != nil {
				return AsyncPoint{}, errs.Wrapf(errs.CodeOf(err), err, "bench: %s call %d", mode, i)
			}
			if len(out) != len(args) {
				return AsyncPoint{}, errs.Newf(errs.Internal, "bench: %s call %d: %d bytes back, want %d", mode, i, len(out), len(args))
			}
		}
	default:
		fs := make([]*future.Future, cfg.Calls)
		for i := range fs {
			fs[i] = gp.InvokeAsync("exchange", args)
		}
		for i, f := range fs {
			out, err := f.Wait()
			if err != nil {
				return AsyncPoint{}, errs.Wrapf(errs.CodeOf(err), err, "bench: %s call %d", mode, i)
			}
			if len(out) != len(args) {
				return AsyncPoint{}, errs.Newf(errs.Internal, "bench: %s call %d: %d bytes back, want %d", mode, i, len(out), len(args))
			}
		}
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return AsyncPoint{
		Mode:        mode,
		Calls:       cfg.Calls,
		Bytes:       payload,
		Elapsed:     elapsed,
		CallsPerSec: float64(cfg.Calls) / elapsed.Seconds(),
		AvgLatency:  elapsed / time.Duration(cfg.Calls),
	}, nil
}

// RunFigureAsync produces the async throughput figure for one profile.
func RunFigureAsync(cfg AsyncConfig, o Options) (*AsyncResult, error) {
	cfg.fill(o)
	// Client and server machines joined by the configured link; a plain
	// stream reference and a glue (encrypt+auth) reference to one servant.
	tb := testbed.New("bench-async", o.OnRuntime)
	defer tb.Close()
	tb.LAN("lan", "campus", cfg.Profile, "client-m", "server-m")
	client := tb.Context("client", "client-m")
	remote := tb.Context("server", "server-m").BindAll().Echo("")
	streamE := remote.Stream()
	plainRef := remote.Ref(streamE)
	glueRef := remote.Ref(remote.Glue("async-sec", streamE,
		capability.NewRandomEncrypt(capability.ScopeAlways),
		capability.MustNewAuth("bench", []byte("bench-key"), capability.ScopeAlways)))
	if err := tb.Build(); err != nil {
		return nil, err
	}

	res := &AsyncResult{Profile: cfg.Profile.Name, Ints: cfg.Ints}
	var syncRate float64
	for _, mode := range AsyncModes() {
		ref := plainRef
		if mode == ModeBatchedGlue {
			ref = glueRef
		}
		p, err := runAsyncMode(client.Ctx.NewGlobalPtr(ref), cfg, mode)
		if err != nil {
			return nil, err
		}
		if mode == ModeSync {
			syncRate = p.CallsPerSec
		}
		if syncRate > 0 {
			p.Speedup = p.CallsPerSec / syncRate
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// AsyncReport is the whole figure: one result per target profile.
type AsyncReport []*AsyncResult

// runFigureAsyncAll runs the figure over the profiles it targets — the
// WAN and the Ethernet, where round trips are expensive.
func runFigureAsyncAll(o Options) (AsyncReport, error) {
	var rep AsyncReport
	for _, p := range []netsim.LinkProfile{netsim.ProfileWAN, netsim.ProfileEthernet} {
		res, err := RunFigureAsync(AsyncConfig{Profile: pick(o, p, p.Scaled(16))}, o)
		if err != nil {
			return nil, err
		}
		rep = append(rep, res)
	}
	return rep, nil
}

// Format implements Report.
func (r AsyncReport) Format() string {
	parts := make([]string, len(r))
	for i, res := range r {
		parts[i] = FormatFigureAsync(res)
	}
	return strings.Join(parts, "\n")
}
