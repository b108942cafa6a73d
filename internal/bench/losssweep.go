package bench

import (
	"fmt"
	"time"

	"openhpcxx/internal/netsim"
	"openhpcxx/internal/proto/udprel"
	"openhpcxx/internal/testbed"
)

// LossPoint is one cell of the extension experiment L1: goodput of the
// udprel custom protocol as a function of datagram loss.
type LossPoint struct {
	LossRate float64
	Sample   Measurement
}

// LossSweepConfig parameterizes L1.
type LossSweepConfig struct {
	// Rates are the loss probabilities to sweep (default 0..0.4).
	Rates []float64
	// Ints is the exchanged array size (default 4096).
	Ints        int
	MinReps     int
	MinDuration time.Duration
	// RTO tunes the ARQ (default 10ms — small, so retransmissions show
	// up as latency rather than stalls).
	RTO time.Duration
}

// RunLossSweep measures udprel end-to-end goodput across loss rates —
// an extension beyond the paper demonstrating a user-written protocol
// under conditions the built-ins cannot survive.
func RunLossSweep(cfg LossSweepConfig, o Options) (LossPoints, error) {
	if cfg.Rates == nil {
		cfg.Rates = []float64{0, 0.05, 0.1, 0.2, 0.4}
	}
	setDefault(&cfg.Ints, 4096)
	setDefault(&cfg.MinReps, 3)
	setDefault(&cfg.MinDuration, pick(o, 100*time.Millisecond, 30*time.Millisecond))
	setDefault(&cfg.RTO, 10*time.Millisecond)

	var out LossPoints
	for _, rate := range cfg.Rates {
		m, err := lossCell(cfg, rate, o)
		if err != nil {
			return nil, err
		}
		out = append(out, LossPoint{LossRate: rate, Sample: m})
	}
	return out, nil
}

// lossCell measures one loss rate on a fresh two-machine testbed whose
// only binding is the udprel protocol.
func lossCell(cfg LossSweepConfig, rate float64, o Options) (Measurement, error) {
	arq := udprel.Config{RTO: cfg.RTO, MaxTries: 50, FragSize: 2048}
	tb := testbed.New("losssweep", o.OnRuntime)
	defer tb.Close()
	tb.LAN("lan", "c", netsim.ProfileUnshaped, "a", "b")
	tb.Net.Seed(int64(1000 + 1000*rate))
	tb.Net.SetDatagramShaping("a", "b", netsim.DatagramProfile{
		Link:     netsim.ProfileUnshaped,
		LossRate: rate,
	})
	tb.RT.DefaultPool().Register(udprel.NewFactory(arq))
	server := tb.Context("server", "b").Echo("")
	tb.Do(func() error { return udprel.Bind(server.Ctx, 0, arq) })
	client := tb.Context("client", "a")
	ref := server.Ref(server.Entry(udprel.Entry))
	if err := tb.Build(); err != nil {
		return Measurement{}, err
	}
	return measure(client.Ctx.NewGlobalPtr(ref), cfg.Ints, cfg.MinReps, cfg.MinDuration, "loss %.0f%%", rate*100)
}

// LossPoints is the sweep's report.
type LossPoints []LossPoint

// Format implements Report.
func (p LossPoints) Format() string { return FormatLossSweep(p) }

// FormatLossSweep renders L1 as a table.
func FormatLossSweep(points []LossPoint) string {
	s := "L1 (extension): udprel custom protocol goodput vs. datagram loss\n"
	s += fmt.Sprintf("%-10s %-14s %-12s %s\n", "loss", "goodput", "avg rtt", "reps")
	for _, p := range points {
		s += fmt.Sprintf("%8.0f%%  %9.3f Mbps %-12v %d\n",
			p.LossRate*100, p.Sample.BandwidthBps/1e6, p.Sample.AvgRTT, p.Sample.Reps)
	}
	return s
}
