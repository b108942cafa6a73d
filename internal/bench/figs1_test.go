package bench

import (
	"testing"
	"time"
)

// TestFigureS1Shapes runs a shrunken saturation sweep and checks the
// claims the figure exists to demonstrate: a knee exists (goodput
// plateaus while the latency tail diverges past it), and micro-batching
// moves the knee measurably up the offered-load ladder. Absolute rates
// are host-dependent; the asserted shapes are generous.
func TestFigureS1Shapes(t *testing.T) {
	parallel(t)
	cfg := S1Config{
		Rates:        []float64{1000, 2000, 4000, 8000},
		StepDuration: 150 * time.Millisecond,
		Workers:      24,
		Deadline:     50 * time.Millisecond,
	}
	res, err := RunFigureS1(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatFigureS1(res))
	if len(res.Curves) != 3 {
		t.Fatalf("curves = %d, want plain/batched/failover", len(res.Curves))
	}
	for _, c := range res.Curves {
		if len(c.Points) != len(cfg.Rates) {
			t.Fatalf("%s: %d points, want %d", c.Mode, len(c.Points), len(cfg.Rates))
		}
		for _, p := range c.Points {
			// Open-loop issue is schedule-driven: the generator must have
			// pushed the whole window's arrivals regardless of backlog.
			if p.Issued < int(0.9*p.OfferedPerSec*cfg.StepDuration.Seconds()) {
				t.Fatalf("%s@%.0f: only %d ops issued — the generator throttled (coordinated omission at the source)",
					c.Mode, p.OfferedPerSec, p.Issued)
			}
			if p.Completed+p.Failed != p.Issued {
				t.Fatalf("%s@%.0f: %d+%d != %d issued", c.Mode, p.OfferedPerSec, p.Completed, p.Failed, p.Issued)
			}
		}
	}

	plain := res.Curve(S1ModePlain)
	batched := res.Curve(S1ModeBatched)
	failover := res.Curve(S1ModeFailover)

	// The knee: the plain curve must hold the bottom rung and lose the
	// top one — goodput plateaus below the offered load.
	if !plain.Points[0].Saturated {
		t.Fatalf("plain collapsed at the lowest rung: %+v", plain.Points[0])
	}
	top := plain.Points[len(plain.Points)-1]
	if top.Saturated {
		t.Fatalf("plain never saturated — the ladder does not reach the knee: %+v", top)
	}
	// Past the knee the tail diverges: top-rung p999 dwarfs bottom-rung
	// p999 (intended-start measurement makes the backlog visible).
	if bottom := plain.Points[0]; top.P999 < 4*bottom.P999 {
		t.Fatalf("plain latency tail did not diverge past the knee: p999 %v -> %v", bottom.P999, top.P999)
	}
	if top.P999 < top.P99 {
		t.Fatalf("p999 %v below p99 %v", top.P999, top.P99)
	}

	// The headline: batching amortizes the frame overhead, so its knee
	// sits measurably higher. Demand at least 2x (the model predicts
	// more).
	if plain.SaturationRate <= 0 || batched.SaturationRate < 2*plain.SaturationRate {
		t.Fatalf("batching moved the knee %.0f -> %.0f req/s, want >= 2x",
			plain.SaturationRate, batched.SaturationRate)
	}

	// The failover curve pushes traffic through a crash/restart of one
	// of its servers: a third of the targets die for a third of every
	// step, so demand completion, not a clean rung.
	low := failover.Points[0]
	if low.Completed < low.Issued/3 {
		t.Fatalf("failover curve moved only %d of %d ops through the crash window", low.Completed, low.Issued)
	}
}
