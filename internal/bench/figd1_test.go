package bench

import (
	"testing"
	"time"

	"openhpcxx/internal/netsim"
)

// TestFigureD1Shapes runs a shrunken Figure D1 and checks the claims the
// figure exists to demonstrate: cached p99 flat within 2x across the
// size sweep, and resolution surviving the shard crash when replicated.
func TestFigureD1Shapes(t *testing.T) {
	parallel(t)
	cfg := D1Config{
		Profile:       netsim.ProfileUnshaped,
		Sizes:         []int{1_000, 50_000},
		Ops:           300,
		HotNames:      64,
		CrashDuration: 700 * time.Millisecond,
	}
	res, err := RunFigureD1(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scale) != 4 {
		t.Fatalf("scale points = %d, want 4", len(res.Scale))
	}
	var cachedP99 []time.Duration
	for _, p := range res.Scale {
		if p.Failed > 0 {
			t.Fatalf("%s/%d: %d failed ops", p.Mode, p.Registered, p.Failed)
		}
		if p.Throughput <= 0 || p.P99 <= 0 {
			t.Fatalf("%s/%d: degenerate measurements %+v", p.Mode, p.Registered, p)
		}
		switch p.Mode {
		case D1ModeCached:
			cachedP99 = append(cachedP99, p.P99)
			if p.HitRate < 0.9 {
				t.Fatalf("cached/%d: hit rate %.2f, want >= 0.9", p.Registered, p.HitRate)
			}
		case D1ModeUncached:
			if p.HitRate != 0 {
				t.Fatalf("uncached/%d: hit rate %.2f, want 0", p.Registered, p.HitRate)
			}
		}
	}
	// The acceptance shape: growing the table must not grow cached p99
	// beyond 2x. A single shrunken run is noisy, so allow the full 2x.
	for _, p99 := range cachedP99[1:] {
		if ratio := float64(p99) / float64(cachedP99[0]); ratio > 2.0 {
			t.Fatalf("cached p99 grew %.2fx across the sweep: %v", ratio, cachedP99)
		}
	}

	if len(res.Crash) != 2 {
		t.Fatalf("crash points = %d, want 2", len(res.Crash))
	}
	var rep, single D1CrashPoint
	for _, p := range res.Crash {
		if p.Mode == D1ModeReplicated {
			rep = p
		} else {
			single = p
		}
	}
	// Replication must carry resolution through the outage; the single
	// replica must actually have suffered it (else the schedule tested
	// nothing).
	if rep.Availability < 0.95 {
		t.Fatalf("replicated availability %.3f, want >= 0.95", rep.Availability)
	}
	if single.Failed == 0 {
		t.Fatal("single-replica mode saw no failures — the crash never bit")
	}
	if rep.Availability <= single.Availability {
		t.Fatalf("replicated availability %.3f not above single %.3f",
			rep.Availability, single.Availability)
	}

	if FormatFigureD1(res) == "" {
		t.Fatal("empty rendering")
	}
}
