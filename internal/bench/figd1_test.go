package bench

import (
	"testing"
	"time"

	"openhpcxx/internal/netsim"
)

// TestFigureD1Shapes runs a shrunken Figure D1 and checks the claims the
// figure exists to demonstrate: a cached resolve costs the same across the
// size sweep, and resolution survives the shard crash when replicated.
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
	var cached []D1ScalePoint
	for _, p := range res.Scale {
		if p.Failed > 0 {
			t.Fatalf("%s/%d: %d failed ops", p.Mode, p.Registered, p.Failed)
		}
		if p.Throughput <= 0 || p.P99 <= 0 {
			t.Fatalf("%s/%d: degenerate measurements %+v", p.Mode, p.Registered, p)
		}
		switch p.Mode {
		case D1ModeCached:
			cached = append(cached, p)
			if p.HitRate < 0.9 {
				t.Fatalf("cached/%d: hit rate %.2f, want >= 0.9", p.Registered, p.HitRate)
			}
		case D1ModeUncached:
			if p.HitRate != 0 {
				t.Fatalf("uncached/%d: hit rate %.2f, want 0", p.Registered, p.HitRate)
			}
		}
	}
	// The acceptance shape: growing the table must not grow what a cached
	// resolve costs. Its cost is the directory RPC a miss makes, and the ops
	// are the same 300 at every size, so the misses — counted, not timed —
	// must not grow. The p99s the full-scale figure plots are two real-clock
	// tails of 300 samples each here: logged, not compared.
	for _, p := range cached[1:] {
		if p.HitRate < cached[0].HitRate {
			t.Fatalf("cached misses grew with the table: hit rate %.4f at %d names, %.4f at %d",
				cached[0].HitRate, cached[0].Registered, p.HitRate, p.Registered)
		}
		t.Logf("cached p99 %v at %d names, %v at %d", cached[0].P99, cached[0].Registered, p.P99, p.Registered)
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
