package bench

import (
	"testing"

	"openhpcxx/internal/netsim"
)

// TestFigureAsyncSpeedup pins the figure's headline claim on a
// time-scaled WAN: pipelined and batched small-message invocation beat
// synchronous request/reply by at least 2x, and every mode returns
// correct payloads (runAsyncMode verifies reply sizes call by call).
func TestFigureAsyncSpeedup(t *testing.T) {
	parallel(t)
	scale := 32.0
	if raceEnabled {
		scale = 64
	}
	res, err := RunFigureAsync(AsyncConfig{
		Profile:     netsim.ProfileWAN.Scaled(scale),
		Calls:       96,
		MaxInFlight: 16,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rates := map[string]float64{}
	for _, p := range res.Points {
		if p.CallsPerSec <= 0 || p.Elapsed <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
		rates[p.Mode] = p.CallsPerSec
	}
	for _, mode := range []string{ModePipelined, ModeBatched} {
		if got := rates[mode] / rates[ModeSync]; got < 2 {
			t.Errorf("%s speedup %.2fx over sync, want >= 2x (sync %.0f/s, %s %.0f/s)",
				mode, got, rates[ModeSync], mode, rates[mode])
		}
	}
	// The glue-chained batched mode must at least work and not collapse
	// below the synchronous baseline; its crypto work is real CPU.
	if rates[ModeBatchedGlue] <= 0 {
		t.Fatal("batched+glue mode produced no throughput")
	}
}

// TestFigureAsyncEthernet runs the second target profile briefly — the
// figure must hold its shape on a LAN, not just a WAN.
func TestFigureAsyncEthernet(t *testing.T) {
	parallel(t)
	res, err := RunFigureAsync(AsyncConfig{
		Profile: netsim.ProfileEthernet.Scaled(8),
		Calls:   48,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(AsyncModes()) {
		t.Fatalf("got %d points, want %d", len(res.Points), len(AsyncModes()))
	}
	if res.Points[1].CallsPerSec <= res.Points[0].CallsPerSec {
		t.Errorf("pipelined (%.0f/s) not faster than sync (%.0f/s) on ethernet",
			res.Points[1].CallsPerSec, res.Points[0].CallsPerSec)
	}
}
