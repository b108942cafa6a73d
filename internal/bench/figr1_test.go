package bench

import (
	"testing"
	"time"

	"openhpcxx/internal/netsim"
)

// TestFigureR1FailoverWins pins the figure's headline claim: through an
// identical crash/restart + blackhole schedule, protocol-table failover
// yields strictly better availability than pinning the preferred entry,
// and never loses a non-expired request (the breaker trips inside the
// invoke retry budget, so the worst case during an outage is a
// deadline-bounded expiry, not a hard failure).
func TestFigureR1FailoverWins(t *testing.T) {
	parallel(t)
	cfg := R1Config{
		Profile:  netsim.ProfileEthernet,
		Duration: 800 * time.Millisecond,
	}
	res, err := RunFigureR1(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	byMode := map[string]R1Point{}
	for _, p := range res.Points {
		if p.Total <= 0 || p.OK <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
		byMode[p.Mode] = p
	}
	fo, nf := byMode[ModeFailover], byMode[ModeNoFailover]
	if fo.Availability <= nf.Availability {
		t.Errorf("failover availability %.2f%% not better than no-failover %.2f%%",
			100*fo.Availability, 100*nf.Availability)
	}
	if fo.Failed != 0 {
		t.Errorf("failover mode lost %d non-expired requests, want 0", fo.Failed)
	}
	if !fo.Promoted {
		t.Error("failover mode did not re-promote the primary entry after recovery")
	}
	if nf.Failed == 0 {
		t.Error("no-failover mode survived the crash unscathed — the schedule injected nothing")
	}
}
