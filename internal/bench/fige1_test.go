package bench

import (
	"testing"
	"time"

	"openhpcxx/internal/netsim"
)

// TestFigureE1BudgetsWin pins the figure's headline claim: through an
// identical overload + crash schedule, class-keyed retry budgets bound
// retry amplification and keep the steady dependency's goodput up —
// unbudgeted workers spend the outage waiting out retry backoffs
// against the dead endpoint, budgeted workers drain their buckets, fail
// fast with typed exhaustion, and keep serving the path that works.
func TestFigureE1BudgetsWin(t *testing.T) {
	parallel(t)
	cfg := E1Config{
		Profile:  netsim.ProfileEthernet,
		Duration: 900 * time.Millisecond,
	}
	res, err := RunFigureE1(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	byMode := map[string]E1Point{}
	for _, p := range res.Points {
		if p.Total <= 0 || p.OK <= 0 || p.SteadyOK <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
		if p.Attempts < uint64(p.Total) {
			t.Fatalf("%s: %d attempts for %d tasks — every task sends at least once", p.Mode, p.Attempts, p.Total)
		}
		byMode[p.Mode] = p
	}
	on, off := byMode[ModeBudgeted], byMode[ModeUnbudgeted]

	// The brake: budgets bound attempts-per-task well below the
	// unbudgeted storm.
	if on.Amplification+0.05 >= off.Amplification {
		t.Errorf("budgeted amplification %.3fx not measurably below unbudgeted %.3fx",
			on.Amplification, off.Amplification)
	}
	// The payoff: the steady dependency completes more work because the
	// workers are not stuck in backoffs against the dead one.
	if on.SteadyOK <= off.SteadyOK {
		t.Errorf("budgeted steady-path completions %d not above unbudgeted %d — the storm cost nothing",
			on.SteadyOK, off.SteadyOK)
	}
	// The mechanism is visible: budgeted mode surfaces typed exhaustion,
	// unbudgeted mode never can.
	if on.Exhausted == 0 {
		t.Error("budgeted mode surfaced no BudgetExhausted through a crash window — the bucket never drained")
	}
	if off.Exhausted != 0 {
		t.Errorf("unbudgeted mode surfaced %d BudgetExhausted errors, want 0", off.Exhausted)
	}
	// The outage is real in both modes: doomed flaky-path tasks failed.
	if off.Failed == 0 {
		t.Error("unbudgeted mode survived the crash unscathed — the schedule injected nothing")
	}
	if len(on.ErrorsByCode) == 0 {
		t.Error("budgeted mode recorded no per-code error counters through an outage")
	}
}
