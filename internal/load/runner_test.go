package load

import (
	"context"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/errs"
)

// TestSmokeOpenLoopFakeClock is the make load-smoke scenario: the full
// harness — grid topology, servers, mixed workload, open-loop arrival —
// on a fake clock, so the run costs simulated time only and the numbers
// are reproducible.
func TestSmokeOpenLoopFakeClock(t *testing.T) {
	sc, err := ParseFile("testdata/scenarios/valid/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	fake := clock.NewFake(time.Unix(9000, 0))
	res, err := RunScenario(context.Background(), sc, fake, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantOps := int(sc.Duration() / (time.Duration(float64(time.Second) / sc.Arrival.RatePerSec)))
	if res.Issued != wantOps {
		t.Fatalf("open-loop generator issued %d ops, want the full %d-op schedule", res.Issued, wantOps)
	}
	if res.Completed+res.Failed != res.Issued {
		t.Fatalf("ops leaked: %d completed + %d failed != %d issued", res.Completed, res.Failed, res.Issued)
	}
	if res.Failed != 0 {
		t.Fatalf("%d ops failed on a fault-free unshaped grid", res.Failed)
	}
	if res.Latency.Count != uint64(res.Issued) {
		t.Fatalf("recorder holds %d samples for %d ops, want exactly one per op", res.Latency.Count, res.Issued)
	}
	if res.Mode != ArrivalOpen || res.OfferedPerSec != sc.Arrival.RatePerSec {
		t.Fatalf("result mislabeled: %+v", res)
	}
}

// TestSmokeClosedLoopMaxOps bounds a closed-loop run by op count — the
// fake-clock-safe termination path — and checks the completion-paced
// accounting.
func TestSmokeClosedLoopMaxOps(t *testing.T) {
	sc, err := ParseFile("testdata/scenarios/valid/minimal.json")
	if err != nil {
		t.Fatal(err)
	}
	fake := clock.NewFake(time.Unix(9000, 0))
	res, err := RunScenario(context.Background(), sc, fake, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != sc.MaxOps {
		t.Fatalf("closed loop issued %d ops, want max_ops=%d", res.Issued, sc.MaxOps)
	}
	if res.Completed != res.Issued || res.Failed != 0 {
		t.Fatalf("closed-loop accounting off: %+v", res)
	}
}

// TestRunnerFaultsAndChurn runs the harness through a crash/restart
// schedule with migration churn on the real clock (shaped profiles and
// fault timers are wall-clock), scaled down for test time. The workload
// must make progress through both.
func TestRunnerFaultsAndChurn(t *testing.T) {
	sc := &Scenario{
		Name:     "churny",
		Topology: Topology{LANs: 2, MachinesPerLAN: 3, Profile: "unshaped"},
		Servers:  3,
		Workers:  4,
		Workload: []WorkloadSpec{
			{Kind: KindSync, Weight: 2},
			{Kind: KindAsync, Weight: 1},
		},
		Arrival:    Arrival{Mode: ArrivalOpen, RatePerSec: 2000},
		DurationMS: 300,
		DeadlineMS: 100,
		Failover:   true,
		Faults: []FaultSpec{
			{AtMS: 80, Kind: FaultCrash, Machine: "lan1-m0"},
			{AtMS: 180, Kind: FaultRestart, Machine: "lan1-m0"},
		},
		Churn: Churn{MigrateEveryMS: 40},
	}
	res, err := RunScenario(context.Background(), sc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no ops completed through the fault schedule")
	}
	// The crash window dooms some share of the traffic; the run must
	// still push most of it through (failover + the two healthy servers).
	if res.Completed < res.Issued/2 {
		t.Fatalf("only %d of %d ops completed", res.Completed, res.Issued)
	}
	if res.Migrations == 0 {
		t.Fatal("churn loop never migrated an object")
	}
	if len(res.Schedule) != 2 {
		t.Fatalf("schedule %v, want the crash and restart", res.Schedule)
	}
}

// TestRunnerRejectsBadRestart keeps fault-plan construction coded: a
// restart aimed at a machine hosting no server is a config error, not a
// silent no-op at run time.
func TestRunnerRejectsBadRestart(t *testing.T) {
	sc := &Scenario{
		Name:       "misaimed",
		Topology:   Topology{LANs: 2, MachinesPerLAN: 2, Profile: "unshaped"},
		Servers:    1,
		Workers:    1,
		Workload:   []WorkloadSpec{{Kind: KindSync, Weight: 1}},
		Arrival:    Arrival{Mode: ArrivalClosed},
		DurationMS: 100,
		MaxOps:     10,
		Faults:     []FaultSpec{{AtMS: 10, Kind: FaultRestart, Machine: "lan1-m1"}},
	}
	_, err := NewRunner(sc, clock.NewFake(time.Unix(1, 0)), nil)
	if err == nil {
		t.Fatal("restart of a serverless machine accepted")
	}
	if got := errs.CodeOf(err); got != errs.Config {
		t.Fatalf("rejected with %v, want config", got)
	}
}

// TestRunnerValidatesScenario keeps NewRunner honest about validation.
func TestRunnerValidatesScenario(t *testing.T) {
	if _, err := NewRunner(&Scenario{}, nil, nil); errs.CodeOf(err) != errs.Config {
		t.Fatalf("empty scenario: %v", err)
	}
}
