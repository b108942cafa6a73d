package core

import (
	"errors"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/stats"
)

// stormWorld is a one-server/one-client world on a fake clock: retry
// backoffs cost simulated time only, so the storm scenarios below are
// deterministic and instant.
func stormWorld(t *testing.T) (*netsim.Network, *Runtime, *clock.Fake, *Context, *GlobalPtr) {
	t.Helper()
	n, rt := testWorld(t)
	fake := clock.NewFake(time.Unix(1000, 0))
	rt.SetClock(fake)
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mC")
	if err := srv.BindSim(stormPort); err != nil {
		t.Fatal(err)
	}
	s, err := srv.Export("Echo", nil, echoMethods())
	if err != nil {
		t.Fatal(err)
	}
	e, _ := srv.EntryStream()
	gp := client.NewGlobalPtr(srv.NewRef(s, e))
	return n, rt, fake, srv, gp
}

const stormPort = 7301

// attemptCalls sums every per-endpoint rpc.calls counter — the number
// of wire attempts actually sent, retries included.
func attemptCalls(rt *Runtime) uint64 {
	var total uint64
	for key, v := range rt.Metrics().Snapshot().Counters {
		if name, _ := stats.SplitKey(key); name == "rpc.calls" {
			total += v
		}
	}
	return total
}

// TestRetryBudgetBoundsStorm is the retry-storm acceptance scenario:
// with the server crashed, N doomed invocations may amplify into at
// most N + MaxTokens wire attempts — the bucket bounds the burst — and
// once the bucket is dry each invocation fails fast with a typed
// *errs.BudgetExhausted instead of hammering the dead endpoint.
func TestRetryBudgetBoundsStorm(t *testing.T) {
	n, rt, _, _, gp := stormWorld(t)
	const maxTokens = 8
	gp.SetRetryBudget(RetryBudgetConfig{MaxTokens: maxTokens, Ratio: 0.1})

	for i := 0; i < 5; i++ {
		if _, err := gp.Invoke("echo", []byte("warm")); err != nil {
			t.Fatalf("warm-up call %d: %v", i, err)
		}
	}
	n.Crash("mA")

	const doomed = 40
	before := attemptCalls(rt)
	var exhausted int
	for i := 0; i < doomed; i++ {
		_, err := gp.Invoke("echo", []byte("doomed"))
		if err == nil {
			t.Fatalf("call %d against the crashed server succeeded", i)
		}
		var be *errs.BudgetExhausted
		if errors.As(err, &be) {
			exhausted++
			if be.Code != errs.Transport {
				t.Fatalf("exhaustion carries code %v, want transport", be.Code)
			}
			if errs.CodeOf(err) != errs.Exhausted {
				t.Fatalf("CodeOf(BudgetExhausted) = %v, want exhausted", errs.CodeOf(err))
			}
		}
	}
	attempts := attemptCalls(rt) - before

	// The bucket bounds amplification: every attempt beyond one per
	// invocation drew a token, and only maxTokens were in the bucket.
	if attempts > doomed+maxTokens {
		t.Fatalf("%d attempts for %d invocations (amplification %.2f); budget of %d should bound it at %d",
			attempts, doomed, float64(attempts)/doomed, maxTokens, doomed+maxTokens)
	}
	if attempts < doomed {
		t.Fatalf("%d attempts for %d invocations — every invocation sends at least once", attempts, doomed)
	}
	if exhausted == 0 {
		t.Fatal("no invocation surfaced BudgetExhausted though the bucket must have drained")
	}

	// The exhaustion is observable: the per-code counter moved and the
	// GP's /statusz row shows a dry bucket.
	ex := rt.Metrics().Snapshot().Counters[`rpc.retry.budget_exhausted{code="transport"}`]
	if ex != uint64(exhausted) {
		t.Fatalf("budget_exhausted counter = %d, want %d", ex, exhausted)
	}
	st := gpRetryStatus(t, rt, "client")
	if !st.Enabled || st.Tokens >= 1 || st.Exhausted == 0 {
		t.Fatalf("statusz retry row %+v, want enabled with a dry bucket and exhaustions", st)
	}
}

// TestRetryStormWithoutBudgets pins the storm the budgets exist to
// prevent: with budgeting disabled every doomed invocation burns the
// full attempt allowance, so amplification sits exactly at
// maxInvokeAttempts — the pre-PR-7 behavior Figure E1 uses as its
// baseline. If this balloons past the pin, the retry loop grew a new
// amplification source; if budgets-on ever approaches it, the brake
// broke.
func TestRetryStormWithoutBudgets(t *testing.T) {
	n, rt, _, _, gp := stormWorld(t)
	gp.SetRetryBudget(RetryBudgetConfig{Disabled: true})

	if _, err := gp.Invoke("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	n.Crash("mA")

	const doomed = 20
	before := attemptCalls(rt)
	for i := 0; i < doomed; i++ {
		_, err := gp.Invoke("echo", []byte("doomed"))
		if err == nil {
			t.Fatalf("call %d against the crashed server succeeded", i)
		}
		if !errs.HasCode(err, errs.Transport) {
			t.Fatalf("call %d: err %v, want a transport-coded failure", i, err)
		}
		var be *errs.BudgetExhausted
		if errors.As(err, &be) {
			t.Fatalf("call %d hit a budget with budgeting disabled: %v", i, err)
		}
	}
	attempts := attemptCalls(rt) - before
	if attempts != doomed*maxInvokeAttempts {
		t.Fatalf("%d attempts for %d unbudgeted invocations, want exactly %d (amplification pinned at %d)",
			attempts, doomed, doomed*maxInvokeAttempts, maxInvokeAttempts)
	}
}

// TestRetryBudgetRefillsFromGoodput: successes re-earn retry allowance
// at Ratio per reply, so a recovered service climbs back to a usable
// burst instead of staying locked out — and the climb is visible in the
// GP's status row.
func TestRetryBudgetRefillsFromGoodput(t *testing.T) {
	n, rt, _, srv, gp := stormWorld(t)
	const ratio = 0.1
	gp.SetRetryBudget(RetryBudgetConfig{MaxTokens: 4, Ratio: ratio})

	if _, err := gp.Invoke("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	n.Crash("mA")
	// Drain the bucket dry.
	for i := 0; i < 10; i++ {
		if _, err := gp.Invoke("echo", []byte("doomed")); err == nil {
			t.Fatal("call against the crashed server succeeded")
		}
	}
	if st := gpRetryStatus(t, rt, "client"); st.Tokens >= 1 {
		t.Fatalf("bucket holds %.2f tokens after the drain, want < 1", st.Tokens)
	}

	n.Restart("mA")
	if err := srv.BindSim(stormPort); err != nil {
		t.Fatal(err)
	}
	rt.Health().ProbeNow()
	const successes = 30
	for i := 0; i < successes; i++ {
		if _, err := gp.Invoke("echo", []byte("post")); err != nil {
			t.Fatalf("post-restart call %d: %v", i, err)
		}
	}
	st := gpRetryStatus(t, rt, "client")
	want := successes * ratio
	if st.Tokens < want-0.5 || st.Tokens > want+0.5 {
		t.Fatalf("bucket holds %.2f tokens after %d successes, want about %.1f (ratio %.2f)",
			st.Tokens, successes, want, ratio)
	}
}

// gpRetryStatus digs the (single) GP retry row for a context out of the
// runtime status snapshot.
func gpRetryStatus(t *testing.T, rt *Runtime, ctxName string) GPRetryStatus {
	t.Helper()
	for _, c := range rt.Status().Contexts {
		if c.Name != ctxName {
			continue
		}
		if len(c.GPs) != 1 {
			t.Fatalf("context %s has %d GPs in /statusz, want 1", ctxName, len(c.GPs))
		}
		return c.GPs[0].Retry
	}
	t.Fatalf("context %s not in /statusz", ctxName)
	return GPRetryStatus{}
}
