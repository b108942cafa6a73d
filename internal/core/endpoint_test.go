package core

import (
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/stats"
)

// TestInvokeFeedsEndpointSeries pins the per-endpoint record: the
// binding's handles are labelled {endpoint, proto}, the endpoint is the
// address half of the health key the breaker rows name, and every
// finished exchange lands in that one series.
func TestInvokeFeedsEndpointSeries(t *testing.T) {
	_, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mC")
	_, ref := exportEcho(t, srv)
	gp := client.NewGlobalPtr(ref)
	for i := 0; i < 3; i++ {
		if _, err := gp.Invoke("echo", []byte("abcd")); err != nil {
			t.Fatal(err)
		}
	}

	_, addr, _ := strings.Cut(entryHealthKey(ref.Protocols[0]), "|")
	by := stats.Labels{"proto": string(ProtoStream), "endpoint": addr}
	snap := rt.MetricsSnapshot()
	if lat := snap.Histograms[stats.KeyWithLabels("rpc.latency_us", by)]; lat.Count != 3 || lat.Sum <= 0 {
		t.Fatalf("latency series %+v after 3 invokes (histograms %v)", lat, snap.HistogramNames())
	}
	for name, want := range map[string]uint64{"rpc.calls": 3, "rpc.req_bytes": 12, "rpc.resp_bytes": 12} {
		if got := snap.Counters[stats.KeyWithLabels(name, by)]; got != want {
			t.Fatalf("%s{%v} = %d, want %d", name, by, got, want)
		}
	}
	if n := len(snap.HistogramNames()); n != 1 {
		t.Fatalf("%d histograms after traffic to one endpoint: %v", n, snap.HistogramNames())
	}
}

// TestEndpointLatencyDeterministicUnderFakeClock pins the fake-clock
// contract: the engine times attempts against the runtime clock, so a
// simulated schedule — ten exchanges of 2 ms each, one per second —
// produces exactly reproducible readings in the endpoint's latency
// histogram.
func TestEndpointLatencyDeterministicUnderFakeClock(t *testing.T) {
	run := func() (count uint64, sum int64) {
		_, rt := testWorld(t)
		fc := clock.NewFake(time.Unix(1000, 0))
		rt.SetClock(fc)
		srv, _ := rt.NewContext("srv", "mA")
		client, _ := rt.NewContext("client", "mC")
		if err := srv.BindSim(0); err != nil {
			t.Fatal(err)
		}
		s, err := srv.Export("Slow", nil, map[string]Method{
			"work": func(args []byte) ([]byte, error) {
				fc.Advance(2 * time.Millisecond)
				return args, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		e, _ := srv.EntryStream()
		gp := client.NewGlobalPtr(srv.NewRef(s, e))
		for i := 0; i < 10; i++ {
			if _, err := gp.Invoke("work", make([]byte, 256)); err != nil {
				t.Fatal(err)
			}
			fc.Advance(time.Second)
		}
		return protoLatency(rt.MetricsSnapshot(), ProtoStream)
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != 10 || s1 != 20000 || c2 != c1 || s2 != s1 {
		t.Fatalf("latency_us count/sum %d/%d and %d/%d, want 10/20000 on both runs", c1, s1, c2, s2)
	}
}

// TestBindingsToOneEndpointShareHandles: two GPs bound to one endpoint
// count into the same handles; a GP bound to another endpoint of the
// same protocol does not.
func TestBindingsToOneEndpointShareHandles(t *testing.T) {
	_, rt := testWorld(t)
	srvA, _ := rt.NewContext("srvA", "mA")
	srvB, _ := rt.NewContext("srvB", "mB")
	client, _ := rt.NewContext("client", "mC")
	_, refA := exportEcho(t, srvA)
	_, refB := exportEcho(t, srvB)
	bound := func(ref *ObjectRef) *binding {
		gp := client.NewGlobalPtr(ref)
		if _, err := gp.Invoke("echo", nil); err != nil {
			t.Fatal(err)
		}
		gp.mu.Lock()
		defer gp.mu.Unlock()
		return gp.b
	}
	a1, a2, b := bound(refA), bound(refA), bound(refB)
	if a1.calls != a2.calls || a1.latency != a2.latency {
		t.Fatal("two bindings to one endpoint hold distinct handles")
	}
	if b.calls == a1.calls || b.latency == a1.latency {
		t.Fatal("bindings to two endpoints share a handle")
	}
}

// meterLabel truncation must cut on a rune boundary: a multi-byte rune
// straddling the limit would otherwise be split into invalid UTF-8 in
// a Prometheus label value.
func TestMeterLabelTruncatesOnRuneBoundary(t *testing.T) {
	long := strings.Repeat("x", 95) + "日本語テスト"
	got := meterLabel(long)
	if !utf8.ValidString(got) {
		t.Fatalf("truncated label is invalid UTF-8: %q", got)
	}
	if !strings.Contains(got, "…") {
		t.Fatalf("overlong label not elided: %q", got)
	}
	// Distinct overlong addresses must stay distinguishable.
	if meterLabel(long+"a") == meterLabel(long+"b") {
		t.Fatal("hash suffix failed to distinguish elided labels")
	}
	// Short labels pass through untouched.
	if meterLabel("tcp:1234") != "tcp:1234" {
		t.Fatal("short label modified")
	}
}
