package core

import (
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/stats"
)

// TestInvokeFeedsEndpointMeters pins the meter plumbing: every finished
// exchange moves the endpoint's latency level and byte rate, and the
// meters surface through MetricsSnapshot and Status.
func TestInvokeFeedsEndpointMeters(t *testing.T) {
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

	snap := rt.MetricsSnapshot()
	var latKey, bpsKey string
	for k := range snap.Meters {
		if strings.HasPrefix(k, "rpc.endpoint.latency_us{") {
			latKey = k
		}
		if strings.HasPrefix(k, "rpc.endpoint.bytes_ps{") {
			bpsKey = k
		}
	}
	if latKey == "" || bpsKey == "" {
		t.Fatalf("endpoint meters missing from snapshot: %v", snap.MeterNames())
	}
	if !strings.Contains(latKey, `proto="hpcx-tcp"`) || !strings.Contains(latKey, `endpoint="`) {
		t.Fatalf("latency meter key %q lacks proto/endpoint labels", latKey)
	}
	lat := snap.Meters[latKey]
	if lat.Count != 3 || lat.Level <= 0 {
		t.Fatalf("latency meter %+v after 3 invokes", lat)
	}
	bps := snap.Meters[bpsKey]
	if bps.Count != 3 || bps.Rate <= 0 {
		t.Fatalf("bytes meter %+v after 3 invokes", bps)
	}

	st := rt.Status()
	if _, ok := st.Meters[latKey]; !ok {
		t.Fatalf("Status() lacks meter %q: %v", latKey, st.Meters)
	}
}

// TestEndpointMeterDeterministicUnderFakeClock pins the fake-clock
// contract: the engine times attempts and decays meter rates against
// the runtime clock, so a simulated schedule — ten 512 B exchanges of
// 2 ms each, one per second — produces exactly reproducible readings in
// the endpoint meters and in the protocol's latency histogram.
func TestEndpointMeterDeterministicUnderFakeClock(t *testing.T) {
	run := func() (level, rate float64, lat stats.Snapshot) {
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
		snap := rt.MetricsSnapshot()
		for k, m := range snap.Meters {
			switch {
			case strings.HasPrefix(k, "rpc.endpoint.latency_us{"):
				level = m.Level
			case strings.HasPrefix(k, "rpc.endpoint.bytes_ps{"):
				rate = m.Rate
			}
		}
		return level, rate, snap.Histograms[`rpc.latency_us{proto="hpcx-tcp"}`]
	}
	l1, r1, h1 := run()
	l2, r2, h2 := run()
	if l1 != l2 || r1 != r2 {
		t.Fatalf("fake-clock meters diverged: level %g vs %g, rate %g vs %g", l1, l2, r1, r2)
	}
	if l1 != 2000 {
		t.Fatalf("latency level %g, want 2000µs (constant samples)", l1)
	}
	if r1 <= 0 || r1 > 512 {
		t.Fatalf("byte rate %g for 512 B/s offered load", r1)
	}
	if h1.Count != 10 || h1.Sum != 20000 || h2.Count != h1.Count || h2.Sum != h1.Sum {
		t.Fatalf("latency_us count/sum %d/%d and %d/%d, want 10/20000 on both runs", h1.Count, h1.Sum, h2.Count, h2.Sum)
	}
}

// TestEndpointMeterCacheSharesHandles pins the cache contract: one
// meter pair per endpoint key, shared across prepares.
func TestEndpointMeterCacheSharesHandles(t *testing.T) {
	rt := NewRuntime(nil, "p")
	defer rt.Close()
	a := rt.endpointMeter("shm|local")
	b := rt.endpointMeter("shm|local")
	if a != b {
		t.Fatal("same key produced distinct meter pairs")
	}
	if c := rt.endpointMeter("shm|other"); c == a {
		t.Fatal("distinct keys share a meter pair")
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

// TestTailKeeperEndToEndRetention drives real invocations through a
// runtime whose recorder is a tail store: the errored invocation's
// whole trace (client and server halves) is retained, the healthy
// invocation against a high slow bar is dropped — the tail-based
// policy applied to live wire traffic, not synthetic spans.
func TestTailKeeperEndToEndRetention(t *testing.T) {
	_, rt := testWorld(t)
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mC")
	_, ref := exportEcho(t, srv)
	gp := client.NewGlobalPtr(ref)

	tk := obs.NewStore(obs.StoreOptions{
		Tail:     true,
		MaxSpans: 512,
		MinSlow:  time.Hour, // nothing is slow; only errors survive
		Baseline: -1,        // no baseline reservoir
		Clock:    rt.Clock(),
	})
	rt.Tracer().SetRecorder(tk)
	defer rt.Tracer().SetRecorder(nil)

	if _, err := gp.Invoke("echo", []byte("fine")); err != nil {
		t.Fatal(err)
	}
	if _, err := gp.Invoke("fail", []byte("x")); err == nil {
		t.Fatal("fail method did not fail")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if tr := findKeptRoot(tk, "invoke"); tr != 0 {
			if got := tk.Policy(tr); got != obs.PolicyError {
				t.Fatalf("kept policy %q, want %q", got, obs.PolicyError)
			}
			spans := tk.Trace(tr)
			names := make(map[string]bool, len(spans))
			for _, s := range spans {
				names[s.Name] = true
			}
			if !names["invoke"] || !names["dispatch"] {
				t.Fatalf("retained trace missing client or server half: %v", names)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("errored trace never retained; stats %+v", tk.Stats())
		}
		clock.Sleep(clock.Real{}, time.Millisecond)
	}

	// The healthy echo must NOT be retained: every kept root is the
	// errored invocation's.
	for _, s := range tk.Spans() {
		if s.Parent == 0 && s.Err == "" {
			t.Fatalf("healthy trace retained: %+v", s)
		}
	}
}

// findKeptRoot returns the trace ID of a kept root span with the given
// name and a recorded error, or 0.
func findKeptRoot(tk *obs.Store, name string) obs.TraceID {
	for _, s := range tk.Spans() {
		if s.Parent == 0 && s.Name == name && s.Err != "" {
			return s.Trace
		}
	}
	return 0
}
