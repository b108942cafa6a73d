package main

import (
	"strings"
	"testing"

	"openhpcxx/internal/core"
	"openhpcxx/internal/introspect"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/stats"
	"openhpcxx/internal/testbed"
)

// TestReplicasBehindOneProtocolAreTwoRows builds Figure R1's shape — one
// object on a primary and a backup, both behind hpcx-tcp entries — and
// forces traffic onto both by crashing the primary. The two endpoints
// stay two series in the registry, in a /varz window and in the
// rendered frame, and their latency counts sum to rpc.calls.
func TestReplicasBehindOneProtocolAreTwoRows(t *testing.T) {
	tb := testbed.New("top-replicas", nil)
	t.Cleanup(tb.Close)
	tb.LAN("lan", "campus", netsim.ProfileUnshaped, "client-m", "primary-m", "backup-m")
	client := tb.Context("client", "client-m")
	primary := tb.Context("primary", "primary-m").Bind(0).Echo("r1/echo")
	backup := tb.Context("backup", "backup-m").Bind(0).Echo("r1/echo")
	ref := primary.Ref(primary.Stream(), backup.Stream())
	if err := tb.Build(); err != nil {
		t.Fatal(err)
	}
	plane, err := introspect.Attach(tb.RT, introspect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = plane.Close() })

	gp := client.Ctx.NewGlobalPtr(ref)
	call := func() {
		t.Helper()
		if _, err := core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", testbed.Ints(4)); err != nil {
			t.Fatal(err)
		}
	}
	plane.Flight().SampleNow()
	for i := 0; i < 3; i++ {
		call()
	}
	tb.Net.Crash("primary-m")
	for i := 0; i < 2; i++ {
		call()
	}
	plane.Flight().SampleNow()

	// The registry: one latency series per endpoint, each labelled with
	// the address half of the health key its breaker row names.
	var endpoints []string
	for _, c := range tb.RT.Status().Contexts {
		for _, g := range c.GPs {
			for _, e := range g.Entries {
				_, addr, _ := strings.Cut(e.Endpoint, "|")
				endpoints = append(endpoints, addr)
			}
		}
	}
	snap := tb.RT.MetricsSnapshot()
	var calls, counted uint64
	for key, v := range snap.Counters {
		if name, labels := stats.SplitKey(key); name == "rpc.calls" && labels["proto"] == "hpcx-tcp" {
			calls += v
		}
	}
	for _, ep := range endpoints {
		lat, ok := snap.Histograms[stats.KeyWithLabels("rpc.latency_us", stats.Labels{"proto": "hpcx-tcp", "endpoint": ep})]
		if !ok || lat.Count == 0 {
			t.Fatalf("no latency series for endpoint %q: %v", ep, snap.HistogramNames())
		}
		counted += lat.Count
	}
	if n := len(snap.HistogramNames()); n != 2 || counted != calls {
		t.Fatalf("%d latency series counting %d attempts, want 2 counting rpc.calls = %d", n, counted, calls)
	}

	// A /varz window carries both series, and the frame renders both rows.
	base := "http://" + plane.Addr()
	var varz introspect.Varz
	if err := fetchJSON(base, "/varz", &varz); err != nil {
		t.Fatal(err)
	}
	frame, err := render(base, "1s")
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsOf(frame)
	for _, ep := range endpoints {
		key := stats.KeyWithLabels("rpc.latency_us", stats.Labels{"proto": "hpcx-tcp", "endpoint": ep})
		if h, ok := varz.Windows["1s"].Histograms[key]; !ok || h.CountRate <= 0 {
			t.Fatalf("/varz 1s window lacks %s: %+v", key, varz.Windows["1s"].Histograms)
		}
		if _, ok := rows["hpcx-tcp "+ep]; !ok {
			t.Fatalf("frame has no row for %s:\n%s", ep, frame)
		}
	}
}
