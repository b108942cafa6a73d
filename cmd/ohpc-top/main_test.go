package main

import (
	"strings"
	"testing"

	"openhpcxx/internal/introspect"
	"openhpcxx/internal/stats"
)

// rowsOf returns the rate-table lines of a rendered frame, keyed by
// their first two columns, "PROTO ENDPOINT".
func rowsOf(frame string) map[string][]string {
	rows := map[string][]string{}
	for _, line := range strings.Split(frame, "\n") {
		if f := strings.Fields(line); strings.HasPrefix(line, "  ") && len(f) == 9 && f[0] != "PROTO" {
			rows[f[0]+" "+f[1]] = f[2:]
		}
	}
	return rows
}

func TestRenderRatesRowsAreProtocolIDs(t *testing.T) {
	key := func(name, proto string) string {
		return stats.KeyWithLabels(name, stats.Labels{"proto": proto, "endpoint": "sim://m:1"})
	}
	for _, c := range []struct {
		name string
		w    introspect.Window
		want map[string][]string // "proto endpoint" -> calls/s, req B/s, resp B/s, err/s, p50, p99, Δp99
	}{
		{
			name: "ids that differ only in a separator stay two rows",
			w: introspect.Window{
				Rates: map[string]float64{
					key("rpc.calls", "a.b"):            10,
					key("rpc.req_bytes", "a.b"):        400,
					key("rpc.resp_bytes", "a.b"):       800,
					key("rpc.faults", "a.b"):           1,
					key("rpc.transport_errors", "a.b"): 2,
					key("rpc.calls", "a_b"):            5,
				},
				Histograms: map[string]introspect.HistWindow{
					key("rpc.latency_us", "a.b"): {P50: 100, P99: 900, P99Delta: -50},
					key("rpc.latency_us", "a_b"): {P50: 7, P99: 9},
				},
			},
			want: map[string][]string{
				"a.b sim://m:1": {"10.0", "400", "800", "3.0", "100", "900", "-50"},
				"a_b sim://m:1": {"5.0", "0", "0", "0.0", "7", "9", "+0"},
			},
		},
		{
			name: "series that are not per-protocol make no row",
			w: introspect.Window{
				Rates: map[string]float64{
					"rpc.retry.attempts": 3,
					stats.KeyWithLabels("rpc.errors", stats.Labels{"code": "quota"}): 1,
					stats.KeyWithLabels("srv.requests", stats.Labels{"proto": "x"}):  9,
					key("rpc.calls", "hpcx-tcp"):                                     2,
				},
			},
			want: map[string][]string{
				"hpcx-tcp sim://m:1": {"2.0", "0", "0", "0.0", "0", "0", "+0"},
			},
		},
	} {
		var b strings.Builder
		renderRates(&b, "1s", c.w)
		got := rowsOf(b.String())
		if len(got) != len(c.want) {
			t.Errorf("%s: rows %v, want %v", c.name, got, c.want)
			continue
		}
		for row, want := range c.want {
			if strings.Join(got[row], " ") != strings.Join(want, " ") {
				t.Errorf("%s: row %q = %v, want %v", c.name, row, got[row], want)
			}
		}
	}
	var b strings.Builder
	renderRates(&b, "1s", introspect.Window{})
	if !strings.Contains(b.String(), "(no rpc traffic in window)") {
		t.Errorf("empty window rendered:\n%s", b.String())
	}
}
