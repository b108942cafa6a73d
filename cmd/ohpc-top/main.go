// Command ohpc-top is a polling terminal viewer for the introspection
// plane: point it at a runtime's -introspect address and it renders a
// live table of per-endpoint call/byte rates, error ratios, latency
// percentile movement, endpoint breaker states, and runtime gauges —
// the flight recorder's /varz windows plus /statusz, refreshed in
// place like top(1).
//
//	ohpc-demo -introspect=127.0.0.1:8090 -linger=30s &
//	ohpc-top -addr=127.0.0.1:8090
//
// During the Figure R1 fault schedule (ohpc-bench -fig=r1
// -introspect=...), the rate table shows traffic shifting from the
// primary's endpoint to the backup's, both behind hpcx-tcp, as the
// breaker trips, and back after probe-driven re-promotion.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/introspect"
	"openhpcxx/internal/stats"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "introspection-plane address (host:port)")
	interval := flag.Duration("interval", time.Second, "refresh period")
	frames := flag.Int("frames", 0, "exit after this many refreshes (0 = run until interrupted)")
	window := flag.String("window", "1s", "flight-recorder window to display: 1s, 10s, or 60s")
	once := flag.Bool("once", false, "render one frame and exit (same as -frames=1)")
	flag.Parse()
	if *once {
		*frames = 1
	}

	base := "http://" + *addr
	clk := clock.Real{}
	for i := 0; *frames == 0 || i < *frames; i++ {
		if i > 0 {
			// Pacing goes through the clock package (nosleep-clean).
			clock.Sleep(clk, *interval)
		}
		frame, err := render(base, *window)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ohpc-top: %v\n", err)
			os.Exit(1)
		}
		if *frames != 1 {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		fmt.Print(frame)
	}
}

// fetchJSON GETs base+path and decodes the JSON body into v.
func fetchJSON(base, path string, v any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return errs.Newf(errs.Unavailable, "GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// render builds one full frame from /varz and /statusz.
func render(base, window string) (string, error) {
	var varz introspect.Varz
	if err := fetchJSON(base, "/varz", &varz); err != nil {
		return "", err
	}
	var status core.RuntimeStatus
	if err := fetchJSON(base, "/statusz", &status); err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "ohpc-top  %s  process=%s  failover=%v  futures=%d  samples=%d\n",
		varz.Now.Format("15:04:05.000"), status.Process, status.Failover,
		status.OutstandingFutures, varz.Samples)

	w, ok := varz.Windows[window]
	if !ok {
		fmt.Fprintf(&b, "\n(window %q not available yet — %d samples recorded)\n", window, varz.Samples)
	} else {
		renderRates(&b, window, w)
	}
	renderEndpoints(&b, status)
	renderContexts(&b, status)
	return b.String(), nil
}

// endpointRow aggregates one endpoint's rpc.*{endpoint=…,proto=…}
// series over a window.
type endpointRow struct {
	proto     string
	endpoint  string  // "" for a series without one
	calls     float64 // calls/s
	reqBps    float64 // request payload bytes/s
	respBps   float64
	errRate   float64 // (faults+transport errors)/s
	p50, p99  int64   // current latency quantiles (µs)
	p99Delta  int64   // movement over the window
	countRate float64 // latency observations/s
}

func renderRates(b *strings.Builder, window string, w introspect.Window) {
	rows := map[[2]string]*endpointRow{}
	row := func(labels stats.Labels) *endpointRow {
		k := [2]string{labels["proto"], labels["endpoint"]}
		r, ok := rows[k]
		if !ok {
			r = &endpointRow{proto: k[0], endpoint: k[1]}
			rows[k] = r
		}
		return r
	}
	for key, rate := range w.Rates {
		name, labels := stats.SplitKey(key)
		if _, ok := labels["proto"]; !ok {
			continue
		}
		switch name {
		case "rpc.calls":
			row(labels).calls = rate
		case "rpc.req_bytes":
			row(labels).reqBps = rate
		case "rpc.resp_bytes":
			row(labels).respBps = rate
		case "rpc.faults", "rpc.transport_errors":
			row(labels).errRate += rate
		}
	}
	for key, h := range w.Histograms {
		name, labels := stats.SplitKey(key)
		if _, ok := labels["proto"]; !ok || name != "rpc.latency_us" {
			continue
		}
		r := row(labels)
		r.p50, r.p99, r.p99Delta, r.countRate = h.P50, h.P99, h.P99Delta, h.CountRate
	}
	keys := make([][2]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		x, y := keys[i], keys[j]
		return x[0] < y[0] || x[0] == y[0] && x[1] < y[1]
	})

	fmt.Fprintf(b, "\nper-endpoint rates (last %s window, %.1fs actual, error ratio %.1f%%)\n",
		window, w.Seconds, w.ErrorRatio*100)
	fmt.Fprintf(b, "  %-12s %-28s %10s %12s %12s %8s %9s %9s %9s\n",
		"PROTO", "ENDPOINT", "CALLS/s", "REQ B/s", "RESP B/s", "ERR/s", "P50 µs", "P99 µs", "ΔP99")
	for _, k := range keys {
		r, ep := rows[k], "-"
		if r.endpoint != "" {
			ep = printableKey(r.endpoint, 28)
		}
		fmt.Fprintf(b, "  %-12s %-28s %10.1f %12.0f %12.0f %8.1f %9d %9d %+9d\n",
			r.proto, ep, r.calls, r.reqBps, r.respBps, r.errRate, r.p50, r.p99, r.p99Delta)
	}
	if len(keys) == 0 {
		fmt.Fprint(b, "  (no rpc traffic in window)\n")
	}

	// Runtime gauges, compact.
	gnames := make([]string, 0, len(w.Gauges))
	for n := range w.Gauges {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	if len(gnames) > 0 {
		fmt.Fprint(b, "\ngauges: ")
		for i, n := range gnames {
			if i > 0 {
				fmt.Fprint(b, "  ")
			}
			fmt.Fprintf(b, "%s=%d", n, w.Gauges[n])
		}
		fmt.Fprint(b, "\n")
	}
}

func renderEndpoints(b *strings.Builder, status core.RuntimeStatus) {
	if len(status.Endpoints) == 0 {
		return
	}
	fmt.Fprint(b, "\nendpoints (circuit breakers)\n")
	fmt.Fprintf(b, "  %-36s %-10s %6s  %s\n", "ENDPOINT", "STATE", "FAILS", "SINCE")
	for _, ep := range status.Endpoints {
		fmt.Fprintf(b, "  %-36s %-10s %6d  %s\n",
			printableKey(ep.Key, 36), ep.State, ep.ConsecutiveFailures, ep.LastTransition.Format("15:04:05.000"))
	}
}

// printableKey makes an endpoint key terminal-safe: glue entries embed
// raw protocol data in their health key, so control bytes become '.'
// and overlong keys are elided in the middle.
func printableKey(key string, max int) string {
	clean := strings.Map(func(r rune) rune {
		if r < 0x20 || r == 0x7f {
			return '.'
		}
		return r
	}, key)
	if len(clean) <= max || max < 8 {
		return clean
	}
	half := (max - 1) / 2
	return clean[:half] + "…" + clean[len(clean)-(max-1-half):]
}

func renderContexts(b *strings.Builder, status core.RuntimeStatus) {
	for _, c := range status.Contexts {
		drain := ""
		if c.Draining {
			drain = "  DRAINING"
		}
		fmt.Fprintf(b, "\ncontext %s @ %s  muxes=%d  objects=%d%s\n",
			c.Name, c.Machine, c.Muxes, len(c.Objects), drain)
		for _, gp := range c.GPs {
			sel := "unbound"
			if gp.Bound {
				sel = fmt.Sprintf("table[%d] %s", gp.SelectedEntry, gp.SelectedProto)
			}
			fmt.Fprintf(b, "  gp %s -> %s\n", gp.Object, sel)
			for _, e := range gp.Entries {
				mark := " "
				if e.Selected {
					mark = "*"
				}
				fmt.Fprintf(b, "   %s [%d] %-28s %s\n", mark, e.Index, printableKey(e.Endpoint, 28), e.Health)
			}
			if gp.Batching != nil {
				fmt.Fprintf(b, "     batching: queued=%d (%dB) watermarks msgs=%d bytes=%d delay=%dµs\n",
					gp.Batching.Queued, gp.Batching.QueuedBytes,
					gp.Batching.MaxMessages, gp.Batching.MaxBytes, gp.Batching.MaxDelayUS)
			}
		}
	}
}
