// Command ohpc-demo shows the paper's closing claim end to end:
// capabilities and protocol adaptivity working together with dynamic
// load balancing. It builds a two-LAN deployment, publishes a
// capability-protected service, drives client traffic, overloads the
// server's host, and lets the balancer migrate the object — after which
// every client's global pointer silently re-selects the protocol
// appropriate to the new locality.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"openhpcxx/internal/bench"
	"openhpcxx/internal/capability"
	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/introspect"
	"openhpcxx/internal/loadbal"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/registry"
	"openhpcxx/internal/testbed"
)

func main() {
	passes := flag.Int("passes", 3, "load-balancing passes to run")
	tracePath := flag.String("trace", "", "record invocation spans and write them as JSON to this file ('-' for stdout)")
	metricsPath := flag.String("metrics", "", "write the runtime metrics snapshot as JSON to this file ('-' for stdout)")
	introspectAddr := flag.String("introspect", "", "serve the introspection plane (/metrics /statusz /tracez /varz) on this address, e.g. 127.0.0.1:8090")
	linger := flag.Duration("linger", 0, "after the demo completes, keep serving background traffic for this long (for ohpc-top / curl against -introspect)")
	flag.Parse()

	tb := testbed.New("demo", nil)
	defer tb.Close()
	tb.LAN("lab-lan", "campus", netsim.ProfileATM155.Scaled(16), "lab-1", "lab-2")
	tb.LAN("office-lan", "campus", netsim.ProfileEthernet.Scaled(16), "desk")
	tb.Net.CampusLink = netsim.ProfileCampus.Scaled(16)
	rt := tb.RT

	// With -trace, every invocation in the demo records its span tree —
	// client and server halves joined by the wire-propagated trace id.
	var store *obs.Store
	if *tracePath != "" {
		store = obs.NewStore(obs.StoreOptions{})
		rt.Tracer().SetRecorder(store)
	}

	must := func(err error) {
		if err != nil {
			log.Fatalf("ohpc-demo: %v", err)
		}
	}

	// -introspect attaches the live telemetry plane; it reuses the
	// -trace store when one is installed, else installs its own.
	var insp *introspect.Server
	if *introspectAddr != "" {
		var err error
		insp, err = introspect.Attach(rt, introspect.Options{Addr: *introspectAddr})
		must(err)
		defer insp.Close()
		fmt.Printf("introspection plane on http://%s (try /metrics, /statusz, /tracez, /varz)\n", insp.Addr())
	}

	// Registry on lab-1, and two candidate hosts for the service.
	regNode := tb.Context("registry", "lab-1").Bind(7000)
	tb.Do(func() error { _, _, err := registry.Serve(regNode.Ctx); return err })
	host1 := tb.Context("host1", "lab-1").BindAll()
	host2 := tb.Context("host2", "lab-2").BindAll()

	// The service: exchange servant behind an authenticated glue for
	// off-LAN clients, plain nexus for local ones.
	host1.Echo("")
	glueE := host1.Glue("demo-auth", host1.Stream(),
		capability.MustNewAuth("office", []byte("demo-secret"), capability.ScopeCrossLAN),
		capability.NewQuota(0, time.Time{}))
	ref := host1.Ref(glueE, host1.Nexus())

	// Clients: one in the lab, one at a desk on the office LAN.
	labClient := tb.Context("lab-client", "lab-2")
	deskClient := tb.Context("desk-client", "desk")
	must(tb.Build())

	reg := registry.NewClient(host1.Ctx, registry.RefAt("sim://lab-1:7000"))
	must(reg.Bind("demo/exchange", ref))
	fmt.Println("published demo/exchange with table [glue(auth,quota), nexus-tcp]")

	resolve := func(ctx *core.Context) *core.GlobalPtr {
		c := registry.NewClient(ctx, registry.RefAt("sim://lab-1:7000"))
		r, err := c.Lookup("demo/exchange")
		must(err)
		return ctx.NewGlobalPtr(r)
	}
	gpLab := resolve(labClient.Ctx)
	gpDesk := resolve(deskClient.Ctx)

	show := func(phase string) {
		for _, c := range []struct {
			name string
			gp   *core.GlobalPtr
		}{{"lab-client ", gpLab}, {"desk-client", gpDesk}} {
			m, err := bench.MeasureExchange(c.gp, 4096, 3, 20*time.Millisecond)
			must(err)
			id, err := c.gp.SelectedProtocol()
			must(err)
			fmt.Printf("  [%s] %s -> %-10s %8.2f Mbps (avg rtt %v)\n",
				phase, c.name, id, m.BandwidthBps/1e6, m.AvgRTT)
		}
	}
	fmt.Println("\nphase 1: service on lab-1 (lab client is LAN-local, desk client authenticates)")
	show("before")

	// Load balancing: overload host1.
	var load1, load2 loadbal.SyntheticLoad
	load1.Set(95) // beyond the high-water mark
	load2.Set(10)
	bal := loadbal.New(loadbal.Policy{HighWater: 80, Margin: 20}, reg)
	bal.AddHost(host1.Ctx, load1.Source())
	bal.AddHost(host2.Ctx, load2.Source())
	bal.Manage("demo/exchange", ref, host1.Ctx)

	for i := 0; i < *passes; i++ {
		moves, err := bal.Rebalance()
		must(err)
		for _, mv := range moves {
			fmt.Printf("\nload balancer: %s exceeded high-water mark; migrated %s: %s -> %s\n",
				mv.From, mv.Object, mv.From, mv.To)
			load1.Set(30)
			load2.Set(40)
		}
		if len(moves) == 0 {
			fmt.Printf("\nload balancer pass %d: loads %v — nothing to do\n", i+1, bal.Loads())
		}
	}

	fmt.Println("\nphase 2: after migration both clients keep calling the same GP; selection adapts")
	show("after ")
	fmt.Println("\ndone: no client code changed across the migration.")

	if *linger > 0 {
		// Keep a light request load flowing so the introspection plane
		// has live rates to show (ohpc-top, curl /varz). The loop runs
		// in the foreground: the demo exits when the linger expires.
		fmt.Printf("\nlingering %v with background traffic (introspect: %s)\n", *linger, insp.Addr())
		clk := rt.Clock()
		deadline := clk.Now().Add(*linger)
		for clk.Now().Before(deadline) {
			for _, gp := range []*core.GlobalPtr{gpLab, gpDesk} {
				if _, err := bench.MeasureExchange(gp, 1024, 2, 5*time.Millisecond); err != nil {
					must(err)
				}
			}
			clock.Sleep(clk, 20*time.Millisecond)
		}
	}

	fmt.Println("\nadaptivity event log:")
	for _, ev := range rt.Events() {
		fmt.Println("  " + ev.String())
	}
	fmt.Printf("\nmetrics:\n%s", rt.Metrics().Dump())

	toFile := func(path string, write func(io.Writer) error) {
		out := os.Stdout
		if path != "-" {
			f, err := os.Create(path)
			must(err)
			defer f.Close()
			out = f
		}
		must(write(out))
	}
	if *metricsPath != "" {
		toFile(*metricsPath, rt.WriteMetrics)
		if *metricsPath != "-" {
			fmt.Printf("\nwrote metrics snapshot to %s\n", *metricsPath)
		}
	}
	if store != nil {
		toFile(*tracePath, store.WriteJSON)
		if *tracePath != "-" {
			fmt.Printf("wrote %d spans (of %d recorded) to %s\n", len(store.Spans()), store.Total(), *tracePath)
		}
	}
}
