// Command ohpc-load runs the capacity harness from a declarative
// scenario file: it stands up the scenario's netsim topology, drives
// the mixed workload in closed- or open-loop arrival mode through the
// scheduled faults and migration churn, and reports goodput plus
// coordinated-omission-safe latency percentiles.
//
// Usage:
//
//	ohpc-load -scenario=sweep.json                # run on the real clock
//	ohpc-load -scenario=smoke.json -fake -json=-  # deterministic, simulated time
//	ohpc-load -scenario=sweep.json -check         # parse + validate only
//	ohpc-load -scenario=sweep.json -introspect=127.0.0.1:8090
//
// Scenario files are JSON; see internal/load's package documentation
// and internal/load/testdata/scenarios/valid/ for working examples.
// Open-loop scenarios (arrival.mode = "open") measure latency from each
// request's intended start time, so saturation shows up as a diverging
// tail instead of silently throttled load — see EXPERIMENTS.md on
// coordinated omission.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/introspect"
	"openhpcxx/internal/load"
	"openhpcxx/internal/testbed"
)

func main() {
	scenarioPath := flag.String("scenario", "", "scenario file to run (required)")
	fake := flag.Bool("fake", false, "run on a fake clock: waits cost simulated time only (deterministic smoke runs)")
	check := flag.Bool("check", false, "parse and validate the scenario, print a summary, and exit")
	jsonPath := flag.String("json", "", "write the run result as JSON to this file ('-' for stdout)")
	introspectAddr := flag.String("introspect", "", "serve the introspection plane on this address while the run is live")
	flag.Parse()

	if *scenarioPath == "" {
		fmt.Fprintln(os.Stderr, "ohpc-load: -scenario is required")
		flag.Usage()
		os.Exit(2)
	}
	sc, err := load.ParseFile(*scenarioPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ohpc-load: %v\n", err)
		os.Exit(1)
	}
	if *check {
		fmt.Printf("scenario %q: %d machines (%dx%d %s), %d servers, %d workers, %s arrival, %v run\n",
			sc.Name, sc.Machines(), sc.Topology.LANs, sc.Topology.MachinesPerLAN, sc.Topology.Profile,
			sc.Servers, sc.Workers, sc.Arrival.Mode, sc.Duration())
		return
	}

	var clk clock.Clock
	if *fake {
		clk = clock.NewFake(time.Unix(1_000_000, 0))
	}
	var hook testbed.Hook
	if *introspectAddr != "" {
		hook = func(_ string, rt *core.Runtime) func() {
			insp, err := introspect.Attach(rt, introspect.Options{Addr: *introspectAddr})
			if err != nil {
				fmt.Fprintf(os.Stderr, "ohpc-load: introspect: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("introspection plane on http://%s\n", insp.Addr())
			return func() { _ = insp.Close() }
		}
	}
	runner, err := load.NewRunner(sc, clk, hook)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ohpc-load: %v\n", err)
		os.Exit(1)
	}
	defer runner.Close()

	res, err := runner.Run(context.Background())
	if err != nil {
		fmt.Fprintf(os.Stderr, "ohpc-load: %v\n", err)
		os.Exit(1)
	}
	printResult(res)
	if *jsonPath != "" {
		out := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ohpc-load: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "ohpc-load: %v\n", err)
			os.Exit(1)
		}
	}
}

func printResult(r *load.Result) {
	fmt.Printf("scenario %s: %s arrival over %d machines (%d servers, %d workers, batching %v)\n",
		r.Scenario, r.Mode, r.Machines, r.Servers, r.Workers, r.Batching)
	for _, ev := range r.Schedule {
		fmt.Printf("  fault: %s\n", ev)
	}
	if r.Migrations > 0 {
		fmt.Printf("  churn: %d migrations\n", r.Migrations)
	}
	fmt.Printf("  offered %.0f/s  issued %d  completed %d  failed %d  goodput %.0f/s  elapsed %v\n",
		r.OfferedPerSec, r.Issued, r.Completed, r.Failed, r.GoodputPerSec, r.Elapsed.Round(time.Millisecond))
	lat := r.Latency
	fmt.Printf("  latency (%s-loop, CO-safe): p50 %v  p90 %v  p99 %v  p999 %v  max %v  (%d samples)\n",
		r.Mode,
		time.Duration(lat.P50).Round(time.Microsecond),
		time.Duration(lat.P90).Round(time.Microsecond),
		time.Duration(lat.P99).Round(time.Microsecond),
		time.Duration(lat.P999).Round(time.Microsecond),
		time.Duration(lat.Max).Round(time.Microsecond),
		lat.Count)
}
