// Command ohpc-bench regenerates every figure of the paper's evaluation
// section, and this repository's extensions, as text tables (and an
// ASCII rendering of the Figure 5 plot). The figures are one table in
// internal/bench; -quick, -reps, -json and -introspect apply to every
// one of them.
//
// Usage:
//
//	ohpc-bench -fig=all            # everything (Figure 5 takes ~2 min)
//	ohpc-bench -fig=5 -quick       # time-scaled links, fast
//	ohpc-bench -fig=5 -profile=atm -plot
//	ohpc-bench -fig=4
//	ohpc-bench -fig=a1 -json=async.json   # async throughput figure
//	ohpc-bench -fig=o1 -trace=spans.json  # tracing overhead + span dump
//	ohpc-bench -fig=o2 -quick -json=-     # tail-based retention vs FIFO
//	ohpc-bench -fig=d1 -json=dir.json     # directory plane: scale + crash
//	ohpc-bench -fig=s1 -quick -json=-     # saturation sweep (goodput vs offered load)
//	ohpc-bench -fig=r1 -introspect=127.0.0.1:8090   # watch /statusz mid-failover
//
// Absolute numbers depend on the host and the simulated link rates; the
// shapes — which protocol wins, by roughly what factor, and where the
// selection changes — are the reproduction target (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"openhpcxx/internal/bench"
	"openhpcxx/internal/core"
	"openhpcxx/internal/introspect"
)

// figUsage is the -fig help text: every id in the figure table.
func figUsage() string {
	var ids []string
	for _, f := range bench.Figures() {
		ids = append(ids, f.ID)
	}
	return "figure to regenerate: " + strings.Join(ids, ", ") + ", or all"
}

// selectFigures returns the table entries -fig names: all of them for
// "all", one for a known id, none for anything else.
func selectFigures(id string) []bench.Figure {
	if id == "all" {
		return bench.Figures()
	}
	for _, f := range bench.Figures() {
		if f.ID == id {
			return []bench.Figure{f}
		}
	}
	return nil
}

// create opens path for writing: stdout for "-", else a new file.
func create(path string) (*os.File, error) {
	if path == "-" {
		return os.Stdout, nil
	}
	return os.Create(path)
}

// finish closes what create opened, leaving stdout open.
func finish(f *os.File) error {
	if f == os.Stdout {
		return nil
	}
	return f.Close()
}

// writeTo creates path, runs write against it and closes it.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = finish(f)
		return err
	}
	return finish(f)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ohpc-bench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	fig := flag.String("fig", "all", figUsage())
	profile := flag.String("profile", "both", "network for figure 5: atm, ethernet, or both")
	quick := flag.Bool("quick", false, "time-scale the links 16x and shorten runs and sweeps")
	plot := flag.Bool("plot", true, "also render figure 5 as an ASCII log-log plot")
	reps := flag.Int("reps", 0, "minimum exchanges (or operations) per measurement cell (0 = default)")
	csvPath := flag.String("csv", "", "also write figure 5 data as CSV to this file")
	jsonPath := flag.String("json", "", "write every figure's data as JSON to this file ('-' for stdout)")
	calls := flag.Int("calls", 0, "calls per mode for the async figure (0 = default)")
	tracePath := flag.String("trace", "", "write the o1 figure's recorded spans as JSON to this file ('-' for stdout)")
	introspectAddr := flag.String("introspect", "", "serve the introspection plane on this address for every runtime a figure builds (curl /statusz or run ohpc-top mid-run)")
	flag.Parse()

	figures := selectFigures(*fig)
	if figures == nil {
		fmt.Fprintf(os.Stderr, "ohpc-bench: unknown figure %q; the figures are:\n", *fig)
		for _, f := range bench.Figures() {
			fmt.Fprintf(os.Stderr, "  %-4s %s\n", f.ID, f.Title)
		}
		os.Exit(2)
	}

	opts := bench.Options{Quick: *quick, Reps: *reps, Calls: *calls, Profile: *profile, Plot: *plot}
	if *introspectAddr != "" {
		// A figure builds one runtime per mode or cell, one after the
		// other; the plane re-binds the address to each in turn, so
		// /statusz and /varz track whichever is live.
		opts.OnRuntime = func(label string, rt *core.Runtime) func() {
			insp, err := introspect.Attach(rt, introspect.Options{Addr: *introspectAddr})
			if err != nil {
				fmt.Fprintf(os.Stderr, "ohpc-bench: introspect (%s): %v\n", label, err)
				return nil
			}
			fmt.Printf("introspection plane for %s on http://%s\n", label, insp.Addr())
			return func() { _ = insp.Close() }
		}
	}

	// One JSON writer for every figure: each report is one indented
	// document, streamed as its figure completes.
	encode := func(bench.Report) error { return nil }
	if *jsonPath != "" {
		out, err := create(*jsonPath)
		if err != nil {
			fatal("%v", err)
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		encode = func(rep bench.Report) error { return enc.Encode(rep) }
		defer func() {
			if err := finish(out); err != nil {
				fatal("%v", err)
			}
		}()
	}
	for _, f := range figures {
		rep, err := f.Run(opts)
		if err == nil {
			fmt.Println(rep.Format())
			if err = encode(rep); err == nil {
				err = exportExtras(rep, *csvPath, *tracePath)
			}
		}
		if err != nil {
			fatal("figure %s: %v", f.ID, err)
		}
	}
}

// exportExtras writes the two figure-specific side files: Figure 5's
// cells as CSV and Figure O1's recorded spans.
func exportExtras(rep bench.Report, csvPath, tracePath string) error {
	switch r := rep.(type) {
	case *bench.Fig5Report:
		if csvPath != "" {
			return writeTo(csvPath, r.WriteCSV)
		}
	case *bench.O1Result:
		if tracePath == "" {
			break
		}
		if err := writeTo(tracePath, r.Store.WriteJSON); err != nil {
			return err
		}
		if tracePath != "-" {
			fmt.Printf("wrote %d spans (of %d recorded) to %s\n", len(r.Store.Spans()), r.Store.Total(), tracePath)
		}
	}
	return nil
}
