package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/testbed"
)

// sampleReports is one hand-built report per figure id, with the
// substrings its rendering must carry.
var sampleReports = map[string]struct {
	report Report
	want   []string
}{
	"1": {&PathReport{Title: "Figure 1", Lines: []string{"-> protocol object P: hpcx-tcp"}},
		[]string{"Figure 1", "protocol object P"}},
	"2": {&PathReport{Title: "Figure 2", Lines: []string{"envelope[0] = glue (4 bytes)"}},
		[]string{"Figure 2", "envelope[0]"}},
	"3": {Fig3Phases{{ServerMachine: "srv1", Clients: []Fig3Client{{Name: "P1", Machine: "p1", Selected: core.ProtoNexus}}}},
		[]string{"Figure 3", "no authentication"}},
	"4": {Fig4Steps{{Step: 1, Context: "S1", Machine: "M1", Selected: core.ProtoGlue, Detail: "quota", Sample: Measurement{BandwidthBps: 2e6}}},
		[]string{"Figure 4", "glue (quota)", "selection sequence matches the paper: false"}},
	"l1": {LossPoints{{LossRate: 0.3, Sample: Measurement{Reps: 3, BandwidthBps: 8e6, AvgRTT: time.Millisecond}}},
		[]string{"udprel", "30%", "8.000 Mbps"}},
	"e1": {&E1Result{
		Profile: "ethernet", Duration: time.Second, Deadline: 50 * time.Millisecond, Workers: 4, Mix: 2, Cap: 2,
		Schedule: []string{" 200ms  crash flaky-m"},
		Points: []E1Point{
			{Mode: ModeBudgeted, Total: 10, OK: 9, SteadyOK: 6, FlakyOK: 3, Exhausted: 1, Attempts: 11, Amplification: 1.1, Goodput: 9,
				ErrorsByCode: map[string]uint64{"transport": 2}},
			{Mode: ModeUnbudgeted, Total: 8, OK: 6, SteadyOK: 4, FlakyOK: 2, Failed: 2, Attempts: 14, Amplification: 1.75, Goodput: 6},
		}},
		[]string{E1FigureTitle, ModeBudgeted, ModeUnbudgeted, "crash flaky-m", "amplification", "exhausted"}},
	"5": {&Fig5Report{Plot: true, Runs: []Fig5Run{{Network: "atm", Title: "Figure 5 over atm", Series: []Series{
		{Name: SeriesSharedMemory, Points: []Measurement{{Ints: 1, Bytes: 8, Reps: 3, AvgRTT: time.Millisecond, BandwidthBps: 4e6}, {Ints: 1024, Bytes: 4100, Reps: 3, AvgRTT: time.Millisecond, BandwidthBps: 64e6}}},
		{Name: SeriesNexus, Points: []Measurement{{Ints: 1, Bytes: 8, Reps: 3, AvgRTT: time.Millisecond, BandwidthBps: 1e6}, {Ints: 1024, Bytes: 4100, Reps: 3, AvgRTT: time.Millisecond, BandwidthBps: 16e6}}},
	}}}},
		[]string{"Figure 5 over atm", "64.000 Mbps", "log-log", "shared memory 4.0x faster"}},
	"a1": {AsyncReport{{Profile: "wan", Ints: 64, Points: []AsyncPoint{
		{Mode: ModeSync, Calls: 16, Bytes: 260, Elapsed: time.Second, CallsPerSec: 16, Speedup: 1},
		{Mode: ModePipelined, Calls: 16, Bytes: 260, Elapsed: time.Second / 4, CallsPerSec: 64, Speedup: 4},
	}}},
		[]string{AsyncFigureTitle, "over wan", ModeSync, ModePipelined, "4.00x"}},
	"r1": {&R1Result{
		Profile: "ethernet", Duration: time.Second, Deadline: 50 * time.Millisecond,
		Schedule: []string{" 200ms  crash primary-m"},
		Points: []R1Point{
			{Mode: ModeFailover, Total: 10, OK: 10, Availability: 1, Promoted: true},
			{Mode: ModeNoFailover, Total: 10, OK: 8, Failed: 2, Availability: 0.8},
		}},
		[]string{R1FigureTitle, ModeFailover, ModeNoFailover, "crash primary-m", "availability"}},
	"d1": {&D1Result{
		Profile: "ethernet", Shards: 3,
		Scale:    []D1ScalePoint{{Mode: D1ModeCached, Registered: 1000, Ops: 400, Throughput: 430, P50: time.Millisecond, P99: 2 * time.Millisecond, HitRate: 1}},
		Schedule: []string{" 175ms  crash dir-m0"},
		Crash:    []D1CrashPoint{{Mode: D1ModeReplicated, Replicas: 2, Total: 200, OK: 200, Availability: 1}, {Mode: D1ModeSingle, Replicas: 1, Total: 200, OK: 120, Failed: 80, Availability: 0.6}},
	},
		[]string{D1FigureTitle, D1ModeCached, "crash dir-m0", D1ModeReplicated, "a single replica leaves 60.0%"}},
	"s1": {&S1Result{
		Profile: S1ProfileName, StepDuration: 150 * time.Millisecond, Workers: 24, Servers: 3, Ints: 4, SaturationFraction: 0.75,
		Curves: []S1Curve{
			{Mode: S1ModePlain, Points: []S1Point{{OfferedPerSec: 1000, GoodputPerSec: 990, Issued: 150, Completed: 150, Saturated: true}}, SaturationRate: 1000},
			{Mode: S1ModeBatched, Batching: true, Points: []S1Point{{OfferedPerSec: 2000, GoodputPerSec: 1900, Issued: 300, Completed: 300, Saturated: true}}, SaturationRate: 2000},
		}},
		[]string{S1FigureTitle, S1ModePlain, S1ModeBatched, "moves the knee 2.0x"}},
	"o1": {&O1Result{Ints: 16, Points: []O1Point{
		{Mode: ModeUntraced, Reps: 100, AvgRTT: 10 * time.Microsecond},
		{Mode: ModeRing, Reps: 100, AvgRTT: 11 * time.Microsecond, OverheadPct: 10, SpansTotal: 600, SpansRetained: 512},
	}},
		[]string{O1FigureTitle, ModeUntraced, ModeRing, "overhead", "600"}},
	"o2": {&O2Result{
		Traces: 2048, SpansPerTrace: 3, SpanBudget: 256, SlowTraces: 8, CalmP99: 999 * time.Microsecond,
		Points: []O2Point{
			{Mode: ModeFIFO, SlowTotal: 8, SpansRetained: 256},
			{Mode: ModeTail, SlowTotal: 8, SlowRetained: 8, RetentionPct: 100, SpansRetained: 39,
				KeptTraces: map[string]uint64{obs.PolicySlow: 8}, DroppedTraces: map[string]uint64{obs.DropNormal: 2036}},
		},
		Overhead: []O2Overhead{{Mode: ModeUntraced, Reps: 2000, AvgRTT: 10 * time.Microsecond}, {Mode: ModeTail, Reps: 2000, AvgRTT: 11 * time.Microsecond, OverheadPct: 10}},
	},
		[]string{O2FigureTitle, ModeFIFO, ModeTail, "100.0%", "overhead", obs.PolicySlow}},
}

// TestFigureTable pins the table's contract: ids are unique, "all" is
// not one of them, every figure has a title and a Run, and every figure
// has a sample report that survives a JSON round trip — marshal, decode
// into a fresh value of the same type, and get the same JSON and the
// same rendering back — so ohpc-bench's one JSON writer and one print
// path serve all of them.
func TestFigureTable(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Figures() {
		if f.ID == "" || f.ID == "all" || seen[f.ID] || f.Title == "" || f.Run == nil {
			t.Fatalf("bad table entry %+v (duplicate id: %v)", f, seen[f.ID])
		}
		seen[f.ID] = true
		sample, ok := sampleReports[f.ID]
		if !ok {
			t.Errorf("figure %s has no sample report", f.ID)
			continue
		}
		first, err := json.Marshal(sample.report)
		if err != nil {
			t.Errorf("figure %s: marshal: %v", f.ID, err)
			continue
		}
		// Decode into a new value of the report's own type: *T for
		// pointer reports, T for the named slices.
		typ := reflect.TypeOf(sample.report)
		target := reflect.New(typ)
		if typ.Kind() == reflect.Ptr {
			target = reflect.New(typ.Elem())
		}
		if err := json.Unmarshal(first, target.Interface()); err != nil {
			t.Errorf("figure %s: unmarshal: %v", f.ID, err)
			continue
		}
		back := target.Interface().(Report)
		if typ.Kind() != reflect.Ptr {
			back = target.Elem().Interface().(Report)
		}
		second, err := json.Marshal(back)
		if err != nil || !bytes.Equal(first, second) {
			t.Errorf("figure %s: JSON changed across a round trip (%v):\n%s\n%s", f.ID, err, first, second)
		}
		if p, ok := back.(*Fig5Report); ok {
			p.Plot = true // presentation flag, deliberately not serialized
		}
		text := back.Format()
		if text != sample.report.Format() {
			t.Errorf("figure %s: rendering changed across a round trip", f.ID)
		}
		for _, want := range sample.want {
			if !strings.Contains(text, want) {
				t.Errorf("figure %s: rendering is missing %q:\n%s", f.ID, want, text)
			}
		}
	}
	if len(seen) != len(sampleReports) {
		t.Errorf("%d sample reports for %d figures", len(sampleReports), len(seen))
	}
}

// TestFigure5CSV: the CSV export is a header plus one row per cell.
func TestFigure5CSV(t *testing.T) {
	var b bytes.Buffer
	if err := sampleReports["5"].report.(*Fig5Report).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[0], "profile,series,ints") || lines[4] != "atm,Nexus,1024,4100,3,1000,16.000" {
		t.Fatalf("csv:\n%s", b.String())
	}
}

// TestQuickOptionsShrink: -quick, -reps and -calls land in each
// figure's fill, and an explicit config field beats all three.
func TestQuickOptionsShrink(t *testing.T) {
	full, quick := Options{}, Options{Quick: true, Reps: 7, Calls: 9}
	var r1, r1q R1Config
	r1.fill(full)
	r1q.fill(quick)
	if r1.Duration != 1200*time.Millisecond || r1q.Duration != 600*time.Millisecond {
		t.Errorf("r1 durations %v / %v", r1.Duration, r1q.Duration)
	}
	d1q := D1Config{CrashDuration: time.Second}
	d1q.fill(quick)
	if d1q.Ops != 7 || len(d1q.Sizes) != 2 || d1q.CrashDuration != time.Second {
		t.Errorf("d1 quick fill %+v", d1q)
	}
	var a1q AsyncConfig
	a1q.fill(quick)
	if a1q.Calls != 9 {
		t.Errorf("a1 calls %d, want the -calls value", a1q.Calls)
	}
	var s1, s1q S1Config
	s1.fill(full)
	s1q.fill(quick)
	if len(s1.Rates) != 5 || len(s1q.Rates) != 4 || s1q.Workers != 24 || s1.Workers != 32 {
		t.Errorf("s1 fills %+v / %+v", s1, s1q)
	}
}

// TestPacedDriver runs the one paced loop on a fake clock, so pacing
// costs simulated time only: every worker issues calls until the
// duration elapses, outcomes land in the caller's classes, only sampled
// latencies reach the (exact) percentiles, and the fault plan has fired
// in full by the time run returns.
func TestPacedDriver(t *testing.T) {
	tb := testbed.New("paced", nil)
	defer tb.Close()
	tb.LAN("lan", "campus", netsim.ProfileUnshaped, "m")
	fake := clock.NewFake(time.Unix(1000, 0))
	tb.RT.SetClock(fake)
	if err := tb.Build(); err != nil {
		t.Fatal(err)
	}
	fired := false
	plan := new(netsim.FaultPlan).Add(5*time.Millisecond, "mark", func(*netsim.Network) { fired = true })
	tl := paced{Duration: 100 * time.Millisecond, Deadline: time.Second, Pace: 9 * time.Millisecond, Workers: 1}.run(tb, plan,
		func(ctx context.Context, w, i int) (string, bool) {
			if _, ok := ctx.Deadline(); !ok {
				t.Error("op context carries no deadline")
			}
			// The plan's goroutine arms its 5ms timer relative to the fake
			// clock's reading when it gets to run: let it, before this
			// loop moves the clock (past 100ms, and the timer would never
			// fire).
			for i == 0 && fake.Waiters() == 0 {
				runtime.Gosched()
			}
			fake.Advance(time.Millisecond) // the call itself takes 1ms
			if i%2 == 1 {
				return "odd", false
			}
			return "even", true
		})
	// 1ms call + 9ms pace = one op per 10ms of a 100ms run.
	if tl.Total != 10 || tl.By["even"] != 5 || tl.By["odd"] != 5 {
		t.Fatalf("tally %+v, want 10 ops split 5/5", tl)
	}
	if tl.P50 != time.Millisecond || tl.P99 != time.Millisecond || tl.Elapsed != 100*time.Millisecond {
		t.Fatalf("p50 %v p99 %v elapsed %v, want 1ms, 1ms, 100ms", tl.P50, tl.P99, tl.Elapsed)
	}
	if !fired {
		t.Fatal("run returned before the fault plan finished")
	}
}

func TestPercentilesExact(t *testing.T) {
	var ls []time.Duration
	for i := 100; i >= 1; i-- {
		ls = append(ls, time.Duration(i))
	}
	if p50, p99 := percentiles(ls); p50 != 50 || p99 != 99 {
		t.Fatalf("p50 %d p99 %d of 1..100, want 50 and 99", p50, p99)
	}
	if p50, p99 := percentiles(nil); p50 != 0 || p99 != 0 {
		t.Fatal("empty sample has non-zero percentiles")
	}
}
