package bench

import (
	"strings"
	"testing"
	"time"

	"openhpcxx/internal/core"
	"openhpcxx/internal/netsim"
)

func TestMeasureExchange(t *testing.T) {
	d, err := NewFig5Deployment(netsim.ProfileUnshaped, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	gp, err := d.GlobalPtr(SeriesSharedMemory)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MeasureExchange(gp, 100, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Ints != 100 || m.Bytes != 404 || m.Reps < 5 {
		t.Fatalf("measurement %+v", m)
	}
	if m.BandwidthBps <= 0 || m.AvgRTT <= 0 {
		t.Fatalf("degenerate measurement %+v", m)
	}
}

func TestFig5DeploymentSelections(t *testing.T) {
	d, err := NewFig5Deployment(netsim.ProfileUnshaped, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, name := range SeriesNames() {
		gp, err := d.GlobalPtr(name)
		if err != nil {
			t.Fatal(err)
		}
		id, err := gp.SelectedProtocol()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if id != wantProto(name) {
			t.Errorf("%s selected %s, want %s", name, id, wantProto(name))
		}
	}
	if _, err := d.GlobalPtr("nonsense"); err == nil {
		t.Fatal("unknown series accepted")
	}
}

// TestFigure5Shape checks the qualitative claims of the paper's Figure 5
// on a time-scaled ATM link: (a) every curve's bandwidth grows with
// message size, (b) the network protocols perform within a small factor
// of each other (capability overhead is dwarfed by network cost), and
// (c) shared memory is far faster than every network protocol.
func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shaped-network sweep")
	}
	parallel(t)
	// The unscaled ATM profile keeps the network (not the CPU) as the
	// bottleneck even under the race detector's slowdown, so the
	// shm-vs-network gap stays robustly wide.
	series, err := RunFigure5(Fig5Config{
		Profile:     netsim.ProfileATM155,
		Sizes:       []int{16, 4096, 65536},
		MinReps:     3,
		MinDuration: 30 * time.Millisecond,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("%d series", len(series))
	}
	byName := map[string]Series{}
	for _, s := range series {
		byName[s.Name] = s
		last := len(s.Points) - 1
		if s.Points[last].BandwidthBps <= s.Points[0].BandwidthBps {
			t.Errorf("%s: bandwidth not increasing with size (%.0f -> %.0f)",
				s.Name, s.Points[0].BandwidthBps, s.Points[last].BandwidthBps)
		}
	}
	last := len(byName[SeriesNexus].Points) - 1
	netBW := []float64{
		byName[SeriesGlueTimeout].Points[last].BandwidthBps,
		byName[SeriesGlueSecurity].Points[last].BandwidthBps,
		byName[SeriesNexus].Points[last].BandwidthBps,
	}
	minNet, maxNet := netBW[0], netBW[0]
	for _, v := range netBW[1:] {
		if v < minNet {
			minNet = v
		}
		if v > maxNet {
			maxNet = v
		}
	}
	if maxNet/minNet > 4 {
		t.Errorf("network protocols diverge: %.1f..%.1f Mbps", minNet/1e6, maxNet/1e6)
	}
	shm := byName[SeriesSharedMemory].Points[last].BandwidthBps
	// The race detector slows the CPU-bound shared-memory path ~10x,
	// compressing its advantage; the network curves are link-bound and
	// unaffected. Demand a smaller (but still decisive) factor there.
	factor := 3.0
	if raceEnabled {
		factor = 1.5
	}
	if shm < factor*maxNet {
		t.Errorf("shared memory (%.1f Mbps) not clearly faster than network (%.1f Mbps)",
			shm/1e6, maxNet/1e6)
	}
}

func TestFigure4Selection(t *testing.T) {
	steps, err := RunFigure4(Fig4Config{
		SampleInts:  1024,
		MinReps:     2,
		MinDuration: 5 * time.Millisecond,
		Profile:     netsim.ProfileUnshaped,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := Fig4Expected()
	if len(steps) != len(want) {
		t.Fatalf("%d steps", len(steps))
	}
	for i, s := range steps {
		if s.Selected != want[i] {
			t.Errorf("step %d (at %s): selected %s, want %s", s.Step, s.Machine, s.Selected, want[i])
		}
	}
	// The two glue stations must have used *different* glue entries.
	if steps[0].Detail != "quota+encrypt" || steps[1].Detail != "quota" {
		t.Errorf("glue details: %q, %q", steps[0].Detail, steps[1].Detail)
	}
	// Steps are numbered 1,3,5,7 like the paper's request phases.
	for i, s := range steps {
		if s.Step != 1+2*i {
			t.Errorf("step number %d", s.Step)
		}
	}
}

func TestFigure3Scenario(t *testing.T) {
	phases, err := RunFigure3(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := Fig3Expected()
	if len(phases) != len(want) {
		t.Fatalf("%d phases", len(phases))
	}
	for i, p := range phases {
		if len(p.Clients) != 2 {
			t.Fatalf("phase %d has %d clients", i, len(p.Clients))
		}
		for j, c := range p.Clients {
			if c.Authenticated != want[i][j] {
				t.Errorf("phase %d client %s: authenticated=%v, want %v", i+1, c.Name, c.Authenticated, want[i][j])
			}
			// Authentication == glue selected; otherwise Nexus.
			wantProto := core.ProtoNexus
			if want[i][j] {
				wantProto = core.ProtoGlue
			}
			if c.Selected != wantProto {
				t.Errorf("phase %d client %s: selected %s", i+1, c.Name, c.Selected)
			}
		}
	}
}

func TestRunFigure1Report(t *testing.T) {
	r, err := RunFigure1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	text := FormatPathReport(r)
	for _, want := range []string{"protocol object P", "protocol class C", "server object"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestRunFigure2Report(t *testing.T) {
	r, err := RunFigure2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	text := FormatPathReport(r)
	for _, want := range []string{
		"envelope[0] = glue",
		"envelope[1] = encrypt",
		"envelope[2] = quota",
		"ciphertext",
		"quota charged: used=1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "cleartext") {
		t.Error("body leaked in cleartext")
	}
}

func TestFormatters(t *testing.T) {
	series := []Series{{
		Name: "x",
		Points: []Measurement{
			{Ints: 1, Bytes: 8, Reps: 3, AvgRTT: time.Millisecond, BandwidthBps: 1e6},
			{Ints: 1024, Bytes: 4100, Reps: 3, AvgRTT: time.Millisecond, BandwidthBps: 64e6},
		},
	}}
	tbl := FormatFigure5("t", series)
	if !strings.Contains(tbl, "1024") || !strings.Contains(tbl, "64.000 Mbps") {
		t.Errorf("table:\n%s", tbl)
	}
	plot := FormatFigure5ASCII("t", series)
	if !strings.Contains(plot, "t=x") {
		t.Errorf("plot legend:\n%s", plot)
	}
	if FormatFigure5ASCII("t", nil) == "" {
		t.Error("empty plot")
	}
	steps := []Fig4Step{{Step: 1, Context: "S1", Machine: "M1", Selected: core.ProtoGlue, Detail: "quota", Sample: Measurement{BandwidthBps: 2e6}}}
	if !strings.Contains(FormatFigure4(steps), "glue (quota)") {
		t.Error("fig4 table")
	}
	phases := []Fig3Phase{{ServerMachine: "srv1", Clients: []Fig3Client{{Name: "P1", Machine: "p1", Selected: core.ProtoNexus}}}}
	if !strings.Contains(FormatFigure3(phases), "no authentication") {
		t.Error("fig3 format")
	}
}

func TestSizes1ToM(t *testing.T) {
	s := Sizes1ToM()
	if s[0] != 1 || s[len(s)-1] != 1<<20 {
		t.Fatalf("sizes %v", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1]*4 {
			t.Fatalf("sizes %v", s)
		}
	}
}

func TestLossSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("loss sweep")
	}
	parallel(t)
	points, err := RunLossSweep(LossSweepConfig{
		Rates:       []float64{0, 0.3},
		Ints:        2048,
		MinReps:     3,
		MinDuration: 50 * time.Millisecond,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("%d points", len(points))
	}
	// Loss costs goodput (retransmissions), but the protocol survives.
	if points[0].Sample.BandwidthBps <= points[1].Sample.BandwidthBps {
		t.Errorf("goodput did not degrade with loss: %.1f vs %.1f Mbps",
			points[0].Sample.BandwidthBps/1e6, points[1].Sample.BandwidthBps/1e6)
	}
	if points[1].Sample.BandwidthBps <= 0 {
		t.Error("protocol died under loss")
	}
	text := FormatLossSweep(points)
	if !strings.Contains(text, "udprel") || !strings.Contains(text, "30%") {
		t.Errorf("format:\n%s", text)
	}
}

// TestProtocolSelectionAllocs pins what BenchmarkProtocolSelection (in the
// repository root) measures: invalidating a GP and re-selecting against
// the 4-entry Figure 5 table. The walk reads each entry's record, so what
// is left is the re-bind: the glue protocol object — its capabilities keep
// per-binding state — the binding and its event. Before entries had
// records the same re-select cost 98.
func TestProtocolSelectionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	d, err := NewFig5Deployment(netsim.ProfileUnshaped, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	gp, err := d.GlobalPtr(SeriesGlueSecurity)
	if err != nil {
		t.Fatal(err)
	}
	reselect := func() {
		gp.Invalidate()
		if _, err := gp.SelectedProtocol(); err != nil {
			t.Fatal(err)
		}
	}
	reselect()
	const pin = 35
	if got := testing.AllocsPerRun(200, reselect); got > pin {
		t.Fatalf("%.1f allocations per re-select, pinned at %d", got, pin)
	}
}
