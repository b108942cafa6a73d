package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"openhpcxx/internal/core"
)

// smokeConfig runs every workload at 1/200 of its call counts, with one
// timed set-up and the three-repetition minimum.
func smokeConfig(t *testing.T) config {
	return config{
		seed:    1,
		seconds: time.Millisecond,
		callers: 1,
		setups:  1,
		scale:   200,
		spans:   t.TempDir(),
	}
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type manifest struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []manifestMetric             `json:"end_to_end"`
	PerLayer  []manifestMetric             `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// checkMetrics requires r to hold exactly the named metrics, each finite
// and carrying its unit.
func checkMetrics(t *testing.T, r result, want []manifestMetric) {
	t.Helper()
	got := map[string]metric{}
	for _, m := range r.metrics {
		if _, dup := got[m.name]; dup {
			t.Errorf("metric %s reported twice", m.name)
		}
		got[m.name] = m
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case m.unit != w.Unit:
			t.Errorf("metric %s has unit %q, want %q", w.Name, m.unit, w.Unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			t.Errorf("metric %s is %v", w.Name, m.value)
		}
		delete(got, w.Name)
	}
	for name := range got {
		t.Errorf("metric %s is not in BENCHMARK.json", name)
	}
}

func TestWorkloadsEndToEnd(t *testing.T) {
	want := append(readManifest(t).EndToEnd, manifestMetric{Name: "failed_frac", Unit: "ratio"})
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := endToEndRun(smokeConfig(t), w)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, r, want)
			for _, m := range r.metrics {
				if m.name != "failed_frac" && m.value <= 0 {
					t.Errorf("%s = %v, want a positive value", m.name, m.value)
				}
			}
			if r.failed != 0 || r.attempted == 0 || r.value("failed_frac") != 0 {
				t.Errorf("%d of %d calls failed (failed_frac %v)", r.failed, r.attempted, r.value("failed_frac"))
			}
		})
	}
}

// Each workload must reach the layers it was chosen for: glue is selected
// on rmi_glue_chain and nowhere else, and the touring object is reached
// over both shm and TCP.
func TestWorkloadsSelectTheirProtocols(t *testing.T) {
	for _, w := range workloads {
		d, err := setUp(w, smokeConfig(t), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.runBlock(4 * max(w.tourEvery, 1)); err != nil {
			t.Fatal(err)
		}
		d.close()
		want := map[core.ProtoID]bool{core.ProtoStream: true}
		switch {
		case w.glue:
			want = map[core.ProtoID]bool{core.ProtoGlue: true}
		case w.tourEvery > 0:
			want[core.ProtoSHM] = true
		}
		for id := range want {
			if d.selected[id] == 0 {
				t.Errorf("%s never selected %s: %v", w.name, id, d.selected)
			}
		}
		for id := range d.selected {
			if !want[id] {
				t.Errorf("%s selected %s: %v", w.name, id, d.selected)
			}
		}
	}
}

// A servant that flips one int32 of its reply must show as failed calls:
// the negative test of the per-call correctness check.
func TestFlippedReplyFails(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.flip = true
	r, err := endToEndRun(cfg, workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.value("failed_frac") <= 0 || r.failed == 0 {
		t.Errorf("failed_frac = %v with a corrupting servant, want > 0", r.value("failed_frac"))
	}
}

func TestPerLayerMetrics(t *testing.T) {
	cfg := smokeConfig(t)
	r, err := perLayer(cfg, workloads[1])
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, r, readManifest(t).PerLayer)
	if r.failed != 0 {
		t.Errorf("%d of %d calls failed", r.failed, r.attempted)
	}
	if fill := r.value("transport.batch_fill"); fill <= 1 {
		t.Errorf("transport.batch_fill = %v on %s, want > 1", fill, workloads[1].name)
	}
	if info, err := os.Stat(filepath.Join(cfg.spans, "spans-"+workloads[1].name+".json")); err != nil || info.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}

// BENCHMARK.json repeats the workload and end-to-end metric tables the
// program compiles in; the two must not drift apart.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("why of %s has %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := m.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound == nil || *e.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, e, d)
		}
	}
}

func (r result) value(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return 0
}
