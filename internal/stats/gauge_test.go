package stats

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestGaugeBasics(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Add(3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 8 {
		t.Fatalf("gauge = %d, want 8", got)
	}
	g.Add(-20)
	if got := g.Value(); got != -12 {
		t.Fatalf("gauge = %d, want -12 (gauges may go negative)", got)
	}
}

func TestNilGaugeIsNoOp(t *testing.T) {
	var g *Gauge
	g.Set(5)
	g.Add(3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 0 {
		t.Fatalf("nil gauge Value = %d, want 0", got)
	}
}

func TestGaugeConcurrent(t *testing.T) {
	r := New()
	g := r.Gauge("g")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge after balanced inc/dec = %d, want 0", got)
	}
}

func TestRegistryGaugeIdentity(t *testing.T) {
	r := New()
	if r.Gauge("x") != r.Gauge("x") {
		t.Fatal("same name must return the same gauge")
	}
	if r.Gauge("x") == r.Gauge("y") {
		t.Fatal("different names must return different gauges")
	}
}

func TestKeyWithLabels(t *testing.T) {
	got := KeyWithLabels("srv.conns", Labels{"b": "2", "a": "1"})
	want := `srv.conns{a="1",b="2"}`
	if got != want {
		t.Fatalf("KeyWithLabels = %q, want %q (sorted keys)", got, want)
	}
	if KeyWithLabels("n", nil) != "n" {
		t.Fatal("empty labels must leave the name bare")
	}
	esc := KeyWithLabels("n", Labels{"k": "a\"b\\c\nd"})
	if esc != `n{k="a\"b\\c\nd"}` {
		t.Fatalf("escaping = %q", esc)
	}
}

// SplitKey(KeyWithLabels(n, l)) == (n, l), whatever the label values
// hold: every byte the key syntax or its escapes use is in the alphabet
// the values are drawn from, and so are bytes that are not UTF-8.
func TestSplitKeyInvertsKeyWithLabels(t *testing.T) {
	alphabet := []byte("ab.\"\\\n{},= n'`\t\x01\xc3\xa9\xff")
	value := func(r *rand.Rand) string {
		v := make([]byte, r.Intn(8))
		for i := range v {
			v[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(v)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		labels := Labels{}
		for _, k := range []string{"proto", "endpoint", "code"}[:r.Intn(4)] {
			labels[k] = value(r)
		}
		key := KeyWithLabels("rpc.calls", labels)
		name, got := SplitKey(key)
		if name != "rpc.calls" || len(got) != len(labels) {
			t.Logf("SplitKey(%q) = %q, %v; labels were %v", key, name, got, labels)
			return false
		}
		for k, v := range labels {
			if got[k] != v {
				t.Logf("SplitKey(%q)[%q] = %q, want %q", key, k, got[k], v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitKey(t *testing.T) {
	for _, c := range []struct {
		key, name string
		labels    Labels
	}{
		{"rpc.inflight", "rpc.inflight", nil},
		{"", "", nil},
		{`rpc.errors{code="code(999)"}`, "rpc.errors", Labels{"code": "code(999)"}},
		{`rpc.retry.budget_exhausted{code="transport"}`, "rpc.retry.budget_exhausted", Labels{"code": "transport"}},
		{`m{endpoint="sim://m:1",proto="a.b"}`, "m", Labels{"endpoint": "sim://m:1", "proto": "a.b"}},
		{`m{k="a\"},x=\"b"}`, "m", Labels{"k": `a"},x="b`}},
		{`m{k=""}`, "m", Labels{"k": ""}},
		// Not the canonical form: the key comes back whole.
		{`rpc.errors{code="bad"`, `rpc.errors{code="bad"`, nil},
		{`m{k="unterminated}`, `m{k="unterminated}`, nil},
		{`m{novalue}`, `m{novalue}`, nil},
	} {
		name, labels := SplitKey(c.key)
		if name != c.name || !reflect.DeepEqual(labels, c.labels) {
			t.Errorf("SplitKey(%q) = %q, %v; want %q, %v", c.key, name, labels, c.name, c.labels)
		}
	}
}

func TestLabeledMetricsSeparateSeries(t *testing.T) {
	r := New()
	r.GaugeWith("g", Labels{"ep": "a"}).Set(1)
	r.GaugeWith("g", Labels{"ep": "b"}).Set(2)
	r.CounterWith("c", Labels{"ep": "a"}).Inc()
	r.HistogramWith("h", Labels{"ep": "a"}).Observe(7)
	s := r.Snapshot()
	if s.Gauges[`g{ep="a"}`] != 1 || s.Gauges[`g{ep="b"}`] != 2 {
		t.Fatalf("labeled gauges wrong: %v", s.Gauges)
	}
	if s.Counters[`c{ep="a"}`] != 1 {
		t.Fatalf("labeled counter wrong: %v", s.Counters)
	}
	if s.Histograms[`h{ep="a"}`].Count != 1 {
		t.Fatalf("labeled histogram wrong: %v", s.Histograms)
	}
}

func TestWriteToDeterministicSorted(t *testing.T) {
	r := New()
	r.Counter("z.second").Add(2)
	r.Counter("a.first").Inc()
	r.Gauge("m.gauge").Set(-3)
	r.Histogram("h.lat").Observe(10)
	var a, b strings.Builder
	if _, err := r.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("consecutive WriteTo of an unchanged registry must be byte-identical")
	}
	out := a.String()
	if strings.Index(out, "a.first") > strings.Index(out, "z.second") {
		t.Fatalf("counters must render in sorted order:\n%s", out)
	}
	for _, want := range []string{`"a.first": 1`, `"m.gauge": -3`, `"gauges"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteTo output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteProm(t *testing.T) {
	r := New()
	r.Counter("rpc.shm.calls").Add(3)
	r.GaugeWith("health.breaker_state", Labels{"endpoint": "hpcx-tcp|sim://m:1"}).Set(1)
	r.Histogram("rpc.shm.latency_us").Observe(100)
	var b strings.Builder
	if err := r.Snapshot().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE rpc_shm_calls counter\n",
		"rpc_shm_calls 3\n",
		"# TYPE health_breaker_state gauge\n",
		`health_breaker_state{endpoint="hpcx-tcp|sim://m:1"} 1` + "\n",
		"# TYPE rpc_shm_latency_us summary\n",
		`rpc_shm_latency_us{quantile="0.5"}`,
		"rpc_shm_latency_us_sum 100\n",
		"rpc_shm_latency_us_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom exposition missing %q:\n%s", want, out)
		}
	}
	// Determinism: consecutive scrapes of an unchanged registry are
	// byte-identical.
	var c strings.Builder
	if err := r.Snapshot().WriteProm(&c); err != nil {
		t.Fatal(err)
	}
	if out != c.String() {
		t.Fatal("consecutive scrapes must be byte-identical")
	}
}

func TestSanitizePromName(t *testing.T) {
	for in, want := range map[string]string{
		"rpc.shm.calls": "rpc_shm_calls",
		"9lives":        "_lives",
		"ok_name:x":     "ok_name:x",
		"sp ace":        "sp_ace",
	} {
		if got := sanitizePromName(in); got != want {
			t.Fatalf("sanitizePromName(%q) = %q, want %q", in, got, want)
		}
	}
}
