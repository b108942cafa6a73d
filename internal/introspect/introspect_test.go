package introspect

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/stats"
	"openhpcxx/internal/wire"
)

// world builds a primary/backup pair serving one echo object plus a
// client GP whose protocol table is the failover chain — the same shape
// the Figure R1 experiment uses, small enough for handler tests.
func world(t *testing.T) (n *netsim.Network, rt *core.Runtime, gp *core.GlobalPtr) {
	t.Helper()
	n = netsim.New()
	n.AddLAN("lan", "campus", netsim.ProfileUnshaped)
	n.MustAddMachine("mA", "lan")
	n.MustAddMachine("mB", "lan")
	n.MustAddMachine("mC", "lan")
	rt = core.NewRuntime(n, "introspect-test")
	t.Cleanup(rt.Close)

	methods := func() map[string]core.Method {
		return map[string]core.Method{
			"echo": func(args []byte) ([]byte, error) { return args, nil },
			"fail": func(args []byte) ([]byte, error) {
				return nil, wire.Faultf(wire.FaultBadRequest, "nope")
			},
		}
	}
	primary, err := rt.NewContext("primary", "mA")
	if err != nil {
		t.Fatal(err)
	}
	backup, err := rt.NewContext("backup", "mB")
	if err != nil {
		t.Fatal(err)
	}
	client, err := rt.NewContext("client", "mC")
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.BindSim(0); err != nil {
		t.Fatal(err)
	}
	if err := backup.BindSim(0); err != nil {
		t.Fatal(err)
	}
	s, err := primary.ExportAs("shared/echo", "Echo", nil, methods(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backup.ExportAs("shared/echo", "Echo", nil, methods(), 0); err != nil {
		t.Fatal(err)
	}
	pe, err := primary.EntryStream()
	if err != nil {
		t.Fatal(err)
	}
	be, err := backup.EntryStream()
	if err != nil {
		t.Fatal(err)
	}
	gp = client.NewGlobalPtr(primary.NewRef(s, pe, be))
	return n, rt, gp
}

// attach starts an introspection plane on an ephemeral loopback port
// and tears it down with the test.
func attach(t *testing.T, rt *core.Runtime, opts Options) *Server {
	t.Helper()
	s, err := Attach(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// get fetches base+path and returns status plus body.
func get(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// getOpenMetrics fetches /metrics the way an OpenMetrics scraper does
// and checks the negotiated content type.
func getOpenMetrics(t *testing.T, base string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET /metrics: read: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/openmetrics-text") {
		t.Fatalf("negotiated content-type = %q, want openmetrics", ct)
	}
	return string(body)
}

// getJSON decodes base+path into v, failing on non-200.
func getJSON(t *testing.T, base, path string, v any) {
	t.Helper()
	code, body := get(t, base, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, code, body)
	}
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, body)
	}
}

func TestPlaneServesAllEndpoints(t *testing.T) {
	_, rt, gp := world(t)
	s := attach(t, rt, Options{})
	if s.Addr() == "" {
		t.Fatal("attached server has no address")
	}
	base := "http://" + s.Addr()
	for i := 0; i < 5; i++ {
		if _, err := gp.Invoke("echo", []byte("hi")); err != nil {
			t.Fatal(err)
		}
	}
	// The series are labelled with the address half of the primary's
	// health key, the endpoint its breaker row names.
	var ep string
	for _, c := range rt.Status().Contexts {
		for _, g := range c.GPs {
			_, ep, _ = strings.Cut(g.Entries[0].Endpoint, "|")
		}
	}
	series := `{endpoint="` + ep + `",proto="hpcx-tcp"`

	// Index and liveness.
	if code, body := get(t, base, "/"); code != 200 || !strings.Contains(body, "/statusz") {
		t.Fatalf("index: %d\n%s", code, body)
	}
	if code, body := get(t, base, "/healthz"); code != 200 || !strings.Contains(body, "ok introspect-test") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, _ := get(t, base, "/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path returned %d, want 404", code)
	}

	// /metrics: Prometheus text exposition of the runtime registry.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content-type = %q, want the 0.0.4 text exposition", ct)
	}
	metrics := string(mb)
	for _, want := range []string{
		"# TYPE rpc_calls counter",
		"rpc_calls" + series + "} 5",
		"# TYPE rpc_inflight gauge",
		"# TYPE rpc_latency_us summary",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	// The classic exposition must never carry exemplar suffixes — the
	// 0.0.4 grammar allows only a timestamp after the value.
	if strings.Contains(metrics, "trace_id") {
		t.Fatalf("0.0.4 /metrics leaked exemplars:\n%s", metrics)
	}

	// /metrics with an OpenMetrics Accept header: negotiated exposition
	// with histogram-typed families and the # EOF trailer.
	om := getOpenMetrics(t, base)
	for _, want := range []string{
		"rpc_calls_total" + series + "} 5",
		"# TYPE rpc_latency_us histogram",
		"rpc_latency_us_bucket" + series + `,le="+Inf"} 5`,
		"# EOF\n",
	} {
		if !strings.Contains(om, want) {
			t.Fatalf("openmetrics /metrics missing %q:\n%s", want, om)
		}
	}
	// The plane's ring traced those calls, so their latency buckets
	// carry exemplars.
	if !regexp.MustCompile(`(?m)^rpc_latency_us_bucket` + regexp.QuoteMeta(series) + `,le="\d+"\} \d+ # \{trace_id="[0-9a-f]{16}"\} \d+$`).MatchString(om) {
		t.Fatalf("openmetrics /metrics has no exemplar on an rpc_latency_us bucket:\n%s", om)
	}

	// /statusz: the structured runtime snapshot.
	var status core.RuntimeStatus
	getJSON(t, base, "/statusz", &status)
	if status.Process != "introspect-test" || !status.Failover {
		t.Fatalf("statusz header wrong: %+v", status)
	}
	if len(status.Contexts) != 3 {
		t.Fatalf("statusz has %d contexts, want 3", len(status.Contexts))
	}
	var clientCtx *core.ContextStatus
	for i := range status.Contexts {
		if status.Contexts[i].Name == "client" {
			clientCtx = &status.Contexts[i]
		}
	}
	if clientCtx == nil || len(clientCtx.GPs) != 1 {
		t.Fatalf("client context missing its GP: %+v", status.Contexts)
	}
	g := clientCtx.GPs[0]
	if !g.Bound || g.SelectedEntry != 0 || g.SelectedProto != "hpcx-tcp" {
		t.Fatalf("GP binding wrong: %+v", g)
	}
	if len(g.Entries) != 2 || !g.Entries[0].Selected || g.Entries[1].Selected {
		t.Fatalf("GP table wrong: %+v", g.Entries)
	}

	// /varz: at least the current snapshot is always present.
	var v Varz
	getJSON(t, base, "/varz", &v)
	if v.Samples < 1 {
		t.Fatalf("varz samples = %d, want >= 1", v.Samples)
	}
	if streamCalls(v.Current) == 0 && streamCalls(rt.MetricsSnapshot()) != 0 {
		// The flight recorder samples on its own cadence; force one so
		// Current reflects the traffic, then re-fetch.
		s.Flight().SampleNow()
		getJSON(t, base, "/varz", &v)
		if streamCalls(v.Current) == 0 {
			t.Fatalf("varz current snapshot missing call counters: %+v", v.Current.Counters)
		}
	}
}

// streamCalls sums rpc.calls{endpoint=…,proto="hpcx-tcp"} over every
// endpoint.
func streamCalls(snap stats.RegistrySnapshot) (n uint64) {
	for key, v := range snap.Counters {
		if name, labels := stats.SplitKey(key); name == "rpc.calls" && labels["proto"] == "hpcx-tcp" {
			n += v
		}
	}
	return n
}

func TestStatuszUnderFailover(t *testing.T) {
	n, rt, gp := world(t)
	s := attach(t, rt, Options{})
	base := "http://" + s.Addr()
	if _, err := gp.Invoke("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	n.Crash("mA")
	if _, err := gp.Invoke("echo", []byte("after")); err != nil {
		t.Fatalf("failover lost the call: %v", err)
	}

	var status core.RuntimeStatus
	getJSON(t, base, "/statusz", &status)
	var g *core.GPStatus
	for i := range status.Contexts {
		if status.Contexts[i].Name == "client" {
			g = &status.Contexts[i].GPs[0]
		}
	}
	if g == nil {
		t.Fatal("client GP missing from statusz")
	}
	if g.SelectedEntry != 1 {
		t.Fatalf("after failover GP bound to table[%d], want 1 (the backup)", g.SelectedEntry)
	}
	if g.Entries[0].Health != "open" {
		t.Fatalf("primary entry health = %q, want open", g.Entries[0].Health)
	}
	var open int
	for _, ep := range status.Endpoints {
		if ep.State == "open" {
			open++
		}
	}
	if open == 0 {
		t.Fatalf("no open breakers in statusz endpoints after a crash: %+v", status.Endpoints)
	}
	if len(status.RecentEvents) == 0 {
		t.Fatal("statusz carries no recent events after a failover")
	}
}

func TestTracezBuildsTreesAndFilters(t *testing.T) {
	_, rt, gp := world(t)
	s := attach(t, rt, Options{})
	base := "http://" + s.Addr()
	if s.Store() == nil {
		t.Fatal("Attach did not install a trace ring on a recorder-less runtime")
	}
	if _, err := gp.Invoke("echo", []byte("one")); err != nil {
		t.Fatal(err)
	}

	var p TracezPayload
	getJSON(t, base, "/tracez", &p)
	if len(p.Traces) == 0 {
		t.Fatal("tracez has no traces after an invoke")
	}
	tr := p.Traces[0]
	if len(tr.Roots) == 0 || tr.Roots[0].Name != "invoke" {
		t.Fatalf("trace root = %+v, want the client invoke span", tr.Roots)
	}
	if len(tr.Roots[0].Children) == 0 {
		t.Fatal("invoke span has no children: tree nesting failed")
	}
	if tr.Spans < 3 || tr.DurNS <= 0 {
		t.Fatalf("trace rollups wrong: spans=%d dur=%d", tr.Spans, tr.DurNS)
	}
	// The server side joined the client's trace.
	var kinds []string
	var walk func(nodes []*TraceNode)
	walk = func(nodes []*TraceNode) {
		for _, n := range nodes {
			kinds = append(kinds, n.Kind.String())
			walk(n.Children)
		}
	}
	walk(tr.Roots)
	if !strings.Contains(strings.Join(kinds, " "), "server") {
		t.Fatalf("trace has no server-side spans: %v", kinds)
	}

	// Cursor threading: nothing new means no traces.
	cursor := p.Cursor
	var p2 TracezPayload
	getJSON(t, base, fmt.Sprintf("/tracez?cursor=%d", cursor), &p2)
	if len(p2.Traces) != 0 {
		t.Fatalf("idle poll returned %d traces, want 0", len(p2.Traces))
	}
	// New traffic shows up on the next incremental poll.
	_, _ = gp.Invoke("fail", nil) // expected fault
	getJSON(t, base, fmt.Sprintf("/tracez?cursor=%d", cursor), &p2)
	if len(p2.Traces) != 1 {
		t.Fatalf("incremental poll returned %d traces, want 1", len(p2.Traces))
	}

	// kind filter: only server spans survive; orphaned children are
	// promoted to roots so the trace still renders. (Fresh payloads per
	// fetch: json.Unmarshal merges into reused pointer slices.)
	var ps TracezPayload
	getJSON(t, base, "/tracez?kind=server", &ps)
	walkCheck := func(nodes []*TraceNode) {
		var rec func([]*TraceNode)
		rec = func(ns []*TraceNode) {
			for _, n := range ns {
				if n.Kind != obs.KindServer {
					t.Fatalf("kind=server returned a %s span: %+v", n.Kind, n.Span)
				}
				rec(n.Children)
			}
		}
		rec(nodes)
	}
	if len(ps.Traces) == 0 {
		t.Fatal("kind=server filtered everything out")
	}
	for _, tr := range ps.Traces {
		walkCheck(tr.Roots)
	}

	// error filter: only the failed invocation's trace qualifies.
	var pe TracezPayload
	getJSON(t, base, "/tracez?error=1", &pe)
	if len(pe.Traces) != 1 || !strings.Contains(pe.Traces[0].Err, "nope") {
		t.Fatalf("error=1 returned %+v, want exactly the failed trace", pe.Traces)
	}

	// min_us filter with an absurd floor matches nothing.
	var pm TracezPayload
	getJSON(t, base, "/tracez?min_us=999999999", &pm)
	if len(pm.Traces) != 0 {
		t.Fatalf("min_us filter kept %d traces, want 0", len(pm.Traces))
	}

	// limit caps the response.
	var pl TracezPayload
	getJSON(t, base, "/tracez?limit=1", &pl)
	if len(pl.Traces) != 1 {
		t.Fatalf("limit=1 returned %d traces", len(pl.Traces))
	}
}

func TestAttachReusesInstalledRing(t *testing.T) {
	_, rt, _ := world(t)
	ring := obs.NewStore(obs.StoreOptions{MaxSpans: 64})
	rt.Tracer().SetRecorder(ring)
	s := attach(t, rt, Options{})
	if s.Store() != ring {
		t.Fatal("Attach replaced an already-installed trace ring")
	}
}

// sink is a non-ring recorder standing in for a test collector.
type sink struct{ n atomic.Int64 }

func (s *sink) Record(obs.Span) { s.n.Add(1) }

func TestTracezUnavailableWithForeignRecorder(t *testing.T) {
	_, rt, _ := world(t)
	rt.Tracer().SetRecorder(&sink{})
	s := attach(t, rt, Options{})
	if s.Store() != nil {
		t.Fatal("Attach hijacked a foreign recorder")
	}
	// Handler() lets tests mount the routes without the listener.
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	code, body := get(t, hs.URL, "/tracez")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("tracez with a foreign recorder: %d %s, want 503", code, body)
	}
}

func TestNilServerIsSafe(t *testing.T) {
	var s *Server
	if s.Addr() != "" || s.Flight() != nil || s.Store() != nil {
		t.Fatal("nil server leaked state")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("nil server handler returned %d, want 404", rec.Code)
	}
}

// TestScrapeWhileInvoking is the -race regression: every plane endpoint
// is scraped concurrently with live traffic and a mid-run crash.
func TestScrapeWhileInvoking(t *testing.T) {
	n, rt, gp := world(t)
	s := attach(t, rt, Options{FlightInterval: time.Millisecond})
	base := "http://" + s.Addr()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_, _ = gp.Invoke("echo", []byte("x"))
				}
			}
		}()
	}
	paths := []string{"/metrics", "/statusz", "/tracez", "/varz", "/healthz"}
	for _, p := range paths {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get(base + p)
				if err != nil {
					t.Errorf("GET %s: %v", p, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(p)
	}
	// A crash mid-scrape exercises the failover paths under observation.
	n.Crash("mA")
	clock.Sleep(clock.Real{}, 10*time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestAttachInstallsTailKeeper covers the tail-retention plane: with a
// tail store installed before Attach, the plane serves it, /tracez annotates
// trees with retention policy and the dominant self-time span, ?slow=1
// and ?trace= work, and the obs.* accounting reaches /metrics.
func TestAttachInstallsTailKeeper(t *testing.T) {
	_, rt, gp := world(t)
	tk := obs.NewStore(obs.StoreOptions{
		Tail:     true,
		MinSlow:  time.Hour, // nothing is slow
		Baseline: -1,        // no reservoir: only errors survive
	})
	rt.Tracer().SetRecorder(tk)
	s := attach(t, rt, Options{})
	base := "http://" + s.Addr()
	if s.Store() != tk {
		t.Fatal("Store() does not expose the tail store")
	}

	if _, err := gp.Invoke("echo", []byte("healthy")); err != nil {
		t.Fatal(err)
	}
	_, _ = gp.Invoke("fail", nil) // expected fault: the retained trace

	// Only the errored trace is retained, tagged with its policy, and
	// attributed a dominant self-time span.
	var p TracezPayload
	deadline := time.Now().Add(5 * time.Second)
	for {
		getJSON(t, base, "/tracez", &p)
		if len(p.Traces) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("errored trace never surfaced; stats %+v", s.Store().Stats())
		}
		clock.Sleep(clock.Real{}, time.Millisecond)
	}
	if len(p.Traces) != 1 {
		t.Fatalf("tail keeper retained %d traces, want 1 (the errored)", len(p.Traces))
	}
	tr := p.Traces[0]
	if tr.Policy != obs.PolicyError || !strings.Contains(tr.Err, "nope") {
		t.Fatalf("retained trace policy=%q err=%q, want the errored one", tr.Policy, tr.Err)
	}
	if tr.Hot == nil || tr.Hot.SelfNS < 0 || tr.Hot.Name == "" {
		t.Fatalf("retained trace has no attribution: %+v", tr.Hot)
	}

	// ?slow=1 is empty (MinSlow is an hour), ?error=1 keeps the trace.
	var ps TracezPayload
	getJSON(t, base, "/tracez?slow=1", &ps)
	if len(ps.Traces) != 0 {
		t.Fatalf("slow=1 returned %d traces under an hour-long slow bar", len(ps.Traces))
	}
	var pe TracezPayload
	getJSON(t, base, "/tracez?error=1", &pe)
	if len(pe.Traces) != 1 {
		t.Fatalf("error=1 returned %d traces", len(pe.Traces))
	}

	// Direct lookup by hex trace id — the /metrics exemplar link target.
	var pt TracezPayload
	getJSON(t, base, fmt.Sprintf("/tracez?trace=%x", uint64(tr.Trace)), &pt)
	if len(pt.Traces) != 1 || pt.Traces[0].Trace != tr.Trace {
		t.Fatalf("trace lookup returned %+v", pt.Traces)
	}
	if code, _ := get(t, base, "/tracez?trace=zzz"); code != http.StatusBadRequest {
		t.Fatalf("bad trace id returned %d, want 400", code)
	}

	// The keeper's drop/retention accounting is live in the registry.
	if code, body := get(t, base, "/metrics"); code != 200 ||
		!strings.Contains(body, "obs_spans_total") ||
		!strings.Contains(body, `obs_kept_traces{policy="error"}`) {
		t.Fatalf("/metrics lacks the obs.* retention counters:\n%s", body)
	}
}

// TestAttachReusesInstalledKeeper mirrors the ring-reuse contract for
// an externally installed tail keeper: Attach adopts it and Close must
// NOT stop its flush loop.
func TestAttachReusesInstalledKeeper(t *testing.T) {
	_, rt, _ := world(t)
	tk := obs.NewStore(obs.StoreOptions{Tail: true})
	tk.Start()
	rt.Tracer().SetRecorder(tk)
	s := attach(t, rt, Options{})
	if s.Store() != tk {
		t.Fatal("Attach did not adopt the installed keeper")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Still usable after plane close: the keeper belongs to the caller.
	tk.Record(obs.Span{Trace: 1, ID: 1, Err: "x", Hint: true})
	if tk.Total() != 1 {
		t.Fatal("externally installed keeper unusable after plane Close")
	}
	tk.Close()
}

// TestScrapeWhileSamplingTailKeeper is the -race regression for the
// tail-retention plane: live traffic (successes and faults) races the
// keeper's decisions, the flush loop, and every tracez view.
func TestScrapeWhileSamplingTailKeeper(t *testing.T) {
	_, rt, gp := world(t)
	tk := obs.NewStore(obs.StoreOptions{Tail: true, IdleFlush: time.Millisecond})
	tk.Start()
	t.Cleanup(tk.Close)
	rt.Tracer().SetRecorder(tk)
	s := attach(t, rt, Options{FlightInterval: time.Millisecond})
	base := "http://" + s.Addr()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
					if (i+j)%5 == 0 {
						_, _ = gp.Invoke("fail", nil)
					} else {
						_, _ = gp.Invoke("echo", []byte("x"))
					}
				}
			}
		}(i)
	}
	paths := []string{"/metrics", "/tracez", "/tracez?slow=1", "/tracez?error=1", "/varz"}
	for _, p := range paths {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get(base + p)
				if err != nil {
					t.Errorf("GET %s: %v", p, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(p)
	}
	clock.Sleep(clock.Real{}, 10*time.Millisecond)
	close(stop)
	wg.Wait()

	// Sanity: the keeper actually decided traces during the storm.
	st := s.Store().Stats()
	if st.TotalSpans == 0 {
		t.Fatal("no spans flowed through the keeper")
	}
}

// loopFactory registers a call-only protocol under an arbitrary id; its
// protocol objects answer every request themselves — "fail" with a
// fault, anything else with an echo.
type loopFactory core.ProtoID

func (f loopFactory) ID() core.ProtoID { return core.ProtoID(f) }

func (f loopFactory) Applicable(core.ProtoEntry, netsim.Locality, netsim.Locality) bool {
	return true
}

func (f loopFactory) New(core.ProtoEntry, *core.ObjectRef, *core.Context) (core.Protocol, error) {
	return loopProto(f), nil
}

type loopProto core.ProtoID

func (p loopProto) ID() core.ProtoID { return core.ProtoID(p) }
func (p loopProto) Close() error     { return nil }

func (p loopProto) Call(m *wire.Message) (*wire.Message, error) {
	if m.Method == "fail" {
		return wire.FaultMessage(m, wire.Faultf(wire.FaultBadRequest, "nope"))
	}
	return &wire.Message{Type: wire.TReply, RequestID: m.RequestID, Body: m.Body}, nil
}

// A protocol id is an arbitrary string. Two ids that differ only where
// a name would be sanitized, one of them with the separator the old
// rpc.<pid>.<field> names were cut at, must stay two series of one
// family on every surface.
func TestProtocolIDsStayDistinctSeries(t *testing.T) {
	n := netsim.New()
	n.AddLAN("lan", "campus", netsim.ProfileUnshaped)
	n.MustAddMachine("m", "lan")
	rt := core.NewRuntime(n, "ids")
	t.Cleanup(rt.Close)
	client, err := rt.NewContext("client", "m")
	if err != nil {
		t.Fatal(err)
	}
	for pid, calls := range map[core.ProtoID]int{"a.b": 3, "a_b": 1} {
		client.Pool().Register(loopFactory(pid))
		gp := client.NewGlobalPtr(&core.ObjectRef{Object: "x/obj-1", Protocols: []core.ProtoEntry{{ID: pid}}})
		for i := 0; i < calls; i++ {
			if _, err := gp.Invoke("echo", []byte("hi")); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := gp.Invoke("fail", nil); err == nil {
			t.Fatalf("%s: fail returned no fault", pid)
		}
	}
	s := attach(t, rt, Options{})
	base := "http://" + s.Addr()

	_, classic := get(t, base, "/metrics")
	for _, want := range []string{
		"# TYPE rpc_calls counter\n" + `rpc_calls{endpoint="",proto="a.b"} 4` + "\n" + `rpc_calls{endpoint="",proto="a_b"} 2` + "\n",
		`rpc_faults{endpoint="",proto="a.b"} 1`,
		`rpc_faults{endpoint="",proto="a_b"} 1`,
		`rpc_latency_us_count{endpoint="",proto="a.b"} 4`,
	} {
		if !strings.Contains(classic, want) {
			t.Errorf("/metrics missing %q:\n%s", want, classic)
		}
	}
	om := getOpenMetrics(t, base)
	if want := "# TYPE rpc_calls counter\n" + `rpc_calls_total{endpoint="",proto="a.b"} 4` + "\n" + `rpc_calls_total{endpoint="",proto="a_b"} 2` + "\n"; !strings.Contains(om, want) {
		t.Errorf("openmetrics /metrics missing %q:\n%s", want, om)
	}
	for _, body := range []string{classic, om} {
		if strings.Contains(body, "rpc_a_b") {
			t.Errorf("a protocol id leaked into a family name:\n%s", body)
		}
	}

	// /varz: both series feed the one error ratio.
	s.Flight().SampleNow()
	var v Varz
	getJSON(t, base, "/varz", &v)
	if v.Current.Counters[`rpc.calls{endpoint="",proto="a.b"}`] != 4 || v.Current.Counters[`rpc.calls{endpoint="",proto="a_b"}`] != 2 {
		t.Fatalf("varz counters: %v", v.Current.Counters)
	}
	w := computeWindow(sample{}, sample{snap: v.Current}, 1)
	if w.ErrorRatio != 2.0/6.0 {
		t.Fatalf("error ratio %v, want 2 faults over 6 calls", w.ErrorRatio)
	}
}
