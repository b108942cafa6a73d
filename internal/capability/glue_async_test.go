package capability

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/future"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/obs/obstest"
	"openhpcxx/internal/stats"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/wire"
)

// TestGlueBatchedThroughChain is the acceptance check for batching +
// capabilities: requests coalesced into TBatch frames still traverse an
// encrypt+auth chain individually and round-trip correctly. Instead of
// diffing the aggregate srv.batches counter, it asserts on a coalesced
// invocation's own trace: the rider's batch span, its capability
// processing, and the server half all under one trace ID.
func TestGlueBatchedThroughChain(t *testing.T) {
	rt := world(t)
	server, s := echoServer(t, rt, "server", "m1")
	clientCtx, err := rt.NewContext("client", "m3")
	if err != nil {
		t.Fatal(err)
	}

	base, err := server.EntryStream()
	if err != nil {
		t.Fatal(err)
	}
	glueE, err := GlueEntry(server, "sec-batch", base,
		MustNewEncrypt(key32(), ScopeAlways),
		MustNewAuth("client", []byte("k"), ScopeAlways),
	)
	if err != nil {
		t.Fatal(err)
	}
	gp := clientCtx.NewGlobalPtr(server.NewRef(s, glueE))
	if id, err := gp.SelectedProtocol(); err != nil || id != core.ProtoGlue {
		t.Fatalf("selected %s, %v", id, err)
	}
	gp.SetBatchPolicy(&transport.BatchPolicy{MaxMessages: 8, MaxDelay: 2 * time.Millisecond})
	col := obstest.Attach(t, rt.Tracer())

	const n = 48
	fs := make([]*future.Future, n)
	for i := range fs {
		fs[i] = gp.InvokeAsync("upper", []byte(fmt.Sprintf("sec-%d", i)))
	}
	for i, f := range fs {
		body, err := f.Wait()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if want := fmt.Sprintf("SEC-%d", i); string(body) != want {
			t.Fatalf("future %d: got %q want %q", i, body, want)
		}
	}
	// Wait for every root to end (the settle goroutines), then pull one
	// coalesced rider's trace — no sleeps, the collector wakes us.
	col.WaitForSpans(t, "invoke", n, 5*time.Second)
	spans := col.WaitFor(t, 5*time.Second, "a batch span of >= 2 riders", func(spans []obs.Span) bool {
		for _, s := range spans {
			if s.Name == "batch" && s.Batch >= 2 {
				return true
			}
		}
		return false
	})
	var rider obs.Span
	for _, s := range spans {
		if s.Name == "batch" && s.Batch >= 2 {
			rider = s
			break
		}
	}
	tr := obstest.Trace(spans, rider.Trace)
	obstest.AssertBatched(t, tr, 2)
	obstest.AssertConnected(t, tr)
	// The rider still traversed the capability chain individually: glue
	// processing on the way out, glue unprocessing on the server.
	obstest.AssertPath(t, tr, "invoke→glue.process→dispatch→glue.unprocess→servant")
	if got := rt.Metrics().Counter("srv.batches").Value(); got == 0 {
		t.Fatal("no TBatch frame flowed beneath the glue chain")
	}
}

// TestGlueAsyncQuotaAccounting pins capability accounting on the async
// path: a quota of N admits exactly N invocations whether they are
// issued synchronously or through futures.
func TestGlueAsyncQuotaAccounting(t *testing.T) {
	rt := world(t)
	server, s := echoServer(t, rt, "server", "m1")
	clientCtx, _ := rt.NewContext("client", "m2")

	base, _ := server.EntryStream()
	glueE, err := GlueEntry(server, "metered-async", base, NewQuota(3, time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	gp := clientCtx.NewGlobalPtr(server.NewRef(s, glueE))

	fs := make([]*future.Future, 3)
	for i := range fs {
		fs[i] = gp.InvokeAsync("echo", []byte("x"))
	}
	if err := future.WaitAll(fs...); err != nil {
		t.Fatalf("within quota: %v", err)
	}
	err = gp.InvokeAsync("echo", []byte("x")).Err()
	var f *wire.Fault
	if !errors.As(err, &f) || f.Code != wire.FaultQuota {
		t.Fatalf("over quota: %v", err)
	}
}

// TestGlueAsyncPipelined checks the glue Begin path without batching:
// futures over a capability chain resolve with un-processed bodies.
func TestGlueAsyncPipelined(t *testing.T) {
	rt := world(t)
	server, s := echoServer(t, rt, "server", "m1")
	clientCtx, _ := rt.NewContext("client", "m2")

	base, _ := server.EntryStream()
	glueE, err := GlueEntry(server, "pipe", base, MustNewEncrypt(key32(), ScopeAlways))
	if err != nil {
		t.Fatal(err)
	}
	gp := clientCtx.NewGlobalPtr(server.NewRef(s, glueE))

	fs := make([]*future.Future, 8)
	for i := range fs {
		fs[i] = gp.InvokeAsync("echo", []byte{byte(i)})
	}
	for i, f := range fs {
		body, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if len(body) != 1 || body[0] != byte(i) {
			t.Fatalf("future %d: got %v", i, body)
		}
	}
}

// TestGlueBeginNonPipelinedBase covers the fallback: a base protocol
// with only Call still supports Begin through the glue (the call runs in
// its own goroutine).
func TestGlueBeginNonPipelinedBase(t *testing.T) {
	j := &journal{}
	c1 := &recordingCap{kind: "c1", journal: j}
	sc1 := &recordingCap{kind: "c1", journal: j}
	gs := NewGlueServer("np", []Capability{sc1}, clock.Real{})
	base := &localProto{handle: func(m *wire.Message) *wire.Message {
		body, err := gs.UnwrapRequest(m)
		if err != nil {
			t.Errorf("unwrap: %v", err)
			return nil
		}
		reply, err := gs.WrapReply(m, append([]byte("re:"), body...))
		if err != nil {
			t.Errorf("wrap: %v", err)
			return nil
		}
		return reply
	}}
	g := NewGlue("np", base, clock.Real{}, c1)

	p, err := g.Begin(&wire.Message{Type: wire.TRequest, Object: "o", Method: "m", Body: []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := p.Reply()
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Body) != "re:hi" {
		t.Fatalf("got %q", reply.Body)
	}
	// Reply is idempotent.
	again, err := p.Reply()
	if err != nil || string(again.Body) != "re:hi" {
		t.Fatalf("second Reply: %q %v", again.Body, err)
	}
}

// stallCap is a capability whose reply-side Unprocess waits for the test
// — user code on the completion path, as slow as it likes.
type stallCap struct{}

var (
	stallGate     chan struct{} // made by the test before any traffic
	stallEntered  = make(chan struct{}, 1)
	stallRegister sync.Once
)

func (stallCap) Kind() string                         { return "x-stall" }
func (stallCap) Applicable(_, _ netsim.Locality) bool { return true }
func (stallCap) Config() ([]byte, error)              { return nil, nil }
func (stallCap) Process(f *Frame, body []byte) ([]byte, []byte, error) {
	return body, nil, nil
}
func (stallCap) Unprocess(f *Frame, env, body []byte) ([]byte, error) {
	if f.Dir == Reply {
		stallEntered <- struct{}{}
		<-stallGate
	}
	return body, nil
}

// TestGlueAsyncUnprocessStaysOffTheReadLoop: a capability chain's reply
// is un-processed on a goroutine of the call's own, never on the read
// loop of the connection it shares — so a chain stuck in Unprocess does
// not delay plain calls pipelined beside it.
func TestGlueAsyncUnprocessStaysOffTheReadLoop(t *testing.T) {
	stallRegister.Do(func() {
		RegisterKind("x-stall", func([]byte) (Capability, error) { return stallCap{}, nil })
	})
	stallGate = make(chan struct{})
	rt := world(t)
	server, s := echoServer(t, rt, "server", "m1")
	client, _ := rt.NewContext("client", "m2")
	base, _ := server.EntryStream()
	glueE, err := GlueEntry(server, "stalled", base, stallCap{})
	if err != nil {
		t.Fatal(err)
	}
	glued := client.NewGlobalPtr(server.NewRef(s, glueE))
	plain := client.NewGlobalPtr(server.NewRef(s, base))

	stuck := glued.InvokeAsync("upper", []byte("glued"))
	select {
	case <-stallEntered:
	case <-clock.After(clock.Real{}, 5*time.Second):
		t.Fatal("the chain's reply never reached Unprocess")
	}
	if got := rt.Metrics().GaugeWith("transport.muxes", stats.Labels{"context": "client"}).Value(); got != 1 {
		t.Fatalf("%d pooled connections, want the one both GPs share", got)
	}
	fs := make([]*future.Future, 32)
	for i := range fs {
		fs[i] = plain.InvokeAsync("upper", []byte(fmt.Sprintf("plain-%d", i)))
	}
	for i, f := range fs {
		select {
		case <-f.Done():
		case <-clock.After(clock.Real{}, 5*time.Second):
			t.Fatalf("plain call %d is stuck behind a capability's Unprocess", i)
		}
		if body, err := f.Wait(); err != nil || string(body) != fmt.Sprintf("PLAIN-%d", i) {
			t.Fatalf("plain call %d: %q, %v", i, body, err)
		}
	}
	if _, _, resolved := stuck.TryResult(); resolved {
		t.Fatal("the glued call resolved while its Unprocess was still waiting")
	}
	close(stallGate)
	if body, err := stuck.Wait(); err != nil || string(body) != "GLUED" {
		t.Fatalf("glued call: %q, %v", body, err)
	}
}
