package capability

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/obs/obstest"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/wire"
)

// failingProto is a base protocol whose transport always dies.
type failingProto struct{ calls int }

func (p *failingProto) ID() core.ProtoID { return "dead" }
func (p *failingProto) Call(m *wire.Message) (*wire.Message, error) {
	p.calls++
	return nil, errors.New("transport down")
}
func (p *failingProto) Close() error { return nil }

// TestRefundOnTransportError pins the Refunder contract: when the base
// transport fails, the client-mirror quota and rate-limit charges of
// that attempt are handed back (in reverse chain order), so failover
// retries do not double-charge.
func TestRefundOnTransportError(t *testing.T) {
	q := NewQuota(3, time.Time{})
	r := MustNewRateLimit(1000, 4)
	g := NewGlue("t", &failingProto{}, clock.Real{}, q, r)

	for i := 0; i < 5; i++ {
		if _, err := g.Call(&wire.Message{Type: wire.TRequest, Object: "o", Method: "m"}); err == nil {
			t.Fatalf("call %d over a dead transport succeeded", i)
		}
	}
	if got := q.Used(); got != 0 {
		t.Fatalf("quota used = %d after failed attempts, want 0 (refunded)", got)
	}
	if got := r.Tokens(); got < 3.999 {
		t.Fatalf("rate tokens = %g after failed attempts, want the full burst back", got)
	}
}

// TestRefundOnBeginError covers the pipelined path's two failure points:
// the non-pipelined fallback goroutine and the pending's Reply.
func TestRefundOnBeginError(t *testing.T) {
	q := NewQuota(3, time.Time{})
	g := NewGlue("t", &failingProto{}, clock.Real{}, q)
	p, err := g.Begin(&wire.Message{Type: wire.TRequest, Object: "o", Method: "m"})
	if err != nil {
		t.Fatalf("Begin over a non-pipelined base must defer the failure, got %v", err)
	}
	if _, err := p.Reply(); err == nil {
		t.Fatal("pending over a dead transport succeeded")
	}
	if got := q.Used(); got != 0 {
		t.Fatalf("quota used = %d after failed Begin, want 0 (refunded)", got)
	}
}

// TestNoRefundOnServerFault: a fault produced by the server means the
// request reached it — the authoritative side charged, so the mirror
// charge must stand.
func TestNoRefundOnServerFault(t *testing.T) {
	q := NewQuota(3, time.Time{})
	faulting := &localProto{handle: func(m *wire.Message) *wire.Message {
		f, _ := wire.FaultMessage(m, wire.Faultf(wire.FaultNoMethod, "nope"))
		return f
	}}
	g := NewGlue("t", faulting, clock.Real{}, q)
	reply, err := g.Call(&wire.Message{Type: wire.TRequest, Object: "o", Method: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TFault {
		t.Fatalf("reply type %v, want TFault", reply.Type)
	}
	if got := q.Used(); got != 1 {
		t.Fatalf("quota used = %d after a server fault, want 1 (the request executed server-side logic)", got)
	}
}

// glueFaultWorld is the end-to-end fixture: a server on a crashable
// machine with a glue (audit+quota) entry, and a client elsewhere.
func glueFaultWorld(t *testing.T) (n *netsim.Network, rt *core.Runtime, server *core.Context, s *core.Servant, client *core.Context) {
	t.Helper()
	n = netsim.New()
	n.AddLAN("lan1", "campus1", netsim.ProfileUnshaped)
	n.AddLAN("lan2", "campus1", netsim.ProfileUnshaped)
	n.CampusLink = netsim.ProfileUnshaped
	n.WANLink = netsim.ProfileUnshaped
	n.MustAddMachine("srv-m", "lan1")
	n.MustAddMachine("cli-m", "lan2")
	rt = core.NewRuntime(n, "proc1")
	Install(rt.DefaultPool())
	t.Cleanup(rt.Close)
	server, s = echoServer(t, rt, "server", "srv-m")
	var err error
	client, err = rt.NewContext("client", "cli-m")
	if err != nil {
		t.Fatal(err)
	}
	return n, rt, server, s, client
}

// TestQuotaNotDoubleChargedAcrossCrash: a quota-metered glue reference
// through a server crash. The failed attempts (client-side charges
// refunded, server never reached) must not eat into the budget: after
// the restart the full remainder is still spendable.
func TestQuotaNotDoubleChargedAcrossCrash(t *testing.T) {
	n, _, server, s, client := glueFaultWorld(t)
	const port = 7301
	// Re-bind the stream endpoint on a fixed port so the address in the
	// glue entry survives the crash/restart cycle.
	if err := server.BindSim(port); err != nil {
		t.Fatal(err)
	}
	base, err := server.EntryStream()
	if err != nil {
		t.Fatal(err)
	}
	glueE, err := GlueEntry(server, "metered", base, NewQuota(3, time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	gp := client.NewGlobalPtr(server.NewRef(s, glueE))

	if _, err := gp.Invoke("echo", []byte("one")); err != nil {
		t.Fatal(err)
	}

	n.Crash("srv-m")
	if _, err := gp.Invoke("echo", []byte("lost")); err == nil {
		t.Fatal("call through the outage succeeded with no backup entry")
	}
	n.Restart("srv-m")
	if err := server.BindSim(port); err != nil {
		t.Fatalf("re-bind after restart: %v", err)
	}

	// The failed attempts must not have consumed quota anywhere: the two
	// remaining units are still spendable...
	for i := 0; i < 2; i++ {
		if _, err := gp.Invoke("echo", []byte("post")); err != nil {
			t.Fatalf("post-restart call %d failed — budget leaked to dead attempts: %v", i, err)
		}
	}
	// ...and the fourth executed request trips the authoritative quota.
	_, err = gp.Invoke("echo", []byte("over"))
	var f *wire.Fault
	if !errors.As(err, &f) || f.Code != wire.FaultQuota {
		t.Fatalf("call past the budget: %v, want FaultQuota", err)
	}
	if got := s.Calls(); got != 3 {
		t.Fatalf("servant executed %d calls, want exactly the 3 budgeted", got)
	}
}

// TestExpiredRequestStillAudited: the server sheds a deadline-expired
// request after capability un-processing, so the audit capability logs
// it even though the servant never runs — billing and accounting see
// every request that arrived.
func TestExpiredRequestStillAudited(t *testing.T) {
	_, rt, server, s, client := glueFaultWorld(t)
	base, err := server.EntryStream()
	if err != nil {
		t.Fatal(err)
	}
	// Register our own glue server so the test holds the server-side
	// audit instance (GlueEntry rebuilds its own copies).
	var sink bytes.Buffer
	audit := NewAudit("bill", &sink)
	glueE, err := GlueEntry(server, "audited", base, NewAudit("bill", nil))
	if err != nil {
		t.Fatal(err)
	}
	server.RegisterGlue("audited", NewGlueServer("audited", []Capability{audit}, rt.Clock()))

	gp := client.NewGlobalPtr(server.NewRef(s, glueE))
	if _, err := gp.Invoke("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	warmRecords := audit.Seq()
	if warmRecords == 0 {
		t.Fatal("warm-up call not audited")
	}
	calls := s.Calls()

	// An already-expired deadline: the server sheds the request.
	gp.SetDefaultDeadline(time.Nanosecond)
	_, err = gp.Invoke("echo", []byte("late"))
	var f *wire.Fault
	if !errors.As(err, &f) || f.Code != wire.FaultExpired {
		t.Fatalf("expired call: %v, want FaultExpired", err)
	}
	if s.Calls() != calls {
		t.Fatal("servant executed an expired request")
	}
	if audit.Seq() <= warmRecords {
		t.Fatal("expired request left no audit record")
	}
	if !strings.Contains(sink.String(), "method=echo") {
		t.Fatalf("audit log missing the request record:\n%s", sink.String())
	}
}

// TestGlueDeadlineSettlesTheChain: however a glue call ends early — its
// future's Cancel, or the deadline of a synchronous or an asynchronous
// call — the exchange is abandoned and read back, so the chain settles
// it: the base-protocol span records the abandon, as the chain's settle
// ends it.
func TestGlueDeadlineSettlesTheChain(t *testing.T) {
	rt := world(t)
	server, err := rt.NewContext("server", "m1")
	if err != nil {
		t.Fatal(err)
	}
	if err := server.BindSim(0); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	s, err := server.Export("Block", nil, map[string]core.Method{
		"block": func([]byte) ([]byte, error) { <-release; return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := server.EntryStream()
	if err != nil {
		t.Fatal(err)
	}
	glueE, err := GlueEntry(server, "metered-block", base, NewQuota(100, time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	client, err := rt.NewContext("client", "m2")
	if err != nil {
		t.Fatal(err)
	}
	gp := client.NewGlobalPtr(server.NewRef(s, glueE))
	col := obstest.Attach(t, rt.Tracer())

	expire := func() context.Context {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		t.Cleanup(cancel)
		return ctx
	}
	endings := []struct {
		name string
		end  func() error
	}{
		{"cancel", func() error {
			f := gp.InvokeAsync("block", nil)
			f.Cancel()
			return f.Err()
		}},
		{"sync deadline", func() error {
			_, err := gp.InvokeCtx(expire(), "block", nil)
			return err
		}},
		{"async deadline", func() error { return gp.InvokeAsyncCtx(expire(), "block", nil).Err() }},
	}
	for i, e := range endings {
		if err := e.end(); err == nil {
			t.Fatalf("%s: a blocked call succeeded", e.name)
		}
		col.WaitFor(t, 5*time.Second, fmt.Sprintf("%d abandoned base spans", i+1), func(spans []obs.Span) bool {
			n := 0
			for _, sp := range obstest.Named(spans, string(core.ProtoStream)) {
				if sp.Kind == obs.KindClient && strings.Contains(sp.Err, transport.ErrAbandoned.Error()) {
					n++
				}
			}
			return n == i+1
		})
	}
}
