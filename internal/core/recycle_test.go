package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openhpcxx/internal/transport"
	"openhpcxx/internal/wire"
)

// countingClock is the real clock, counting its reads.
type countingClock struct{ reads atomic.Int64 }

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return time.Now()
}

// TestDispatchReadsTheClockOnlyForADeadline: without a deadline a request
// cannot have expired, so dispatch does not read the clock for it; with
// one, it reads it exactly once.
func TestDispatchReadsTheClockOnlyForADeadline(t *testing.T) {
	_, rt := testWorld(t)
	clk := new(countingClock)
	rt.SetClock(clk)
	server, _ := rt.NewContext("server", "mA")
	s, err := server.Export("Echo", nil, echoMethods())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		deadline int64
		reads    int64
	}{
		{0, 0},
		{time.Now().Add(time.Hour).UnixNano(), 1},
	} {
		before := clk.reads.Load()
		reply := server.Dispatch(&wire.Message{Type: wire.TRequest, Object: string(s.ID()), Method: "echo", Deadline: c.deadline, Body: []byte("tick")})
		if reply == nil || reply.Type != wire.TReply || string(reply.Body) != "tick" {
			t.Fatalf("deadline %d: reply %+v", c.deadline, reply)
		}
		if got := clk.reads.Load() - before; got != c.reads {
			t.Fatalf("deadline %d: dispatch read the clock %d times, want %d", c.deadline, got, c.reads)
		}
	}
}

// TestRecycledRequestTypeIsReadBeforeItGoesBack: finish gives a call's
// request header back to the pool, scrubbed, so it must read the
// request's type first. A one-way post read back as two-way would be
// timed as a round trip.
func TestRecycledRequestTypeIsReadBeforeItGoesBack(t *testing.T) {
	_, rt := testWorld(t)
	server, _ := rt.NewContext("server", "mA")
	client, _ := rt.NewContext("client", "mA")
	if err := server.BindSHM(); err != nil {
		t.Fatal(err)
	}
	s, err := server.Export("Echo", nil, echoMethods())
	if err != nil {
		t.Fatal(err)
	}
	e, err := server.EntrySHM()
	if err != nil {
		t.Fatal(err)
	}
	gp := client.NewGlobalPtr(server.NewRef(s, e))
	const posts = 20
	for i := 0; i < posts; i++ {
		if err := gp.Post("echo", []byte("one way")); err != nil {
			t.Fatal(err)
		}
	}
	if out, err := gp.Invoke("echo", []byte("two way")); err != nil || string(out) != "two way" {
		t.Fatalf("invoke: %q, %v", out, err)
	}
	var timed, posted uint64
	snap := rt.Metrics().Snapshot()
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "rpc.latency_us") {
			timed += h.Count
		}
	}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "rpc.oneway") {
			posted += v
		}
	}
	if posted != posts || timed != 1 {
		t.Fatalf("%d posts and one call: %d posts counted, %d round trips timed, want %d and 1", posts, posted, timed, posts)
	}
}

// readBackFactory wraps a protocol factory the way a tracing or capturing
// layer does: its protocol objects read the request again once Call or
// Begin has returned, and count the reads that no longer see what they
// sent.
type readBackFactory struct {
	ProtoFactory
	stale *atomic.Int64
}

func (f readBackFactory) New(e ProtoEntry, ref *ObjectRef, host *Context) (Protocol, error) {
	p, err := f.ProtoFactory.New(e, ref, host)
	if err != nil {
		return nil, err
	}
	return &readBackProto{p, f.stale}, nil
}

type readBackProto struct {
	Protocol
	stale *atomic.Int64
}

func (p *readBackProto) check(m *wire.Message, sent wire.Message) {
	if m.Type != sent.Type || m.Object != sent.Object || m.Method != sent.Method || string(m.Body) != string(sent.Body) {
		p.stale.Add(1)
	}
}

func (p *readBackProto) Call(m *wire.Message) (*wire.Message, error) {
	sent := *m
	defer p.check(m, sent)
	return p.Protocol.Call(m)
}

func (p *readBackProto) Begin(m *wire.Message) (Pending, error) {
	sent := *m
	defer p.check(m, sent)
	return p.Protocol.(PipelinedProtocol).Begin(m)
}

func (p *readBackProto) SetBatching(policy transport.BatchPolicy) {
	p.Protocol.(BatchingProtocol).SetBatching(policy)
}

// TestRecycledRequestOutlivesTheProtocolCall: a call's request header is
// pooled, but it stays the caller's until the protocol's Call or Begin
// has returned to it — a layer wrapped around a protocol reads it then —
// on every path: a plain call, one bound by a context, an asynchronous
// one, and all three batched, where the flush that encodes the request
// runs inside some caller's Begin. Under the race detector a header given
// back too early is also a race with the next call that takes it.
func TestRecycledRequestOutlivesTheProtocolCall(t *testing.T) {
	for _, batched := range []bool{false, true} {
		_, rt := testWorld(t)
		server, _ := rt.NewContext("server", "mA")
		client, _ := rt.NewContext("client", "mB")
		_, ref := exportEcho(t, server)
		var stale atomic.Int64
		f, _ := client.Pool().Lookup(ProtoStream)
		client.Pool().Register(readBackFactory{f, &stale})
		gp := client.NewGlobalPtr(ref)
		if batched {
			gp.SetBatchPolicy(&transport.BatchPolicy{MaxMessages: 4, MaxDelay: time.Millisecond})
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					args := []byte(fmt.Sprintf("caller %d call %d", w, i))
					var out []byte
					var err error
					switch i % 3 {
					case 0:
						out, err = gp.Invoke("echo", args)
					case 1:
						out, err = gp.InvokeCtx(ctx, "echo", args)
					default:
						out, err = gp.InvokeAsyncCtx(ctx, "echo", args).Wait()
					}
					if err != nil || !bytes.Equal(out, args) {
						t.Errorf("batched %v: %q, %v", batched, out, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		cancel()
		if n := stale.Load(); n != 0 {
			t.Fatalf("batched %v: %d requests read back changed after their protocol call returned", batched, n)
		}
	}
}
