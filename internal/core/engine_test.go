package core

import (
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/health"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/obs/obstest"
	"openhpcxx/internal/stats"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/wire"
)

// These tests hold the invocation engine to its one contract: whichever
// surface issues an attempt and whichever protocol carries it, the
// attempt is counted, timed and traced exactly once.

var errInjected = errors.New("injected send failure")

// wrapFactory stands in for a built-in factory under the same protocol
// id, so selection, health keys and metric names are the wrapped
// protocol's. Its protocol objects fail the next *fail sends, and with
// callOnly they expose nothing but Call.
type wrapFactory struct {
	ProtoFactory
	callOnly bool
	fail     *atomic.Int32
	// inCall, when set, runs inside every Call before it is forwarded.
	inCall func()
	// abandons, when set, counts the Abandons of every pending Begin
	// returns.
	abandons *atomic.Int64
}

func (f wrapFactory) New(e ProtoEntry, ref *ObjectRef, host *Context) (Protocol, error) {
	p, err := f.ProtoFactory.New(e, ref, host)
	if err != nil {
		return nil, err
	}
	w := &wrapProto{Protocol: p, f: f}
	if f.callOnly {
		return callOnlyProto{w}, nil
	}
	return w, nil
}

type wrapProto struct {
	Protocol
	f wrapFactory
}

func (p *wrapProto) failing() bool {
	return p.f.fail != nil && p.f.fail.Add(-1) >= 0
}

func (p *wrapProto) Call(m *wire.Message) (*wire.Message, error) {
	if p.f.inCall != nil {
		p.f.inCall()
	}
	if p.failing() {
		return nil, errInjected
	}
	return p.Protocol.Call(m)
}

func (p *wrapProto) Begin(m *wire.Message) (Pending, error) {
	if p.failing() {
		return nil, errInjected
	}
	pending, err := p.Protocol.(PipelinedProtocol).Begin(m)
	if err != nil || p.f.abandons == nil {
		return pending, err
	}
	return countingPending{pending, p.f.abandons}, nil
}

// countingPending counts its Abandons.
type countingPending struct {
	Pending
	abandons *atomic.Int64
}

func (p countingPending) Abandon() {
	p.abandons.Add(1)
	p.Pending.Abandon()
}

func (p *wrapProto) Post(m *wire.Message) error {
	if p.failing() {
		return errInjected
	}
	return p.Protocol.(OneWayProtocol).Post(m)
}

func (p *wrapProto) SetBatching(policy transport.BatchPolicy) {
	if bp, ok := p.Protocol.(BatchingProtocol); ok {
		bp.SetBatching(policy)
	}
}

// callOnlyProto embeds the Protocol interface alone, so Begin, Post and
// SetBatching are out of the ORB's reach.
type callOnlyProto struct{ Protocol }

// engineCounts is everything the engine accounts per attempt.
type engineCounts struct {
	calls, oneway, reqBytes, respBytes, transportErrors, latencyCount uint64
}

func readEngineCounts(rt *Runtime, pid ProtoID) engineCounts {
	snap := rt.MetricsSnapshot()
	latencyCount, _ := protoLatency(snap, pid)
	return engineCounts{
		calls:           protoCounter(snap, "rpc.calls", pid),
		oneway:          protoCounter(snap, "rpc.oneway", pid),
		reqBytes:        protoCounter(snap, "rpc.req_bytes", pid),
		respBytes:       protoCounter(snap, "rpc.resp_bytes", pid),
		transportErrors: protoCounter(snap, "rpc.transport_errors", pid),
		latencyCount:    latencyCount,
	}
}

// protoCounter sums the counter name{endpoint=…,proto=pid} over every
// endpoint of pid.
func protoCounter(snap stats.RegistrySnapshot, name string, pid ProtoID) (n uint64) {
	for key, v := range snap.Counters {
		if kn, labels := stats.SplitKey(key); kn == name && labels["proto"] == string(pid) {
			n += v
		}
	}
	return n
}

// protoLatency sums the count and sum of rpc.latency_us{endpoint=…,
// proto=pid} over every endpoint of pid.
func protoLatency(snap stats.RegistrySnapshot, pid ProtoID) (count uint64, sum int64) {
	for key, h := range snap.Histograms {
		if kn, labels := stats.SplitKey(key); kn == "rpc.latency_us" && labels["proto"] == string(pid) {
			count, sum = count+h.Count, sum+h.Sum
		}
	}
	return count, sum
}

// engineWorld exports an echo servant reachable over pid and returns a
// client GP whose pool wraps that protocol's factory. A nil clk leaves
// the runtime on the real clock.
func engineWorld(t *testing.T, pid ProtoID, f wrapFactory, clk clock.Clock) (*Runtime, *GlobalPtr) {
	t.Helper()
	return engineWorldServing(t, pid, f, clk, echoMethods())
}

// engineWorldServing is engineWorld with the servant's methods given.
func engineWorldServing(t *testing.T, pid ProtoID, f wrapFactory, clk clock.Clock, methods map[string]Method) (*Runtime, *GlobalPtr) {
	t.Helper()
	_, rt := testWorld(t)
	if clk != nil {
		rt.SetClock(clk)
	}
	srv, _ := rt.NewContext("srv", "mA")
	client, _ := rt.NewContext("client", "mC")
	var entry ProtoEntry
	var err error
	if pid == ProtoNexus {
		if err = srv.BindNexusSim(0); err == nil {
			entry, err = srv.EntryNexus()
		}
	} else {
		if err = srv.BindSim(0); err == nil {
			entry, err = srv.EntryStream()
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	s, err := srv.Export("Echo", nil, methods)
	if err != nil {
		t.Fatal(err)
	}
	f.ProtoFactory, _ = client.Pool().Lookup(pid)
	client.Pool().Register(f)
	return rt, client.NewGlobalPtr(srv.NewRef(s, entry))
}

// TestEngineSurfaceParity drives one GP through every surface over a
// pipelined stream, nexus, and a Call-only protocol, clean and with the
// first send failing, and requires the same accounting everywhere: a
// two-way attempt moves calls, req_bytes and latency_us once, a one-way
// attempt moves oneway and req_bytes once, every attempt ends one send
// span, and the trace starts root→select→<proto>.
func TestEngineSurfaceParity(t *testing.T) {
	const n = 5 // payload bytes
	args := []byte("hello")
	protos := []struct {
		name     string
		pid      ProtoID
		callOnly bool
	}{
		{"stream", ProtoStream, false},
		{"nexus", ProtoNexus, false},
		{"call-only", ProtoStream, true},
	}
	twoWay := func(call func(gp *GlobalPtr, open func()) ([]byte, error)) func(*GlobalPtr, func()) error {
		return func(gp *GlobalPtr, open func()) error {
			body, err := call(gp, open)
			if err == nil && string(body) != string(args) {
				err = errors.New("wrong echo: " + string(body))
			}
			return err
		}
	}
	// detached: the surface returns before the reply, so on a pipelined
	// protocol the first attempt is finished by the reply's resolver — the
	// mux read loop — not by a goroutine of the call's. The echo servant
	// answers only once open is called, and a detached surface calls it
	// after InvokeAsync* has returned: otherwise a slow caller (the race
	// detector is enough) registers its continuation on a Cell the reply
	// already resolved, and WhenDone rightly finishes it on the caller.
	surfaces := []struct {
		name     string
		oneway   bool
		detached bool
		do       func(gp *GlobalPtr, open func()) error
	}{
		{"Invoke", false, false, twoWay(func(gp *GlobalPtr, open func()) ([]byte, error) {
			open()
			return gp.Invoke("echo", args)
		})},
		{"InvokeCtx-deadline", false, false, twoWay(func(gp *GlobalPtr, open func()) ([]byte, error) {
			open()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			return gp.InvokeCtx(ctx, "echo", args)
		})},
		{"InvokeAsync", false, true, twoWay(func(gp *GlobalPtr, open func()) ([]byte, error) {
			f := gp.InvokeAsync("echo", args)
			open()
			return f.Wait()
		})},
		{"InvokeAsync-batched", false, true, twoWay(func(gp *GlobalPtr, open func()) ([]byte, error) {
			// A one-message watermark flushes inside InvokeAsync, so the
			// coalescer has sent and registered on the batch before the gate
			// opens; the delay watermark would send from a timer goroutine.
			policy := transport.DefaultBatchPolicy()
			policy.MaxMessages = 1
			gp.SetBatchPolicy(&policy)
			f := gp.InvokeAsync("echo", args)
			open()
			return f.Wait()
		})},
		{"InvokeAsyncCtx-deadline", false, true, twoWay(func(gp *GlobalPtr, open func()) ([]byte, error) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			f := gp.InvokeAsyncCtx(ctx, "echo", args)
			open()
			return f.Wait()
		})},
		{"Post", true, false, func(gp *GlobalPtr, open func()) error {
			open()
			return gp.Post("echo", args)
		}},
	}
	for _, p := range protos {
		for _, s := range surfaces {
			for _, failFirst := range []bool{false, true} {
				name := p.name + "/" + s.name
				if failFirst {
					name += "/first-send-fails"
				}
				t.Run(name, func(t *testing.T) {
					fail := new(atomic.Int32)
					gate := make(chan struct{})
					methods := echoMethods()
					methods["echo"] = func(args []byte) ([]byte, error) { <-gate; return args, nil }
					rt, gp := engineWorldServing(t, p.pid, wrapFactory{callOnly: p.callOnly, fail: fail}, nil, methods)
					if _, err := gp.SelectedProtocol(); err != nil {
						t.Fatal(err)
					}
					col := obstest.Attach(t, rt.Tracer())
					where := &finishedOnReadLoop{Recorder: col, proto: string(p.pid)}
					rt.Tracer().SetRecorder(where)
					if failFirst {
						fail.Store(1)
					}
					err := s.do(gp, func() { close(gate) })

					var want engineCounts
					path := "invoke→select→" + string(p.pid)
					switch {
					case s.oneway && p.callOnly:
						// Nothing is selected, so nothing is counted.
						if !errors.Is(err, ErrOneWayUnsupported) {
							t.Fatalf("err = %v, want ErrOneWayUnsupported", err)
						}
						path = "post→select"
					case s.oneway:
						want = engineCounts{oneway: 1, reqBytes: n}
						path = "post→select→" + string(p.pid)
						if failFirst {
							// At-most-once: the failure is classified, not retried.
							want.transportErrors = 1
							if !errors.Is(err, errInjected) || errs.CodeOf(err) != errs.Transport {
								t.Fatalf("err = %v (code %v), want injected failure coded transport", err, errs.CodeOf(err))
							}
						} else if err != nil {
							t.Fatal(err)
						}
					default:
						if err != nil {
							t.Fatal(err)
						}
						want = engineCounts{calls: 1, reqBytes: n, respBytes: n, latencyCount: 1}
						if failFirst {
							want = engineCounts{calls: 2, reqBytes: 2 * n, respBytes: n, transportErrors: 1, latencyCount: 2}
							path += "→retry→select→" + string(p.pid)
						}
					}
					root := strings.SplitN(path, "→", 2)[0]
					col.WaitForSpans(t, root, 1, 5*time.Second)
					if got := readEngineCounts(rt, p.pid); got != want {
						t.Fatalf("accounting\n got %+v\nwant %+v", got, want)
					}
					tr := col.TraceOf(t, func(sp obs.Span) bool { return sp.Name == root && sp.Parent == 0 })
					obstest.AssertPath(t, tr, path)
					if n := len(obstest.Named(tr, string(p.pid))); n != int(want.calls+want.oneway) {
						t.Fatalf("%d send spans for %d attempts", n, want.calls+want.oneway)
					}
					// A failed first send has no reply to resolve (it is finished
					// inline) and its retry blocks on a goroutine of its own.
					onResolver := s.detached && !p.callOnly && !failFirst
					where.mu.Lock()
					defer where.mu.Unlock()
					for i, got := range where.where {
						if got != (onResolver && i == 0) {
							t.Fatalf("attempt %d finished on a read loop: %v, want %v", i, got, onResolver && i == 0)
						}
					}
				})
			}
		}
	}
}

// TestOneWayPostFailureIsClassified: a failed Post goes through the same
// classification as every other send — coded transport with the cause
// reachable, counted in rpc.errors, reported to the endpoint's breaker —
// and still is not retried.
func TestOneWayPostFailureIsClassified(t *testing.T) {
	fail := new(atomic.Int32)
	rt, gp := engineWorld(t, ProtoStream, wrapFactory{fail: fail}, nil)
	for i := 1; i <= 2; i++ {
		fail.Store(1)
		err := gp.Post("echo", []byte("x"))
		if !errors.Is(err, errInjected) || errs.CodeOf(err) != errs.Transport {
			t.Fatalf("post %d: err = %v (code %v)", i, err, errs.CodeOf(err))
		}
		if fail.Load() != 0 {
			t.Fatalf("post %d was retried", i)
		}
	}
	snap := rt.MetricsSnapshot()
	if got := snap.Counters[`rpc.errors{code="transport"}`]; got != 2 {
		t.Fatalf("rpc.errors{code=transport} = %d, want 2 (%v)", got, snap.Counters)
	}
	// Two consecutive failures trip the breaker; the transition counter
	// only grows, so a prober re-closing it meanwhile cannot hide that.
	if got := snap.Counters["health.transitions"]; got == 0 {
		t.Fatal("two failed posts never tripped the endpoint's breaker")
	}
	if got := snap.Counters["rpc.retry.attempts"]; got != 0 {
		t.Fatalf("a one-way failure drew %d retry tokens", got)
	}
}

// TestCallOnlyProtocol covers the engine's adapter for a protocol with
// nothing but a blocking Call: InvokeAsync returns before the reply,
// InvokeCtx with a deadline returns at the deadline even though the Call
// is still blocked, and under a fake clock the latency histogram reads
// the simulated round trip.
func TestCallOnlyProtocol(t *testing.T) {
	t.Run("async", func(t *testing.T) {
		entered, release := make(chan struct{}), make(chan struct{})
		_, gp := engineWorld(t, ProtoStream, wrapFactory{callOnly: true, inCall: func() {
			close(entered)
			<-release
		}}, nil)
		f := gp.InvokeAsync("upper", []byte("abc"))
		<-entered // the Call is in flight and InvokeAsync has returned
		if _, _, resolved := f.TryResult(); resolved {
			t.Fatal("future resolved while the Call was blocked")
		}
		close(release)
		if body, err := f.Wait(); err != nil || string(body) != "ABC" {
			t.Fatalf("got %q %v", body, err)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		release := make(chan struct{})
		defer close(release)
		_, gp := engineWorld(t, ProtoStream, wrapFactory{callOnly: true, inCall: func() { <-release }}, nil)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		done := make(chan error, 1)
		go func() {
			_, err := gp.InvokeCtx(ctx, "echo", nil)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want DeadlineExceeded", err)
			}
		case <-clock.After(clock.Real{}, 5*time.Second):
			t.Fatal("InvokeCtx ignored its deadline while the Call was blocked")
		}
	})

	t.Run("fake-clock-latency", func(t *testing.T) {
		fc := clock.NewFake(time.Unix(1000, 0))
		rt, gp := engineWorld(t, ProtoStream, wrapFactory{callOnly: true, inCall: func() { fc.Advance(3 * time.Millisecond) }}, fc)
		if _, err := gp.Invoke("echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := gp.InvokeAsync("echo", []byte("x")).Wait(); err != nil {
			t.Fatal(err)
		}
		if count, sum := protoLatency(rt.MetricsSnapshot(), ProtoStream); count != 2 || sum != 6000 {
			t.Fatalf("latency_us count=%d sum=%d, want 2 and 6000 (two 3 ms round trips)", count, sum)
		}
	})
}

// TestVersionSkewFailsFast: a peer that answers in another wire layout,
// or announces a frame past MaxFrame, will answer the same way again, so
// the invocation ends on the first attempt with a permanent codec error
// instead of being re-sent as a transport blip, and the endpoint's
// breaker never hears of it.
func TestVersionSkewFailsFast(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply func(req *wire.Message) []byte
		want  error
	}{
		{"version-3-reply", func(req *wire.Message) []byte {
			reply, _ := wire.Marshal(&wire.Message{Type: wire.TReply, RequestID: req.RequestID})
			reply[7] = 3 // the version word follows the magic
			return append(binary.BigEndian.AppendUint32(nil, uint32(len(reply))), reply...)
		}, wire.ErrBadVersion},
		{"oversize-length-prefix", func(*wire.Message) []byte {
			return binary.BigEndian.AppendUint32(nil, wire.MaxFrame+1)
		}, wire.ErrTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, rt := testWorld(t)
			l, err := n.Listen("mA", 7400)
			if err != nil {
				t.Fatal(err)
			}
			var requests atomic.Int32
			served := make(chan struct{})
			go func() {
				defer close(served)
				for {
					conn, err := l.Accept()
					if err != nil {
						return
					}
					// One request per connection is all a client that fails
					// fast sends; a retrying one dials again.
					if req, err := wire.Read(conn); err == nil {
						requests.Add(1)
						_, _ = conn.Write(tc.reply(req))
					}
					_ = conn.Close()
				}
			}()
			t.Cleanup(func() {
				_ = l.Close()
				<-served
			})

			client, _ := rt.NewContext("client", "mC")
			entry := StreamEntryAt("sim://mA:7400")
			gp := client.NewGlobalPtr(&ObjectRef{Object: "old/obj-1", Protocols: []ProtoEntry{entry}})
			_, err = gp.Invoke("echo", []byte("x"))
			if !errors.Is(err, tc.want) || errs.CodeOf(err) != errs.Codec {
				t.Fatalf("invoke: %v (code %v), want %v coded codec", err, errs.CodeOf(err), tc.want)
			}
			if got := requests.Load(); got != 1 {
				t.Fatalf("peer saw %d requests, want exactly one attempt", got)
			}
			snap := rt.MetricsSnapshot()
			if got := snap.Counters[`rpc.errors{code="codec"}`]; got != 1 {
				t.Fatalf(`rpc.errors{code="codec"} = %d, want 1`, got)
			}
			if got := snap.Counters[`rpc.errors{code="transport"}`] + snap.Counters["rpc.retry.attempts"]; got != 0 {
				t.Fatalf("the codec failure was accounted as %d transport errors or retries", got)
			}
			if st := rt.Health().State(entryHealthKey(entry)); st != health.Closed {
				t.Fatalf("endpoint breaker %v after a codec failure, want Closed", st)
			}
		})
	}
}
