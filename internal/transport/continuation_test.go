package transport

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/wire"
)

// scriptedPeer is a mux over a pipe whose far end the test drives by
// hand: it reads the request frames and writes whatever reply the
// scenario calls for, so each resolver fires exactly when asked.
type scriptedPeer struct {
	m          *Mux
	far        net.Conn
	failWrites atomic.Bool
}

// flakyConn fails writes on demand, for the write-failure resolver.
type flakyConn struct {
	net.Conn
	fail *atomic.Bool
}

var errWriteBoom = errors.New("write boom")

func (c flakyConn) Write(b []byte) (int, error) {
	if c.fail.Load() {
		return 0, errWriteBoom
	}
	return c.Conn.Write(b)
}

func newScriptedPeer(t *testing.T) *scriptedPeer {
	t.Helper()
	near, far := netsim.Pipe(netsim.ProfileUnshaped, netsim.Addr{Machine: "a", Port: 1}, netsim.Addr{Machine: "b"})
	sp := &scriptedPeer{far: far}
	sp.m = NewMux(flakyConn{Conn: near, fail: &sp.failWrites})
	t.Cleanup(func() {
		sp.m.Close()
		far.Close()
	})
	return sp
}

// request reads the next request frame off the far end.
func (sp *scriptedPeer) request(t *testing.T) *wire.Message {
	t.Helper()
	m, err := wire.Read(sp.far)
	if err != nil {
		t.Fatalf("peer read: %v", err)
	}
	return m
}

func (sp *scriptedPeer) begin(t *testing.T) *PendingCall {
	t.Helper()
	p, err := sp.m.Begin(&wire.Message{Type: wire.TRequest, Method: "ping"})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// batchReplyOf answers a TBatch request with n echoed sub-replies,
// whatever the request held.
func batchReplyOf(t *testing.T, req *wire.Message, n int) *wire.Message {
	t.Helper()
	subs := make([]*wire.Message, n)
	for i := range subs {
		subs[i] = &wire.Message{Type: wire.TReply, Body: []byte("pong")}
	}
	out, err := wire.EncodeBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	out.RequestID = req.RequestID
	return out
}

// exchange is what the ORB drives: a pending that takes a continuation
// and can be abandoned (core.Pending).
type exchange interface {
	Pending
	WhenDone(func())
	Abandon()
}

// resolverCase sets one exchange up and returns it unresolved, with the
// act that resolves it and the check on its outcome.
type resolverCase struct {
	name  string
	setup func(t *testing.T) (p exchange, resolve func(), check func(reply *wire.Message, err error) bool)
}

func wantErr(target error) func(*wire.Message, error) bool {
	return func(_ *wire.Message, err error) bool { return errors.Is(err, target) }
}

func wantCode(code errs.Code) func(*wire.Message, error) bool {
	return func(_ *wire.Message, err error) bool { return err != nil && errs.CodeOf(err) == code }
}

func wantPong(reply *wire.Message, err error) bool {
	return err == nil && reply != nil && string(reply.Body) == "pong"
}

// batchOfTwo queues two requests on a coalescer over sp's mux, flushed by
// hand; the case resolves the first item.
func batchOfTwo(t *testing.T, sp *scriptedPeer) (*Coalescer, *Cell) {
	t.Helper()
	co := NewCoalescer(muxSender(sp.m), BatchPolicy{MaxMessages: 64, MaxDelay: time.Hour})
	t.Cleanup(co.Close)
	p, err := co.Begin(&wire.Message{Type: wire.TRequest, Method: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Begin(&wire.Message{Type: wire.TRequest, Method: "b"}); err != nil {
		t.Fatal(err)
	}
	return co, p
}

var resolverCases = []resolverCase{
	{"matched-reply", func(t *testing.T) (exchange, func(), func(*wire.Message, error) bool) {
		sp := newScriptedPeer(t)
		p := sp.begin(t)
		req := sp.request(t)
		return p, func() {
			_ = wire.Write(sp.far, &wire.Message{Type: wire.TReply, RequestID: req.RequestID, Body: []byte("pong")})
		}, wantPong
	}},
	{"abandon", func(t *testing.T) (exchange, func(), func(*wire.Message, error) bool) {
		p := newScriptedPeer(t).begin(t)
		return p, p.Abandon, wantErr(ErrAbandoned)
	}},
	{"batch-item-abandon", func(t *testing.T) (exchange, func(), func(*wire.Message, error) bool) {
		_, p := batchOfTwo(t, newScriptedPeer(t))
		return p, p.Abandon, wantErr(ErrAbandoned)
	}},
	{"call-timeout", func(t *testing.T) (exchange, func(), func(*wire.Message, error) bool) {
		sp := newScriptedPeer(t)
		sp.m.SetTimeout(5 * time.Millisecond)
		return sp.begin(t), func() {}, wantCode(errs.Expired)
	}},
	{"mux-close", func(t *testing.T) (exchange, func(), func(*wire.Message, error) bool) {
		sp := newScriptedPeer(t)
		return sp.begin(t), func() { sp.m.Close() }, wantErr(ErrMuxClosed)
	}},
	{"mux-fail", func(t *testing.T) (exchange, func(), func(*wire.Message, error) bool) {
		sp := newScriptedPeer(t)
		return sp.begin(t), func() { sp.far.Close() }, func(_ *wire.Message, err error) bool { return err != nil }
	}},
	{"begin-write-failure", func(t *testing.T) (exchange, func(), func(*wire.Message, error) bool) {
		// The mux hands out no pending when its write fails; the
		// coalescer's items are where that failure lands (failAll).
		sp := newScriptedPeer(t)
		co, p := batchOfTwo(t, sp)
		sp.failWrites.Store(true)
		return p, co.Flush, wantErr(errWriteBoom)
	}},
	{"batch-of-one", func(t *testing.T) (exchange, func(), func(*wire.Message, error) bool) {
		sp := newScriptedPeer(t)
		co := NewCoalescer(muxSender(sp.m), BatchPolicy{MaxMessages: 64, MaxDelay: time.Hour})
		t.Cleanup(co.Close)
		p, err := co.Begin(&wire.Message{Type: wire.TRequest, Method: "solo"})
		if err != nil {
			t.Fatal(err)
		}
		co.Flush()
		req := sp.request(t)
		return p, func() {
			_ = wire.Write(sp.far, &wire.Message{Type: wire.TReply, RequestID: req.RequestID, Body: []byte("pong")})
		}, wantPong
	}},
	{"batch-reply", func(t *testing.T) (exchange, func(), func(*wire.Message, error) bool) {
		sp := newScriptedPeer(t)
		co, p := batchOfTwo(t, sp)
		co.Flush()
		req := sp.request(t)
		return p, func() { _ = wire.Write(sp.far, batchReplyOf(t, req, 2)) }, wantPong
	}},
	{"batch-reply-short", func(t *testing.T) (exchange, func(), func(*wire.Message, error) bool) {
		sp := newScriptedPeer(t)
		co, p := batchOfTwo(t, sp)
		co.Flush()
		req := sp.request(t)
		return p, func() { _ = wire.Write(sp.far, batchReplyOf(t, req, 1)) }, wantCode(errs.Codec)
	}},
	{"batch-reply-oversized", func(t *testing.T) (exchange, func(), func(*wire.Message, error) bool) {
		sp := newScriptedPeer(t)
		co, p := batchOfTwo(t, sp)
		co.Flush()
		req := sp.request(t)
		return p, func() { _ = wire.Write(sp.far, batchReplyOf(t, req, 3)) }, wantCode(errs.Codec)
	}},
	{"batch-connection-dies", func(t *testing.T) (exchange, func(), func(*wire.Message, error) bool) {
		sp := newScriptedPeer(t)
		co, p := batchOfTwo(t, sp)
		co.Flush()
		sp.request(t)
		return p, func() { sp.far.Close() }, func(_ *wire.Message, err error) bool { return err != nil }
	}},
}

// TestContinuationContract: whichever way an exchange resolves, and
// whether its continuation was registered before, after or concurrently
// with that, the continuation runs exactly once and Reply has one and the
// same value from inside it and afterwards — without blocking.
func TestContinuationContract(t *testing.T) {
	for _, rc := range resolverCases {
		for _, when := range []string{"before", "after", "concurrent"} {
			t.Run(rc.name+"/"+when, func(t *testing.T) {
				p, resolve, check := rc.setup(t)
				var (
					runs   atomic.Int32
					ran    = make(chan struct{})
					inside struct {
						reply *wire.Message
						err   error
					}
				)
				fn := func() {
					if runs.Add(1) == 1 {
						inside.reply, inside.err = p.Reply()
						close(ran)
					}
				}
				switch when {
				case "before":
					p.WhenDone(fn)
					resolve()
				case "after":
					resolve()
					<-p.Done()
					p.WhenDone(fn)
					if runs.Load() != 1 {
						t.Fatal("a resolved pending did not run its continuation on the registering goroutine")
					}
				case "concurrent":
					var wg sync.WaitGroup
					wg.Add(1)
					go func() {
						defer wg.Done()
						resolve()
					}()
					p.WhenDone(fn)
					wg.Wait()
				}
				select {
				case <-ran:
				case <-clock.After(clock.Real{}, 5*time.Second):
					t.Fatal("continuation never ran")
				}
				if !check(inside.reply, inside.err) {
					t.Fatalf("inside the continuation: reply %v, err %v", inside.reply, inside.err)
				}
				// Every other resolver loses from here on.
				p.Abandon()
				if c, ok := p.(*Cell); ok {
					c.Resolve(nil, errors.New("late"))
				}
				if reply, err := p.Reply(); reply != inside.reply || err != inside.err {
					t.Fatalf("Reply changed: (%v, %v) inside, (%v, %v) after", inside.reply, inside.err, reply, err)
				}
				if n := runs.Load(); n != 1 {
					t.Fatalf("continuation ran %d times", n)
				}
			})
		}
	}
}

// TestContinuationMayCloseItsMux: a continuation that closes the mux it
// ran on — what the ORB does when it drops a connection on a transport
// error — neither deadlocks the read loop nor resolves anything twice,
// and the exchanges it strands fail with ErrMuxClosed.
func TestContinuationMayCloseItsMux(t *testing.T) {
	sp := newScriptedPeer(t)
	const n = 8
	var (
		runs [n]atomic.Int32
		errc = make(chan error, n)
	)
	first := sp.begin(t)
	req := sp.request(t)
	first.WhenDone(func() {
		runs[0].Add(1)
		sp.m.Close()
		_, err := first.Reply()
		errc <- err
	})
	for i := 1; i < n; i++ {
		p := sp.begin(t)
		sp.request(t)
		p.WhenDone(func() {
			runs[i].Add(1)
			sp.m.Close()
			_, err := p.Reply()
			errc <- err
		})
	}
	if err := wire.Write(sp.far, &wire.Message{Type: wire.TReply, RequestID: req.RequestID}); err != nil {
		t.Fatal(err)
	}
	closed := 0
	for i := 0; i < n; i++ {
		select {
		case err := <-errc:
			if errors.Is(err, ErrMuxClosed) {
				closed++
			} else if err != nil {
				t.Fatalf("stranded exchange: %v", err)
			}
		case <-clock.After(clock.Real{}, 5*time.Second):
			t.Fatalf("deadlock: %d of %d continuations ran", i, n)
		}
	}
	if closed != n-1 {
		t.Fatalf("%d exchanges saw ErrMuxClosed, want %d", closed, n-1)
	}
	for i := range runs {
		if c := runs[i].Load(); c != 1 {
			t.Fatalf("continuation %d ran %d times", i, c)
		}
	}
	if got := sp.m.InFlight(); got != 0 {
		t.Fatalf("%d exchanges left in the mux", got)
	}
}

// TestCloseDoesNotRunContinuations: the goroutine that closes a mux (or
// flushes a coalescer into a dead one) may hold locks the continuations
// take, so they run on the read loop or a goroutine of their own.
func TestCloseDoesNotRunContinuations(t *testing.T) {
	var mu sync.Mutex // stands for the caller's lock
	done := make(chan struct{}, 2)
	locked := func() {
		mu.Lock()
		mu.Unlock()
		done <- struct{}{}
	}
	underLock := func(act func()) {
		mu.Lock()
		act()
		mu.Unlock()
	}

	sp := newScriptedPeer(t)
	sp.begin(t).WhenDone(locked)
	go underLock(func() { sp.m.Close() })

	sp2 := newScriptedPeer(t)
	co, p := batchOfTwo(t, sp2)
	p.WhenDone(locked)
	sp2.failWrites.Store(true)
	go underLock(co.Flush)

	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-clock.After(clock.Real{}, 5*time.Second):
			t.Fatal("a continuation ran under the closer's lock, or not at all")
		}
	}
}
