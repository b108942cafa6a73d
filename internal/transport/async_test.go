package transport

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/wire"
)

// TestMuxAbandonedCallDoesNotStallReader is the regression test for the
// reader-stall audit: a caller abandons a request (times out) while the
// server's reply is still in flight; the late reply must be dropped and
// the read loop must keep serving subsequent calls. With a
// channel-send-based delivery path an abandoned request could leave the
// reader blocked on the send; the resolve/close design cannot.
func TestMuxAbandonedCallDoesNotStallReader(t *testing.T) {
	shm := NewSHM()
	l, _ := shm.Listen("stall")
	release := make(chan struct{})
	srv := Serve(l, func(m *wire.Message) *wire.Message {
		if m.Method == "slow" {
			<-release
		}
		return echoHandler(m)
	})
	defer srv.Close()

	c, err := shm.Dial("stall")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMux(c)
	defer m.Close()
	m.SetTimeout(20 * time.Millisecond)

	if _, err := m.Call(&wire.Message{Type: wire.TRequest, Method: "slow"}); err == nil {
		t.Fatal("slow call did not time out")
	} else if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("unexpected error: %v", err)
	}
	if n := m.InFlight(); n != 0 {
		t.Fatalf("%d pending after timeout, want 0", n)
	}

	// Release the late reply; it must be dropped, not delivered and not
	// stall the reader.
	close(release)

	m.SetTimeout(2 * time.Second)
	for i := 0; i < 5; i++ {
		reply, err := m.Call(&wire.Message{Type: wire.TRequest, Method: "fast", Body: []byte{byte(i)}})
		if err != nil {
			t.Fatalf("reader stalled after abandoned call: call %d: %v", i, err)
		}
		if !bytes.Equal(reply.Body, []byte{byte(i)}) {
			t.Fatalf("call %d got %v", i, reply.Body)
		}
	}
}

// TestMuxAbandonRace hammers the abandon-vs-delivery race: many calls
// with a timeout comparable to the service time, then verify the mux
// still works. Run under -race this also proves the resolution path is
// data-race free.
func TestMuxAbandonRace(t *testing.T) {
	shm := NewSHM()
	l, _ := shm.Listen("race")
	srv := Serve(l, func(m *wire.Message) *wire.Message {
		clock.Sleep(clock.Real{}, time.Millisecond)
		return echoHandler(m)
	})
	defer srv.Close()

	c, err := shm.Dial("race")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMux(c)
	defer m.Close()
	m.SetTimeout(time.Millisecond) // ~50/50 race with the 1ms server

	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Call(&wire.Message{Type: wire.TRequest, Method: "x"}) // outcome irrelevant
		}()
	}
	wg.Wait()

	m.SetTimeout(2 * time.Second)
	if _, err := m.Call(&wire.Message{Type: wire.TRequest, Method: "final"}); err != nil {
		t.Fatalf("mux broken after abandon storm: %v", err)
	}
}

func TestMuxBeginPipelines(t *testing.T) {
	shm := NewSHM()
	l, _ := shm.Listen("pipe")
	var maxInFlight, cur int32
	var mu sync.Mutex
	srv := Serve(l, func(m *wire.Message) *wire.Message {
		mu.Lock()
		cur++
		if cur > maxInFlight {
			maxInFlight = cur
		}
		mu.Unlock()
		clock.Sleep(clock.Real{}, 2*time.Millisecond)
		mu.Lock()
		cur--
		mu.Unlock()
		return echoHandler(m)
	})
	defer srv.Close()

	c, err := shm.Dial("pipe")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMux(c)
	defer m.Close()

	const n = 16
	pendings := make([]*PendingCall, n)
	for i := 0; i < n; i++ {
		p, err := m.Begin(&wire.Message{Type: wire.TRequest, Method: "p", Body: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		pendings[i] = p
	}
	for i, p := range pendings {
		reply, err := p.Reply()
		if err != nil {
			t.Fatalf("pending %d: %v", i, err)
		}
		if !bytes.Equal(reply.Body, []byte{byte(i)}) {
			t.Fatalf("pending %d got %v", i, reply.Body)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if maxInFlight < 2 {
		t.Fatalf("max in-flight %d; requests were not pipelined", maxInFlight)
	}
}

func TestPendingAbandonThenLateReply(t *testing.T) {
	shm := NewSHM()
	l, _ := shm.Listen("late")
	srv := Serve(l, echoHandler)
	defer srv.Close()
	c, _ := shm.Dial("late")
	m := NewMux(c)
	defer m.Close()

	p, err := m.Begin(&wire.Message{Type: wire.TRequest, Method: "m"})
	if err != nil {
		t.Fatal(err)
	}
	p.Abandon()
	if _, err := p.Reply(); err == nil {
		t.Fatal("abandoned pending resolved successfully")
	}
	// Mux still serves.
	if _, err := m.Call(&wire.Message{Type: wire.TRequest, Method: "m2"}); err != nil {
		t.Fatal(err)
	}
}

// batchEchoHandler dispatches TBatch frames sub-message by sub-message,
// echoing each — a stand-in for the ORB's server-side batch dispatch.
func batchEchoHandler(m *wire.Message) *wire.Message {
	if m.Type != wire.TBatch {
		return echoHandler(m)
	}
	subs, err := wire.DecodeBatch(m)
	if err != nil {
		return nil
	}
	replies := make([]*wire.Message, 0, len(subs))
	for _, sub := range subs {
		if sub.Type == wire.TRequest {
			replies = append(replies, echoHandler(sub))
		}
	}
	out, err := wire.EncodeBatch(replies)
	if err != nil {
		return nil
	}
	out.RequestID = m.RequestID
	return out
}

func newBatchFabric(t *testing.T, name string) *Mux {
	t.Helper()
	shm := NewSHM()
	l, _ := shm.Listen(name)
	srv := Serve(l, batchEchoHandler)
	t.Cleanup(func() { srv.Close() })
	c, err := shm.Dial(name)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMux(c)
	t.Cleanup(func() { m.Close() })
	return m
}

func muxSender(m *Mux) func(*wire.Message) (Pending, error) {
	return func(msg *wire.Message) (Pending, error) { return m.Begin(msg) }
}

func TestCoalescerCountWatermark(t *testing.T) {
	m := newBatchFabric(t, "co-count")
	co := NewCoalescer(muxSender(m), BatchPolicy{MaxMessages: 4, MaxDelay: time.Hour})
	defer co.Close()

	var pendings []Pending
	for i := 0; i < 8; i++ {
		p, err := co.Begin(&wire.Message{Type: wire.TRequest, Method: "m", Body: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
	}
	for i, p := range pendings {
		reply, err := p.Reply()
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if reply.Type != wire.TReply || !bytes.Equal(reply.Body, []byte{byte(i)}) {
			t.Fatalf("item %d: %v %v", i, reply.Type, reply.Body)
		}
	}
}

func TestCoalescerDelayWatermark(t *testing.T) {
	m := newBatchFabric(t, "co-delay")
	co := NewCoalescer(muxSender(m), BatchPolicy{MaxMessages: 1000, MaxDelay: 2 * time.Millisecond})
	defer co.Close()

	// A lone request must ship after MaxDelay without reinforcements.
	start := time.Now()
	p, err := co.Begin(&wire.Message{Type: wire.TRequest, Method: "solo", Body: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := p.Reply()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply.Body, []byte("x")) {
		t.Fatalf("body %q", reply.Body)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("lone request took %v; delay watermark did not fire", elapsed)
	}
}

// TestCoalescerIgnoresAStaleDelayFire: takeLocked cannot stop a delay
// fire that has already started, so that fire reaches flushTimer after a
// watermark flush, with the next batch armed. Delivered here by hand, it
// must neither flush that batch early nor give up the coalescer's one
// timer, which the next batch re-armed.
func TestCoalescerIgnoresAStaleDelayFire(t *testing.T) {
	sent := 0
	co := NewCoalescer(func(*wire.Message) (Pending, error) {
		sent++
		return new(Cell), nil // never answered: nobody waits here
	}, BatchPolicy{MaxMessages: 2, MaxDelay: time.Hour})
	req := func() *wire.Message { return &wire.Message{Type: wire.TRequest, Method: "m"} }
	for i := 0; i < 3; i++ { // a batch of two leaves at the count; the third arms
		if _, err := co.Begin(req()); err != nil {
			t.Fatal(err)
		}
	}
	timer := co.timer
	co.flushTimer() // the first batch's fire, late
	if queued, _ := co.Stats(); queued != 1 || sent != 1 {
		t.Fatalf("a stale fire flushed the next batch: %d queued, %d frames sent", queued, sent)
	}
	if co.timer != timer || co.due.IsZero() {
		t.Fatal("a stale fire disarmed the next batch's timer")
	}
	co.Close()
	if sent != 2 {
		t.Fatalf("Close sent %d frames in all, want 2", sent)
	}
}

// TestCoalescerReusesABatchReplyFrame: a sender may answer every flush
// with one batch frame it built once (a benchmark's canned peer does).
// The coalescer only decodes such a frame: neither EncodeBatch's frame
// nor DecodeBatch's reading of it gives anything back, so each flush
// reads the frame whole.
func TestCoalescerReusesABatchReplyFrame(t *testing.T) {
	const n = 4
	replies := make([]*wire.Message, n)
	for i := range replies {
		replies[i] = &wire.Message{Type: wire.TReply, Method: "m", Body: []byte{byte(i)}}
	}
	frame, err := wire.EncodeBatch(replies)
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoalescer(func(*wire.Message) (Pending, error) {
		c := new(Cell)
		c.Resolve(frame, nil)
		return c, nil
	}, BatchPolicy{MaxMessages: n, MaxDelay: time.Hour})
	defer co.Close()
	pending := make([]*Cell, n)
	for flush := 0; flush < 3; flush++ {
		for i := range pending {
			if pending[i], err = co.Begin(&wire.Message{Type: wire.TRequest, Method: "m"}); err != nil {
				t.Fatal(err)
			}
		}
		for i, p := range pending {
			if reply, err := p.Reply(); err != nil || reply.Type != wire.TReply || !bytes.Equal(reply.Body, []byte{byte(i)}) {
				t.Fatalf("flush %d, request %d: %+v, %v", flush, i, reply, err)
			}
		}
	}
}

func TestCoalescerByteWatermark(t *testing.T) {
	m := newBatchFabric(t, "co-bytes")
	co := NewCoalescer(muxSender(m), BatchPolicy{MaxMessages: 1000, MaxBytes: 512, MaxDelay: time.Hour})
	defer co.Close()

	big := bytes.Repeat([]byte("z"), 600) // alone exceeds MaxBytes
	p, err := co.Begin(&wire.Message{Type: wire.TRequest, Method: "big", Body: big})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := p.Reply()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply.Body, big) {
		t.Fatal("oversized lone request mangled")
	}
}

func TestCoalescerRejectsNonRequest(t *testing.T) {
	m := newBatchFabric(t, "co-reject")
	co := NewCoalescer(muxSender(m), BatchPolicy{})
	defer co.Close()
	if _, err := co.Begin(&wire.Message{Type: wire.TControl, Method: "oneway"}); err == nil {
		t.Fatal("coalescer accepted one-way frame")
	}
}

func TestCoalescerCloseFlushes(t *testing.T) {
	m := newBatchFabric(t, "co-close")
	co := NewCoalescer(muxSender(m), BatchPolicy{MaxMessages: 1000, MaxDelay: time.Hour})
	p1, err := co.Begin(&wire.Message{Type: wire.TRequest, Method: "a", Body: []byte("1")})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := co.Begin(&wire.Message{Type: wire.TRequest, Method: "b", Body: []byte("2")})
	if err != nil {
		t.Fatal(err)
	}
	co.Close()
	for i, p := range []Pending{p1, p2} {
		if _, err := p.Reply(); err != nil {
			t.Fatalf("queued item %d lost on close: %v", i, err)
		}
	}
	if _, err := co.Begin(&wire.Message{Type: wire.TRequest, Method: "c"}); err == nil {
		t.Fatal("closed coalescer accepted request")
	}
}

func TestCoalescerConcurrent(t *testing.T) {
	m := newBatchFabric(t, "co-conc")
	co := NewCoalescer(muxSender(m), BatchPolicy{MaxMessages: 8, MaxDelay: time.Millisecond})
	defer co.Close()

	const callers = 16
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				body := []byte(fmt.Sprintf("%d-%d", i, j))
				p, err := co.Begin(&wire.Message{Type: wire.TRequest, Method: "m", Body: body})
				if err != nil {
					errs[i] = err
					return
				}
				reply, err := p.Reply()
				if err != nil {
					errs[i] = err
					return
				}
				if !bytes.Equal(reply.Body, body) {
					errs[i] = fmt.Errorf("got %q want %q", reply.Body, body)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
}

// TestMuxWriteKeepsCodecCode: a request the codec refuses to frame is a
// permanent codec error, not a transport blip — the write wrap keeps the
// code its cause already carries.
func TestMuxWriteKeepsCodecCode(t *testing.T) {
	shm := NewSHM()
	l, _ := shm.Listen("big")
	srv := Serve(l, echoHandler)
	defer srv.Close()
	c, err := shm.Dial("big")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMux(c)
	defer m.Close()

	_, err = m.Call(&wire.Message{Type: wire.TRequest, Method: "big", Body: make([]byte, wire.MaxFrame+1)})
	if !errors.Is(err, wire.ErrTooLarge) || errs.CodeOf(err) != errs.Codec {
		t.Fatalf("oversize request: %v (code %v), want wire.ErrTooLarge coded codec", err, errs.CodeOf(err))
	}
}
