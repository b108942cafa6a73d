package transport

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/wire"
)

// TestPoolReplacesUnhealthyMux pins the leak fix: a superseded unhealthy
// mux is closed when the pool re-dials, so its stragglers fail promptly
// instead of dangling on a dead read loop.
func TestPoolReplacesUnhealthyMux(t *testing.T) {
	shm := NewSHM()
	l, _ := shm.Listen("pool-leak")
	srv := Serve(l, echoHandler)
	defer srv.Close()

	var dials atomic.Int32
	p := NewPool(func(string) (net.Conn, error) {
		dials.Add(1)
		return shm.Dial("pool-leak")
	})
	defer p.Close()

	m1, err := p.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Call(&wire.Message{Type: wire.TRequest, Method: "m"}); err != nil {
		t.Fatal(err)
	}

	// Kill the connection behind the pool's back and park a pending call
	// on the dying mux.
	pend, err := m1.Begin(&wire.Message{Type: wire.TRequest, Method: "m"})
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()
	if m1.Healthy() {
		t.Fatal("closed mux reports healthy")
	}

	m2, err := p.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if m2 == m1 {
		t.Fatal("pool returned the unhealthy mux")
	}
	if dials.Load() != 2 {
		t.Fatalf("dialed %d times, want 2", dials.Load())
	}
	// The straggler resolved with an error instead of hanging.
	select {
	case <-pend.Done():
		if _, err := pend.Reply(); err == nil {
			t.Fatal("straggler on closed mux succeeded")
		}
	case <-clock.After(clock.Real{}, time.Second):
		t.Fatal("straggler still pending after the mux was superseded")
	}
	if _, err := m2.Call(&wire.Message{Type: wire.TRequest, Method: "m"}); err != nil {
		t.Fatalf("replacement mux broken: %v", err)
	}
}

// TestMuxRecordsWriteError pins the satellite fix: the first underlying
// write error is retained and surfaces through Healthy/Begin.
func TestMuxRecordsWriteError(t *testing.T) {
	shm := NewSHM()
	l, _ := shm.Listen("rec-err")
	srv := Serve(l, echoHandler)
	defer srv.Close()
	c, err := shm.Dial("rec-err")
	if err != nil {
		t.Fatal(err)
	}
	mx := NewMux(c)
	defer mx.Close()
	c.Close() // break the conn under the mux

	if err := mx.Post(&wire.Message{Type: wire.TControl, Method: "x"}); err == nil {
		t.Fatal("post on broken conn succeeded")
	}
	if mx.Healthy() {
		t.Fatal("mux healthy after write error")
	}
	if _, err := mx.Begin(&wire.Message{Type: wire.TRequest, Method: "m"}); err == nil {
		t.Fatal("begin on broken mux succeeded")
	}
}

// TestPendingAbandonStopsTimer pins the satellite fix: abandoning a
// pending call takes it out of the deadline timer's reach (the timer
// fires later and finds nothing to resolve).
func TestPendingAbandonStopsTimer(t *testing.T) {
	shm := NewSHM()
	l, _ := shm.Listen("abandon-timer")
	block := make(chan struct{})
	srv := Serve(l, func(m *wire.Message) *wire.Message {
		<-block
		return echoHandler(m)
	})
	defer srv.Close()
	defer close(block)
	c, err := shm.Dial("abandon-timer")
	if err != nil {
		t.Fatal(err)
	}
	mx := NewMux(c)
	defer mx.Close()
	mx.SetTimeout(30 * time.Millisecond)
	pend, err := mx.Begin(&wire.Message{Type: wire.TRequest, Method: "m"})
	if err != nil {
		t.Fatal(err)
	}
	pend.Abandon()
	// After the timeout would have fired, the pending is resolved by the
	// abandonment (not by the watchdog), and the mux is still healthy.
	clock.Sleep(clock.Real{}, 60*time.Millisecond)
	if _, err := pend.Reply(); err == nil {
		t.Fatal("abandoned call returned a reply")
	}
	if !mx.Healthy() {
		t.Fatal("mux unhealthy after abandoned call")
	}
}
