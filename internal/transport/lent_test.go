package transport

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openhpcxx/internal/bufpool"
	"openhpcxx/internal/clock"
	"openhpcxx/internal/wire"
)

// TestCoalescedLentBodiesAreWrittenIntact: requests whose bodies are lent
// go through a coalescer, some abandoned while they wait for the flush,
// while another goroutine takes each buffer bufpool hands back and writes
// over it. A body given back before its batch is encoded would reach the
// server overwritten, and one given back twice would be shared by two
// callers: only the encoder gives a loan back, once.
func TestCoalescedLentBodiesAreWrittenIntact(t *testing.T) {
	const size, callers, calls = 512, 4, 50
	intact := func(b []byte) bool { return len(b) == size && bytes.Count(b, b[:1]) == size }
	var seen, torn atomic.Int64
	check := func(m *wire.Message) {
		seen.Add(1)
		if !intact(m.Body) {
			torn.Add(1)
		}
	}
	shm := NewSHM()
	l, err := shm.Listen("co-lent")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, func(m *wire.Message) *wire.Message {
		if m.Type != wire.TBatch {
			check(m)
		} else if subs, err := wire.DecodeBatch(m); err == nil {
			for _, sub := range subs {
				check(sub)
			}
		}
		return batchEchoHandler(m)
	})
	defer srv.Close()
	c, err := shm.Dial("co-lent")
	if err != nil {
		t.Fatal(err)
	}
	mux := NewMux(c)
	defer mux.Close()
	co := NewCoalescer(muxSender(mux), BatchPolicy{MaxMessages: 8, MaxDelay: 2 * time.Millisecond})

	stop := make(chan struct{})
	scribbled := make(chan struct{})
	go func() {
		defer close(scribbled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			b := bufpool.Get(size)
			for i := range b {
				b[i] = byte(i)
			}
			bufpool.Put(b)
		}
	}()

	var wg sync.WaitGroup
	failed := make(chan string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				fill := byte(1 + (i*calls+j)%250)
				body := bufpool.Get(size)
				for k := range body {
					body[k] = fill
				}
				m := &wire.Message{Type: wire.TRequest, Method: "m", Body: body}
				m.Lend(body)
				p, err := co.Begin(m)
				if err != nil {
					failed <- err.Error()
					return
				}
				if j%5 == 0 {
					p.Abandon() // still queued: the flush sends it all the same
					continue
				}
				if reply, err := p.Reply(); err != nil || !intact(reply.Body) || reply.Body[0] != fill {
					failed <- "a reply came back changed"
					return
				}
			}
		}(i)
	}
	wg.Wait()
	co.Close()
	for deadline := time.Now().Add(5 * time.Second); seen.Load() < callers*calls; clock.Sleep(clock.Real{}, time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the server saw %d of %d requests", seen.Load(), callers*calls)
		}
	}
	close(stop)
	<-scribbled
	close(failed)
	for msg := range failed {
		t.Fatal(msg)
	}
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d of %d lent bodies reached the server overwritten", n, callers*calls)
	}
}

// TestRecycledRequestHeaderIsScrubbed: the server lends a handler its
// request header as well as its frame, and takes both back once the
// handler is done (after its reply, if any, is written). A handler that
// keeps the request past its return reads the scrub, an empty header, not
// the request. A one-way request, so that no reply is read into it here.
func TestRecycledRequestHeaderIsScrubbed(t *testing.T) {
	shm := NewSHM()
	l, err := shm.Listen("recycled-header")
	if err != nil {
		t.Fatal(err)
	}
	var kept *wire.Message // written by the handler, read after Close
	handled := make(chan struct{})
	srv := Serve(l, func(m *wire.Message) *wire.Message {
		kept = m
		close(handled)
		return nil
	})
	c, err := shm.Dial("recycled-header")
	if err != nil {
		t.Fatal(err)
	}
	mux := NewMux(c)
	defer mux.Close()
	if err := mux.Post(&wire.Message{Type: wire.TControl, RequestID: 9, Object: "ctx/obj-1", Method: "m", Body: []byte("kept")}); err != nil {
		t.Fatal(err)
	}
	<-handled
	srv.Close() // waits for the worker, which released the request
	if kept.Type != 0 || kept.RequestID != 0 || kept.Object != "" || kept.Method != "" || kept.Body != nil {
		t.Fatalf("a request header kept past its release reads %+v, want the scrub", kept)
	}
}

// TestLentRequestReturnedAsReplyGoesBackOnce: a handler may answer with
// the request itself. Writing it gives its header and frame back, so the
// server must not release them a second time: the header may already hold
// the next frame, and two frames would share it.
func TestLentRequestReturnedAsReplyGoesBackOnce(t *testing.T) {
	shm := NewSHM()
	l, err := shm.Listen("request-as-reply")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, func(m *wire.Message) *wire.Message {
		m.Type = wire.TReply
		return m
	})
	defer srv.Close()
	c, err := shm.Dial("request-as-reply")
	if err != nil {
		t.Fatal(err)
	}
	mux := NewMux(c)
	defer mux.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				body := []byte{byte(i), byte(j)}
				reply, err := mux.Call(&wire.Message{Type: wire.TRequest, Method: "m", Body: body})
				if err != nil || reply.Type != wire.TReply || !bytes.Equal(reply.Body, body) {
					t.Errorf("caller %d call %d: %+v, %v", i, j, reply, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
