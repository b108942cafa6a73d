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
