package transport

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/wire"
)

// TestDeadlineBoundsStalledWrite: a call's timeout bounds its write, not
// only its wait for the reply. The peer accepts and never reads, so the
// 8 MiB frame cannot leave; the mux's deadline timer closes the
// connection once the write has outlasted the timeout. The stuck call
// resolves errs.Expired, an exchange already pending on the mux fails
// with the mux's error, and the pool redials. Over loopback TCP (small
// socket buffers) and over an shm pipe whose 1 MiB window a one-way
// frame has filled.
func TestDeadlineBoundsStalledWrite(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("no loopback TCP: %v", err)
		}
		var mu sync.Mutex
		var accepted []net.Conn
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				_ = c.(*net.TCPConn).SetReadBuffer(32 << 10)
				mu.Lock()
				accepted = append(accepted, c) // held open, never read
				mu.Unlock()
			}
		}()
		t.Cleanup(func() {
			l.Close()
			mu.Lock()
			defer mu.Unlock()
			for _, c := range accepted {
				c.Close()
			}
		})
		stalledWrite(t, func() (net.Conn, error) {
			c, err := net.Dial("tcp", l.Addr().String())
			if err == nil {
				_ = c.(*net.TCPConn).SetWriteBuffer(32 << 10)
			}
			return c, err
		}, func(*Mux) {})
	})
	t.Run("shm", func(t *testing.T) {
		shm := NewSHM()
		l, err := shm.Listen("never-drained")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		var mu sync.Mutex
		var accepted []net.Conn
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				mu.Lock()
				accepted = append(accepted, c)
				mu.Unlock()
			}
		}()
		t.Cleanup(func() {
			mu.Lock()
			defer mu.Unlock()
			for _, c := range accepted {
				c.Close()
			}
		})
		stalledWrite(t, func() (net.Conn, error) { return shm.Dial("never-drained") }, func(m *Mux) {
			// One frame fills the pipe's window; Post's writes are not
			// watched, and this one completes.
			if err := m.Post(&wire.Message{Type: wire.TControl, Method: "fill", Body: make([]byte, 1<<20)}); err != nil {
				t.Fatal(err)
			}
		})
	})
}

func stalledWrite(t *testing.T, dial func() (net.Conn, error), fill func(*Mux)) {
	t.Helper()
	pool := NewPool(func(string) (net.Conn, error) { return dial() })
	t.Cleanup(pool.Close)
	m, err := pool.Get("peer")
	if err != nil {
		t.Fatal(err)
	}
	m.SetTimeout(10 * time.Second)
	other, err := m.Begin(&wire.Message{Type: wire.TRequest, Method: "other"})
	if err != nil {
		t.Fatal(err)
	}
	fill(m)
	m.SetTimeout(100 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := m.Call(&wire.Message{Type: wire.TRequest, Method: "big", Body: make([]byte, 8<<20)})
		done <- err
	}()
	select {
	case err := <-done:
		if errs.CodeOf(err) != errs.Expired || !strings.Contains(err.Error(), `"big" timed out`) {
			t.Fatalf("stalled call: %v, want its expiry", err)
		}
	case <-clock.After(clock.Real{}, 5*time.Second):
		m.Close()
		<-done
		t.Fatal("a write to a peer that never reads outlived its call's 100ms timeout")
	}
	if _, err := other.Reply(); err == nil || errs.CodeOf(err) == errs.Expired {
		t.Fatalf("exchange pending on the stalled mux: %v, want the mux's failure", err)
	}
	if m.Healthy() {
		t.Fatal("mux healthy after its connection was cut")
	}
	if _, err := m.Call(&wire.Message{Type: wire.TRequest, Method: "after"}); err == nil {
		t.Fatal("call on the cut mux succeeded")
	}
	if again, err := pool.Get("peer"); err != nil || again == m {
		t.Fatalf("pool kept the cut mux: %v", err)
	}
}

// TestDeadlineTimerAtScale: one timer expires 10 000 exchanges, Begin
// and Call mixed from 8 goroutines, against a peer that reads every
// request and answers none. Each resolves exactly once, with
// errs.Expired; nothing stays pending and no goroutine stays behind; a
// reply that turns up afterwards for an expired id is dropped.
func TestDeadlineTimerAtScale(t *testing.T) {
	sp := newScriptedPeer(t)
	var last atomic.Uint64 // the highest request id the peer read
	go func() {
		for {
			req, err := wire.Read(sp.far)
			if err != nil {
				return
			}
			if req.Method == "fresh" {
				_ = wire.Write(sp.far, &wire.Message{Type: wire.TReply, RequestID: req.RequestID, Body: []byte("own")})
				continue
			}
			if req.RequestID > last.Load() {
				last.Store(req.RequestID)
			}
		}
	}()
	sp.m.SetTimeout(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	const workers, total = 8, 10000
	var resolved, expired, wrong atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < total; i += workers {
				req := &wire.Message{Type: wire.TRequest, Method: "drop"}
				if (i/workers)%100 == 0 { // a Call in every hundred exchanges
					_, err := sp.m.Call(req)
					resolved.Add(1)
					if errs.CodeOf(err) == errs.Expired {
						expired.Add(1)
					}
					continue
				}
				p, err := sp.m.Begin(req)
				if err != nil {
					wrong.Add(1)
					continue
				}
				var once atomic.Int32
				p.WhenDone(func() {
					if once.Add(1) != 1 {
						wrong.Add(1)
					}
					resolved.Add(1)
					if _, err := p.Reply(); errs.CodeOf(err) == errs.Expired {
						expired.Add(1)
					}
				})
			}
		}(w)
	}
	wg.Wait()
	limit := clock.After(clock.Real{}, 10*time.Second)
	for resolved.Load() < total {
		select {
		case <-limit:
			t.Fatalf("%d of %d exchanges resolved", resolved.Load(), total)
		default:
			clock.Sleep(clock.Real{}, 5*time.Millisecond)
		}
	}
	if wrong.Load() != 0 || expired.Load() != total {
		t.Fatalf("%d failed to begin or resolved twice; %d of %d expired", wrong.Load(), expired.Load(), total)
	}
	if n := sp.m.InFlight(); n != 0 {
		t.Fatalf("%d exchanges still pending", n)
	}
	for runtime.NumGoroutine() > baseline {
		select {
		case <-limit:
			t.Fatalf("%d goroutines, %d before the exchanges", runtime.NumGoroutine(), baseline)
		default:
			clock.Sleep(clock.Real{}, 5*time.Millisecond)
		}
	}

	// A late reply for an expired id is dropped: the next call gets its
	// own reply, and no exchange resolves a second time.
	if err := wire.Write(sp.far, &wire.Message{Type: wire.TReply, RequestID: last.Load(), Body: []byte("late")}); err != nil {
		t.Fatal(err)
	}
	sp.m.SetTimeout(5 * time.Second)
	reply, err := sp.m.Call(&wire.Message{Type: wire.TRequest, Method: "fresh"})
	if err != nil || string(reply.Body) != "own" {
		t.Fatalf("call after a late reply: %v, %v", reply, err)
	}
	if wrong.Load() != 0 || resolved.Load() != total {
		t.Fatal("the late reply resolved an exchange")
	}
}

// TestRecycleKeepsCallsApart: concurrent Calls on one mux recycle their
// exchanges while a server answers out of order (a random delay per
// request) and a short timeout expires some of them. Every caller gets
// back its own nonce, never a neighbour's: a reply for an expired id
// whose exchange now serves another call is dropped.
func TestRecycleKeepsCallsApart(t *testing.T) {
	shm := NewSHM()
	l, _ := shm.Listen("recycle")
	var seed atomic.Int64
	srv := Serve(l, func(m *wire.Message) *wire.Message {
		r := rand.New(rand.NewSource(seed.Add(1)))
		clock.Sleep(clock.Real{}, time.Duration(r.Intn(4000))*time.Microsecond)
		return echoHandler(m)
	})
	defer srv.Close()
	c, err := shm.Dial("recycle")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMux(c)
	defer m.Close()
	m.SetTimeout(2 * time.Millisecond)

	const callers, calls = 8, 150
	var ok, expired atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nonce := make([]byte, 8)
			for i := 0; i < calls; i++ {
				binary.BigEndian.PutUint32(nonce, uint32(g))
				binary.BigEndian.PutUint32(nonce[4:], uint32(i))
				reply, err := m.Call(&wire.Message{Type: wire.TRequest, Method: "nonce", Body: bytes.Clone(nonce)})
				switch {
				case err == nil && bytes.Equal(reply.Body, nonce):
					ok.Add(1)
				case err == nil:
					t.Errorf("caller %d call %d got %x, not its nonce %x", g, i, reply.Body, nonce)
					return
				case errs.CodeOf(err) == errs.Expired:
					expired.Add(1)
				default:
					t.Errorf("caller %d call %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if ok.Load() == 0 || expired.Load() == 0 {
		t.Fatalf("%d answered, %d expired: the run exercised one side only", ok.Load(), expired.Load())
	}
}
