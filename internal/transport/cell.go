package transport

import (
	"sync"

	"openhpcxx/internal/wire"
)

// Cell is the resolution every pending of the transport and the ORB
// shares: a single-assignment reply/err (the first Resolve wins), a Done
// channel made only when asked for, and at most one continuation. No
// resolver sends on a channel, so none stalls on a caller that went
// away. The zero value is an unresolved cell.
type Cell struct {
	mu       sync.Mutex
	resolved bool
	reply    *wire.Message
	err      error
	then     func()
	done     chan struct{}
}

// Done implements Pending.
func (c *Cell) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.resolved {
			close(c.done)
		}
	}
	return c.done
}

// Reply implements Pending.
func (c *Cell) Reply() (*wire.Message, error) {
	c.mu.Lock()
	resolved := c.resolved
	c.mu.Unlock()
	if !resolved {
		<-c.Done()
	}
	return c.reply, c.err
}

// Resolve records the outcome unless one is in and reports whether it
// did; the winner runs the continuation, holding no lock.
func (c *Cell) Resolve(reply *wire.Message, err error) bool {
	c.mu.Lock()
	if c.resolved {
		c.mu.Unlock()
		return false
	}
	c.resolved, c.reply, c.err = true, reply, err
	done, then := c.done, c.then
	c.then = nil
	c.mu.Unlock()
	if done != nil {
		close(done)
	}
	if then != nil {
		then()
	}
	return true
}

// WhenDone runs fn exactly once when the cell has resolved; one
// registration per cell. fn runs on the goroutine that resolves it — a
// mux's read loop or deadline timer, the caller of Abandon — or here if it
// already has: under no transport lock, and never on a goroutine inside
// Begin, Post or Close, whose caller may hold locks. So fn is the ORB's
// short, non-blocking completion code, never a capability or a servant.
// DESIGN.md §4.9.
func (c *Cell) WhenDone(fn func()) {
	c.mu.Lock()
	if !c.resolved {
		c.then = fn
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	fn()
}

// Abandon gives up on the exchange: unless it is in, the outcome is
// ErrAbandoned, resolved here.
func (c *Cell) Abandon() { c.Resolve(nil, ErrAbandoned) }

// whenDone runs fn once a coalescer's send result has resolved: where it
// resolves for a cell, and on a goroutine for any other pending.
func whenDone(p Pending, fn func()) {
	if c, ok := p.(interface{ WhenDone(func()) }); ok {
		c.WhenDone(fn)
		return
	}
	go func() {
		<-p.Done()
		fn()
	}()
}
