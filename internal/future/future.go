// Package future provides the asynchronous invocation surface of the
// ORB: futures/promises for one in-flight remote method invocation,
// typed wrappers, and completion combinators.
//
// The paper's Nexus substrate is a one-way remote-service-request
// messaging layer (§2); the synchronous GlobalPtr.Invoke surface hides
// that. A Future re-exposes it: InvokeAsync returns immediately with a
// handle while the request is pipelined on the wire, so many small
// requests can be in flight per connection. Everything here is
// transport-agnostic — the core package resolves futures from its
// protocol completion paths, so a future issued through a glue
// capability chain behaves exactly like one issued over a bare
// protocol. A zero Future is usable: core embeds each invocation's in the
// one record that invocation allocates.
package future

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// outstanding counts futures handed out (New, or a zero one given a
// cancel hook) but not yet resolved, across the whole process. The introspection plane's /statusz reports it as the
// live async depth; a steadily climbing value with flat traffic is the
// classic leaked-future signature.
var outstanding atomic.Int64

// Outstanding reports how many futures are currently unresolved
// process-wide.
func Outstanding() int64 { return outstanding.Load() }

// ErrCanceled is the resolution error of a future abandoned with
// Cancel. The underlying request is not recalled from the wire — the
// reply, if any, is discarded by the completion path.
var ErrCanceled = errors.New("future: canceled")

// Future is the client-side handle on one asynchronous invocation. It
// resolves exactly once, with either a reply body or an error; all
// methods are safe for concurrent use by any number of goroutines.
//
// The zero value is an unresolved future, ready to embed in a producer's
// record; it counts in Outstanding from OnCancel on, a New one at once.
type Future struct {
	mu       sync.Mutex
	resolved bool
	counted  bool // in Outstanding until resolved
	body     []byte
	err      error
	done     chan struct{} // made by the first Done on an unresolved future, or closed
	onCancel Canceler
}

// Canceler is a producer's cancel hook: Canceled runs once, on the
// goroutine of the Cancel that resolved the future.
type Canceler interface{ Canceled() }

// closed is the Done of a future resolved before anyone asked for one.
var closed = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// New returns an unresolved future. The producer side (the ORB's
// completion path, or tests) resolves it with Complete or Fail.
func New() *Future {
	outstanding.Add(1)
	return &Future{counted: true}
}

// Resolved returns a future already resolved with body — useful for
// fast paths and tests.
func Resolved(body []byte) *Future {
	f := New()
	f.Complete(body)
	return f
}

// Failed returns a future already resolved with err.
func Failed(err error) *Future {
	f := New()
	f.Fail(err)
	return f
}

// Complete resolves the future with a reply body. It reports whether
// this call performed the resolution (false if already resolved).
func (f *Future) Complete(body []byte) bool {
	return f.resolve(body, nil)
}

// Fail resolves the future with an error. It reports whether this call
// performed the resolution.
func (f *Future) Fail(err error) bool {
	if err == nil {
		err = errors.New("future: Fail called with nil error")
	}
	return f.resolve(nil, err)
}

func (f *Future) resolve(body []byte, err error) bool {
	f.mu.Lock()
	if f.resolved {
		f.mu.Unlock()
		return false
	}
	f.resolved = true
	f.body, f.err = body, err
	if f.counted {
		outstanding.Add(-1)
	}
	if f.done == nil {
		f.done = closed
	} else {
		close(f.done)
	}
	f.mu.Unlock()
	return true
}

// OnCancel installs the producer's cancel hook before the future is
// handed out: if Cancel resolves the future, it calls c.Canceled() to
// release in-flight bookkeeping early. From here on the future counts in
// Outstanding. Installing after resolution is a no-op.
func (f *Future) OnCancel(c Canceler) {
	f.mu.Lock()
	if !f.resolved && !f.counted {
		outstanding.Add(1)
	}
	if !f.resolved {
		f.onCancel, f.counted = c, true
	}
	f.mu.Unlock()
}

// Cancel resolves the future with ErrCanceled, abandoning the
// invocation: the caller stops waiting, while the request already on
// the wire runs to completion on the server and its reply is dropped
// (the same at-most-once discipline as a timed-out synchronous call).
// It reports whether this call performed the resolution.
func (f *Future) Cancel() bool {
	if !f.resolve(nil, ErrCanceled) {
		return false
	}
	if f.onCancel != nil { // set before the future was handed out
		f.onCancel.Canceled()
	}
	return true
}

// Done returns a channel closed when the future resolves.
func (f *Future) Done() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done == nil {
		f.done = make(chan struct{})
	}
	return f.done
}

// Wait blocks until the future resolves and returns its reply body or
// error. The ORB resolves an invocation's future from whatever resolved
// its exchange — normally the connection's read loop, so the futures of
// one connection resolve in reply-arrival order and a waiter is woken by
// the reader itself, with no completion goroutine in between.
func (f *Future) Wait() ([]byte, error) {
	<-f.Done()
	return f.body, f.err
}

// WaitContext waits for resolution or context cancellation, whichever
// comes first. A context cancellation cancels the future (the request
// is abandoned, not recalled) and returns the context's error — unless
// the future had already resolved, whose result it then returns.
func (f *Future) WaitContext(ctx context.Context) ([]byte, error) {
	select {
	case <-f.Done():
	case <-ctx.Done():
		if f.Cancel() {
			return nil, ctx.Err()
		}
	}
	return f.Wait()
}

// Err blocks until the future resolves and returns its error (nil on
// success).
func (f *Future) Err() error {
	_, err := f.Wait()
	return err
}

// TryResult reports the resolution without blocking: ok is false while
// the future is still pending.
func (f *Future) TryResult() (body []byte, err error, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.body, f.err, f.resolved
}

// WaitAll waits for every future to resolve and returns the first
// error in argument order (nil if all succeeded). Unlike errgroup-style
// helpers it never abandons the stragglers — all requests run to
// completion, matching collective-call semantics.
func WaitAll(fs ...*Future) error {
	var first error
	for _, f := range fs {
		if f == nil {
			continue
		}
		if err := f.Err(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WaitAny blocks until at least one future resolves and returns its
// index (the lowest index if several are already resolved). It returns
// -1 for an empty set.
func WaitAny(fs ...*Future) int {
	if len(fs) == 0 {
		return -1
	}
	// Fast path: something already resolved.
	for i, f := range fs {
		if f == nil {
			continue
		}
		if _, _, ok := f.TryResult(); ok {
			return i
		}
	}
	winner := make(chan int, len(fs))
	for i, f := range fs {
		if f == nil {
			continue
		}
		// One short-lived goroutine per pending future; each exits as
		// soon as its future resolves.
		go func(i int, f *Future) {
			<-f.Done()
			winner <- i
		}(i, f)
	}
	return <-winner
}
