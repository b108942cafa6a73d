package future

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"openhpcxx/internal/clock"
)

func TestCompleteResolvesOnce(t *testing.T) {
	f := New()
	if _, _, ok := f.TryResult(); ok {
		t.Fatal("fresh future reports resolved")
	}
	if !f.Complete([]byte("hi")) {
		t.Fatal("first Complete returned false")
	}
	if f.Complete([]byte("again")) || f.Fail(errors.New("x")) || f.Cancel() {
		t.Fatal("second resolution succeeded")
	}
	body, err := f.Wait()
	if err != nil || string(body) != "hi" {
		t.Fatalf("Wait = %q, %v", body, err)
	}
	select {
	case <-f.Done():
	default:
		t.Fatal("Done not closed after resolution")
	}
}

func TestFailAndErr(t *testing.T) {
	want := errors.New("boom")
	f := Failed(want)
	if err := f.Err(); !errors.Is(err, want) {
		t.Fatalf("Err = %v, want %v", err, want)
	}
	if _, err, ok := f.TryResult(); !ok || !errors.Is(err, want) {
		t.Fatalf("TryResult = %v, %v", err, ok)
	}
}

// hook is a Canceler that counts its calls.
type hook struct{ ran int }

func (h *hook) Canceled() { h.ran++ }

func TestCancelRunsHook(t *testing.T) {
	f := New()
	h := new(hook)
	f.OnCancel(h)
	if !f.Cancel() {
		t.Fatal("Cancel returned false")
	}
	if h.ran != 1 {
		t.Fatalf("cancel hook ran %d times", h.ran)
	}
	if err := f.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Err = %v, want ErrCanceled", err)
	}
	// Cancel after completion must not fire the hook.
	g := Resolved(nil)
	late := new(hook)
	g.OnCancel(late)
	if g.Cancel() || late.ran != 0 {
		t.Fatalf("Cancel on a resolved future: hook ran %d times", late.ran)
	}
}

// TestZeroFutureIsUsable: a zero Future is unresolved, resolves once,
// and counts in Outstanding only once its producer installs a hook.
func TestZeroFutureIsUsable(t *testing.T) {
	before := Outstanding()
	var f Future
	if _, _, ok := f.TryResult(); ok {
		t.Fatal("zero future reports resolved")
	}
	f.OnCancel(new(hook))
	if got := Outstanding() - before; got != 1 {
		t.Fatalf("Outstanding grew by %d with one hooked zero future", got)
	}
	go f.Complete([]byte("late"))
	if body, err := f.Wait(); err != nil || string(body) != "late" {
		t.Fatalf("Wait = %q, %v", body, err)
	}
	<-f.Done()
	if got := Outstanding() - before; got != 0 {
		t.Fatalf("Outstanding off by %d after resolution", got)
	}
	var bare Future
	bare.Fail(errors.New("x"))
	<-bare.Done()
	if got := Outstanding() - before; got != 0 {
		t.Fatalf("an unhooked zero future moved Outstanding by %d", got)
	}
}

// TestRoundTripAllocs: New, Complete and Wait allocate the future and
// nothing else — no Done channel that nobody waits on.
func TestRoundTripAllocs(t *testing.T) {
	body := []byte("small")
	if n := testing.AllocsPerRun(1000, func() {
		f := New()
		f.Complete(body)
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("New → Complete → Wait: %v allocs, want at most 1", n)
	}
}

// TestWaitContextKeepsAnArrivedResult: with the future already resolved
// and the context already done, WaitContext returns the result; the
// Cancel it tries loses, so the result stands. Before, the select picked
// the context about half the time and reported a call the server ran as
// canceled.
func TestWaitContextKeepsAnArrivedResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 1000; i++ {
		body, err := Resolved([]byte("ran")).WaitContext(ctx)
		if err != nil || string(body) != "ran" {
			t.Fatalf("round %d: WaitContext = %q, %v", i, body, err)
		}
	}
}

func TestWaitContext(t *testing.T) {
	f := New()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := f.WaitContext(ctx)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitContext = %v, want context.Canceled", err)
	}
	// The context cancellation abandoned the future.
	if err := f.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("future err = %v, want ErrCanceled", err)
	}

	g := Resolved([]byte("ok"))
	body, err := g.WaitContext(context.Background())
	if err != nil || string(body) != "ok" {
		t.Fatalf("WaitContext = %q, %v", body, err)
	}
}

func TestWaitAll(t *testing.T) {
	a, b, c := New(), New(), New()
	errB := errors.New("b failed")
	go func() {
		clock.Sleep(clock.Real{}, time.Millisecond)
		a.Complete(nil)
		b.Fail(errB)
		c.Fail(errors.New("c failed"))
	}()
	if err := WaitAll(a, b, c); !errors.Is(err, errB) {
		t.Fatalf("WaitAll = %v, want first error %v", err, errB)
	}
	if err := WaitAll(a, nil); err != nil {
		t.Fatalf("WaitAll with nil entry = %v", err)
	}
}

func TestWaitAny(t *testing.T) {
	if got := WaitAny(); got != -1 {
		t.Fatalf("WaitAny() = %d, want -1", got)
	}
	a, b := New(), New()
	go func() {
		clock.Sleep(clock.Real{}, time.Millisecond)
		b.Complete([]byte("b"))
	}()
	if got := WaitAny(a, b); got != 1 {
		t.Fatalf("WaitAny = %d, want 1", got)
	}
	a.Complete(nil)
	// Fast path: both resolved, lowest index wins.
	if got := WaitAny(a, b); got != 0 {
		t.Fatalf("WaitAny fast path = %d, want 0", got)
	}
}

func TestConcurrentWaiters(t *testing.T) {
	f := New()
	const waiters = 32
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f.Err()
		}(i)
	}
	f.Complete([]byte("x"))
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
}

func ExampleWaitAll() {
	a := Resolved([]byte("one"))
	b := Resolved([]byte("two"))
	if err := WaitAll(a, b); err == nil {
		bodyA, _ := a.Wait()
		bodyB, _ := b.Wait()
		fmt.Println(string(bodyA), string(bodyB))
	}
	// Output: one two
}
