package registry

import (
	"sync"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/core"
	"openhpcxx/internal/xdr"
)

// eventLog collects notify events concurrency-safely.
type eventLog struct {
	mu  sync.Mutex
	evs []Event
}

func (l *eventLog) add(e Event) {
	l.mu.Lock()
	l.evs = append(l.evs, e)
	l.mu.Unlock()
}

func (l *eventLog) snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.evs...)
}

func (l *eventLog) count(k EventKind, name string) int {
	n := 0
	for _, e := range l.snapshot() {
		if e.Kind == k && e.Name == name {
			n++
		}
	}
	return n
}

// invoke runs one servant method on a service directly, marshaling the
// arguments — the sweeper tests need no network.
func invoke[Req xdr.Marshaler](t *testing.T, svc *Service, method string, req Req) error {
	t.Helper()
	args, err := xdr.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Methods(svc)[method](args)
	return err
}

func encodedRef(t *testing.T, obj string) []byte {
	t.Helper()
	blob, err := core.EncodeRef(sampleRef(obj))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestSweeperPrunesExpiredLeasesInBackground(t *testing.T) {
	fc := clock.NewFake(time.Unix(10_000, 0))
	svc := NewServiceWithClock(fc)
	log := new(eventLog)
	svc.SetNotify(log.add)
	svc.BindDirect("leased", encodedRef(t, "a/1"), time.Second)
	svc.BindDirect("forever", encodedRef(t, "a/2"), 0)
	svc.StartSweeper(100 * time.Millisecond)
	defer svc.Close()

	// Nobody touches the table; the sweeper alone must evict the lease
	// once simulated time passes it.
	deadline := time.Now().Add(5 * time.Second)
	for log.count(EventExpire, "leased") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweeper never pruned the expired lease")
		}
		fc.Advance(100 * time.Millisecond)
		clock.Sleep(clock.Real{}, time.Millisecond)
	}
	total, leased := svc.Counts()
	if total != 1 || leased != 0 {
		t.Fatalf("counts after sweep = (%d, %d), want (1, 0)", total, leased)
	}
}

func TestCloseStopsSweeperAndIsIdempotent(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	svc := NewServiceWithClock(fc)
	svc.StartSweeper(50 * time.Millisecond)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// The stopped sweeper's armed timer is abandoned, not cancelled;
	// advancing past it flushes the buffered channel out of the waiter
	// list so the next assertion sees a clean clock.
	fc.Advance(time.Second)
	if n := fc.Waiters(); n != 0 {
		t.Fatalf("stale waiters after flush: %d", n)
	}
	// Starting after Close must not leak a new goroutine; the waiter
	// count on the fake clock stays zero.
	svc.StartSweeper(50 * time.Millisecond)
	clock.Sleep(clock.Real{}, 5*time.Millisecond)
	if n := fc.Waiters(); n != 0 {
		t.Fatalf("sweeper armed after Close: %d waiters", n)
	}
}

func TestBindEventSemantics(t *testing.T) {
	fc := clock.NewFake(time.Unix(10_000, 0))
	svc := NewServiceWithClock(fc)
	log := new(eventLog)
	svc.SetNotify(log.add)
	refA, refB := encodedRef(t, "a/1"), encodedRef(t, "a/2")

	// A fresh bind is churn.
	if err := invoke(t, svc, "bind", &BindArgs{Name: "n", Ref: refA, TTLNanos: int64(time.Minute)}); err != nil {
		t.Fatal(err)
	}
	if got := log.count(EventBind, "n"); got != 1 {
		t.Fatalf("fresh bind fired %d events", got)
	}
	// A heartbeat rebind (same ref) refreshes the lease silently.
	if err := invoke(t, svc, "bind", &BindArgs{Name: "n", Ref: refA, Overwrite: true, TTLNanos: int64(time.Minute)}); err != nil {
		t.Fatal(err)
	}
	if got := log.count(EventBind, "n"); got != 1 {
		t.Fatalf("heartbeat rebind fired an event (%d total)", got)
	}
	// Rebinding to a different ref is churn again.
	if err := invoke(t, svc, "bind", &BindArgs{Name: "n", Ref: refB, Overwrite: true, TTLNanos: int64(time.Minute)}); err != nil {
		t.Fatal(err)
	}
	if got := log.count(EventBind, "n"); got != 2 {
		t.Fatalf("changed rebind fired %d events, want 2", got)
	}
	// Unbind tombstones.
	if err := invoke(t, svc, "unbind", &core.StringValue{V: "n"}); err != nil {
		t.Fatal(err)
	}
	if got := log.count(EventUnbind, "n"); got != 1 {
		t.Fatalf("unbind fired %d events", got)
	}
}

func TestLazyExpiryOnLookupFiresExpireEvent(t *testing.T) {
	fc := clock.NewFake(time.Unix(10_000, 0))
	svc := NewServiceWithClock(fc)
	log := new(eventLog)
	svc.SetNotify(log.add)
	if err := invoke(t, svc, "bind", &BindArgs{Name: "n", Ref: encodedRef(t, "a/1"), TTLNanos: int64(time.Second)}); err != nil {
		t.Fatal(err)
	}
	fc.Advance(2 * time.Second)
	if err := invoke(t, svc, "lookup", &core.StringValue{V: "n"}); err == nil {
		t.Fatal("lookup of expired binding succeeded")
	}
	if got := log.count(EventExpire, "n"); got != 1 {
		t.Fatalf("lazy expiry fired %d events", got)
	}
	if total, leased := svc.Counts(); total != 0 || leased != 0 {
		t.Fatalf("counts = (%d, %d) after lazy expiry", total, leased)
	}
}

func TestCountsTrackLeases(t *testing.T) {
	fc := clock.NewFake(time.Unix(10_000, 0))
	svc := NewServiceWithClock(fc)
	if err := invoke(t, svc, "bind", &BindArgs{Name: "a", Ref: encodedRef(t, "a/1"), TTLNanos: int64(time.Minute)}); err != nil {
		t.Fatal(err)
	}
	if err := invoke(t, svc, "bind", &BindArgs{Name: "b", Ref: encodedRef(t, "a/2")}); err != nil {
		t.Fatal(err)
	}
	if total, leased := svc.Counts(); total != 2 || leased != 1 {
		t.Fatalf("counts = (%d, %d), want (2, 1)", total, leased)
	}
	// Renewing an unleased binding gives it a lease.
	if err := invoke(t, svc, "renew", &renewArgs{Name: "b", TTLNanos: int64(time.Minute)}); err != nil {
		t.Fatal(err)
	}
	if total, leased := svc.Counts(); total != 2 || leased != 2 {
		t.Fatalf("counts after renew = (%d, %d), want (2, 2)", total, leased)
	}
	if err := invoke(t, svc, "unbind", &core.StringValue{V: "a"}); err != nil {
		t.Fatal(err)
	}
	if total, leased := svc.Counts(); total != 1 || leased != 1 {
		t.Fatalf("counts after unbind = (%d, %d), want (1, 1)", total, leased)
	}
	// Restore recomputes the lease count from the snapshot.
	snap, err := svc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewServiceWithClock(fc)
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if total, leased := fresh.Counts(); total != 1 || leased != 1 {
		t.Fatalf("counts after restore = (%d, %d), want (1, 1)", total, leased)
	}
}

func TestServeSweeperStopsWithContext(t *testing.T) {
	rt, _, _ := setup(t)
	ctx, _ := rt.Context("registry")
	sv, ok := ctx.Servant(WellKnownObject)
	if !ok {
		t.Fatal("registry servant missing")
	}
	svc := sv.Impl().(*Service)
	ctx.Close()
	// After the context closes, the sweeper must be stopped: Close has
	// run, so a (second) Close returns immediately instead of waiting on
	// a live loop.
	done := make(chan struct{})
	go func() {
		_ = svc.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-clock.After(clock.Real{}, 2*time.Second):
		t.Fatal("sweeper still running after context close")
	}
}
