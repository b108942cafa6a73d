package netsim

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"openhpcxx/internal/clock"
)

// echoListener accepts connections and echoes bytes until the listener
// or connection dies.
func echoListener(t *testing.T, n *Network, m MachineID) (*Listener, Addr) {
	t.Helper()
	l, err := n.Listen(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	return l, l.Addr().(Addr)
}

func roundTrip(c *Conn, payload string) error {
	if _, err := c.Write([]byte(payload)); err != nil {
		return err
	}
	buf := make([]byte, len(payload))
	if _, err := io.ReadFull(c, buf); err != nil {
		return err
	}
	if !bytes.Equal(buf, []byte(payload)) {
		return errors.New("echo mismatch")
	}
	return nil
}

func TestCrashResetsConnsAndBlocksDials(t *testing.T) {
	n := buildTopology(t)
	_, addr := echoListener(t, n, "m1")

	c, err := n.Dial("m0", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := roundTrip(c, "ping"); err != nil {
		t.Fatal(err)
	}

	n.Crash("m1")
	if !n.Down("m1") {
		t.Fatal("crashed machine not reported down")
	}
	// The established connection dies abnormally on both ends.
	if _, err := c.Write([]byte("dead")); err == nil {
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err == nil {
			t.Fatal("read from crashed peer succeeded")
		}
	}
	// New dials to the dead machine fail, as do listens on it.
	if _, err := n.Dial("m0", addr); err == nil {
		t.Fatal("dial to crashed machine succeeded")
	}
	if _, err := n.Listen("m1", 0); err == nil {
		t.Fatal("listen on crashed machine succeeded")
	}
}

func TestRestartRequiresRebind(t *testing.T) {
	n := buildTopology(t)
	_, addr := echoListener(t, n, "m1")

	n.Crash("m1")
	n.Restart("m1")
	if n.Down("m1") {
		t.Fatal("restarted machine still down")
	}
	// The old listener stayed dead: the process must re-bind.
	if _, err := n.Dial("m0", addr); err == nil {
		t.Fatal("dial succeeded without a re-bind")
	}
	// Re-binding the same port works after restart.
	l2, err := n.Listen("m1", addr.Port)
	if err != nil {
		t.Fatalf("re-bind after restart: %v", err)
	}
	go func() {
		c, err := l2.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	c, err := n.Dial("m0", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := roundTrip(c, "back"); err != nil {
		t.Fatal(err)
	}
}

func TestConnFailDeliversError(t *testing.T) {
	n := buildTopology(t)
	_, addr := echoListener(t, n, "m1")
	c, err := n.Dial("m0", addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Fail(ErrConnReset)
	buf := make([]byte, 1)
	if _, err := c.Read(buf); !errors.Is(err, ErrConnReset) {
		t.Fatalf("read error = %v, want ErrConnReset", err)
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrConnReset) {
		t.Fatalf("write error = %v, want ErrConnReset", err)
	}
}

func TestBlackholeStallsThenHeals(t *testing.T) {
	n := buildTopology(t)
	_, addr := echoListener(t, n, "m1")
	c, err := n.Dial("m0", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := roundTrip(c, "warm"); err != nil {
		t.Fatal(err)
	}

	n.SetBlackhole("m0", "m1", true)
	if _, err := c.Write([]byte("hole")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err == nil {
		t.Fatal("read through a blackhole succeeded")
	}
	c.SetReadDeadline(time.Time{})

	// Healing releases the queued traffic: the echo arrives.
	n.SetBlackhole("m0", "m1", false)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if string(buf) != "hole" {
		t.Fatalf("echo after heal = %q", buf)
	}
}

func TestSetLinkDelayAddsLatency(t *testing.T) {
	n := buildTopology(t)
	_, addr := echoListener(t, n, "m1")
	c, err := n.Dial("m0", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := roundTrip(c, "warm"); err != nil {
		t.Fatal(err)
	}

	const extra = 40 * time.Millisecond
	n.SetLinkDelay("m0", "m1", extra)
	start := time.Now()
	if err := roundTrip(c, "slow"); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < extra {
		t.Fatalf("round trip took %v, want >= %v of injected delay", got, extra)
	}
	// Healing removes the injected latency again.
	n.SetLinkDelay("m0", "m1", 0)
	start = time.Now()
	if err := roundTrip(c, "fast"); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got > extra {
		t.Fatalf("round trip after heal took %v", got)
	}
}

func TestFaultPlanRunsInOrder(t *testing.T) {
	n := buildTopology(t)
	var order []string
	record := func(name string) func(*Network) {
		return func(*Network) { order = append(order, name) }
	}
	plan := new(FaultPlan)
	// Added out of order; Run sorts by At.
	plan.Add(20*time.Millisecond, "second", record("second"))
	plan.Add(5*time.Millisecond, "first", record("first"))
	plan.Add(35*time.Millisecond, "third", record("third"))
	run := plan.Run(n)
	run.Wait()
	if len(order) != 3 || order[0] != "first" || order[1] != "second" || order[2] != "third" {
		t.Fatalf("events fired as %v", order)
	}
}

// TestFaultPlanScheduleMatchesRun: the rendered schedule is one line per
// event, At-ordered (ties in insertion order) — the order Run fires them
// in, here on a fake clock advanced past the whole plan at once.
func TestFaultPlanScheduleMatchesRun(t *testing.T) {
	n := buildTopology(t)
	var fired []string
	plan := new(FaultPlan)
	for _, ev := range []struct {
		at   time.Duration
		name string
	}{{300 * time.Millisecond, "restart m1"}, {100 * time.Millisecond, "crash m1"}, {300 * time.Millisecond, "heal m1/m2"}, {1500 * time.Microsecond, "partition m1/m2"}} {
		name := ev.name
		plan.Add(ev.at, name, func(*Network) { fired = append(fired, name) })
	}
	want := []string{
		"   2ms  partition m1/m2",
		" 100ms  crash m1",
		" 300ms  restart m1",
		" 300ms  heal m1/m2",
	}
	got := plan.Schedule()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("schedule rendered as\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	fake := clock.NewFake(time.Unix(1000, 0))
	run := plan.SetClock(fake).Run(n)
	for fake.Waiters() == 0 {
		runtime.Gosched()
	}
	fake.Advance(time.Hour)
	run.Wait()
	if len(fired) != len(got) {
		t.Fatalf("%d events fired for %d schedule lines", len(fired), len(got))
	}
	for i, name := range fired {
		if !strings.HasSuffix(got[i], "  "+name) {
			t.Fatalf("event %d fired %q, schedule line %q", i, name, got[i])
		}
	}
}

func TestFaultPlanStopCancelsPending(t *testing.T) {
	n := buildTopology(t)
	fired := make(chan struct{}, 1)
	plan := new(FaultPlan)
	plan.Add(time.Hour, "never", func(*Network) { fired <- struct{}{} })
	run := plan.Run(n)
	run.Stop()
	select {
	case <-fired:
		t.Fatal("cancelled event fired")
	default:
	}
}

func TestFaultPlanCrashRestartSchedule(t *testing.T) {
	n := buildTopology(t)
	_, addr := echoListener(t, n, "m1")

	rebound := make(chan struct{})
	plan := new(FaultPlan)
	plan.CrashAt(5*time.Millisecond, "m1")
	plan.RestartAt(25*time.Millisecond, "m1", func() {
		if _, err := n.Listen("m1", addr.Port); err == nil {
			close(rebound)
		}
	})
	run := plan.Run(n)
	run.Wait()
	if n.Down("m1") {
		t.Fatal("machine still down after schedule")
	}
	select {
	case <-rebound:
	default:
		t.Fatal("restart hook did not re-bind")
	}
}
