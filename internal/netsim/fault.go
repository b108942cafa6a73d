package netsim

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"openhpcxx/internal/clock"
)

// ErrConnReset is the error observed on connections torn down by a
// simulated machine crash — the analog of ECONNRESET on a real network.
var ErrConnReset = errors.New("netsim: connection reset by peer")

// DirFault is the live fault state of one direction of a link: extra
// injected latency and an optional blackhole that silently eats traffic.
// It is shared between the Network (which mutates it via SetLinkDelay /
// SetBlackhole) and the halfPipes of established connections (which
// consult it on every delivery), so injected faults apply to traffic
// already in flight, not just to future dials.
type DirFault struct {
	mu        sync.Mutex
	extraLat  time.Duration
	blackhole bool
}

func (d *DirFault) extra() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.extraLat
}

func (d *DirFault) blackholed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.blackhole
}

func (d *DirFault) setExtra(e time.Duration) {
	d.mu.Lock()
	d.extraLat = e
	d.mu.Unlock()
}

func (d *DirFault) setBlackhole(on bool) {
	d.mu.Lock()
	d.blackhole = on
	d.mu.Unlock()
}

// dirFaultLocked returns the fault state for the from→to direction,
// creating it on first use. Caller holds n.mu.
func (n *Network) dirFaultLocked(from, to MachineID) *DirFault {
	k := dgramKey{from, to}
	d, ok := n.linkFaults[k]
	if !ok {
		d = new(DirFault)
		n.linkFaults[k] = d
	}
	return d
}

// SetLinkDelay injects extra one-way latency from `from` to `to` on top
// of the link profile. It applies to established connections as well as
// new ones; pass 0 to heal.
func (n *Network) SetLinkDelay(from, to MachineID, extra time.Duration) {
	n.mu.Lock()
	d := n.dirFaultLocked(from, to)
	n.mu.Unlock()
	d.setExtra(extra)
}

// SetBlackhole makes the from→to direction silently swallow traffic
// while on: data stays "in flight" and is delivered once the hole heals,
// modeling a router that queues or a path that drops without resetting.
func (n *Network) SetBlackhole(from, to MachineID, on bool) {
	n.mu.Lock()
	d := n.dirFaultLocked(from, to)
	n.mu.Unlock()
	d.setBlackhole(on)
}

// Crash kills a machine: every listener on it closes, every established
// connection touching it dies abnormally with ErrConnReset (both ends
// observe the reset, like a peer's kernel answering for a dead process),
// and new listens/dials involving it fail until Restart.
func (n *Network) Crash(m MachineID) {
	n.mu.Lock()
	n.down[m] = true
	var doomedL []*Listener
	for a, l := range n.listeners {
		if a.Machine == m {
			doomedL = append(doomedL, l)
		}
	}
	var doomedC []*Conn
	for c, ends := range n.conns {
		if ends.a == m || ends.b == m {
			doomedC = append(doomedC, c)
		}
	}
	n.mu.Unlock()
	// Close/Fail outside the lock: both paths re-enter the Network via
	// removeListener / onClose.
	for _, l := range doomedL {
		l.Close()
	}
	for _, c := range doomedC {
		c.Fail(ErrConnReset)
	}
}

// Restart brings a crashed machine back: listens and dials involving it
// succeed again. Listeners and connections killed by the crash stay
// dead — processes must re-bind and re-dial, as after a real reboot.
func (n *Network) Restart(m MachineID) {
	n.mu.Lock()
	delete(n.down, m)
	n.mu.Unlock()
}

// Down reports whether the machine is currently crashed.
func (n *Network) Down(m MachineID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down[m]
}

// FaultEvent is one scheduled action in a FaultPlan: at offset At from
// the run's start, Do fires (crash, restart, partition, delay, ...).
type FaultEvent struct {
	At   time.Duration
	Name string
	Do   func(n *Network)
}

// FaultPlan is a scriptable schedule of fault events, so experiments can
// declare "crash B at 200ms, restart it at 600ms, partition A–C from
// 800ms to 1s" and replay the schedule deterministically.
type FaultPlan struct {
	events []FaultEvent
	// clk paces the schedule when Run executes it. Nil means the real
	// clock (the netsim shapes traffic in real time); SetClock injects a
	// fake for tests that drive the schedule manually.
	clk clock.Clock
}

// SetClock injects the clock that paces Run's event schedule; the
// default is the real clock.
func (p *FaultPlan) SetClock(clk clock.Clock) *FaultPlan {
	p.clk = clk
	return p
}

// Add appends an arbitrary event.
func (p *FaultPlan) Add(at time.Duration, name string, do func(n *Network)) *FaultPlan {
	p.events = append(p.events, FaultEvent{At: at, Name: name, Do: do})
	return p
}

// CrashAt schedules a machine crash.
func (p *FaultPlan) CrashAt(at time.Duration, m MachineID) *FaultPlan {
	return p.Add(at, "crash "+string(m), func(n *Network) { n.Crash(m) })
}

// RestartAt schedules a machine restart. The optional hook runs after
// the network marks the machine up — the place to re-bind listeners,
// modeling the process supervisor bringing services back.
func (p *FaultPlan) RestartAt(at time.Duration, m MachineID, hook func()) *FaultPlan {
	return p.Add(at, "restart "+string(m), func(n *Network) {
		n.Restart(m)
		if hook != nil {
			hook()
		}
	})
}

// PartitionAt schedules severing connectivity between two machines.
func (p *FaultPlan) PartitionAt(at time.Duration, a, b MachineID) *FaultPlan {
	return p.Add(at, "partition "+string(a)+"/"+string(b), func(n *Network) { n.SetPartition(a, b, true) })
}

// HealAt schedules healing a partition.
func (p *FaultPlan) HealAt(at time.Duration, a, b MachineID) *FaultPlan {
	return p.Add(at, "heal "+string(a)+"/"+string(b), func(n *Network) { n.SetPartition(a, b, false) })
}

// DelayAt schedules injecting extra one-way latency.
func (p *FaultPlan) DelayAt(at time.Duration, from, to MachineID, extra time.Duration) *FaultPlan {
	return p.Add(at, "delay "+string(from)+"->"+string(to), func(n *Network) { n.SetLinkDelay(from, to, extra) })
}

// BlackholeAt schedules turning a one-direction blackhole on or off.
func (p *FaultPlan) BlackholeAt(at time.Duration, from, to MachineID, on bool) *FaultPlan {
	return p.Add(at, "blackhole "+string(from)+"->"+string(to), func(n *Network) { n.SetBlackhole(from, to, on) })
}

// FlapAt schedules a link flap: partition at `at`, heal after `down`.
func (p *FaultPlan) FlapAt(at time.Duration, a, b MachineID, down time.Duration) *FaultPlan {
	p.PartitionAt(at, a, b)
	return p.HealAt(at+down, a, b)
}

// ordered returns the events in firing order: by At, ties in the order
// they were added.
func (p *FaultPlan) ordered() []FaultEvent {
	evs := make([]FaultEvent, len(p.events))
	copy(evs, p.events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// Schedule renders the plan for a report: one "offset  name" line per
// event, in the order Run fires them.
func (p *FaultPlan) Schedule() []string {
	var lines []string
	for _, ev := range p.ordered() {
		lines = append(lines, fmt.Sprintf("%6v  %s", ev.At.Round(time.Millisecond), ev.Name))
	}
	return lines
}

// FaultRun is an executing FaultPlan.
type FaultRun struct {
	done chan struct{}
	stop chan struct{}
	once sync.Once
}

// Run starts executing the plan against n in a background goroutine,
// firing events in At order relative to now. The netsim shapes traffic
// in real time, so the schedule runs on the wall clock too.
func (p *FaultPlan) Run(n *Network) *FaultRun {
	evs := p.ordered()
	r := &FaultRun{done: make(chan struct{}), stop: make(chan struct{})}
	clk := p.clk
	if clk == nil {
		clk = clock.Real{}
	}
	start := clk.Now()
	go func() {
		defer close(r.done)
		for _, ev := range evs {
			wait := ev.At - clk.Now().Sub(start)
			if wait > 0 {
				select {
				case <-clock.After(clk, wait):
				case <-r.stop:
					return
				}
			} else {
				select {
				case <-r.stop:
					return
				default:
				}
			}
			ev.Do(n)
		}
	}()
	return r
}

// Wait blocks until every scheduled event has fired (or Stop was called).
func (r *FaultRun) Wait() { <-r.done }

// Stop cancels events that have not fired yet.
func (r *FaultRun) Stop() {
	r.once.Do(func() { close(r.stop) })
	<-r.done
}
