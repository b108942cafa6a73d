package core

import (
	"fmt"
	"sync"
	"time"
)

// Event records one adaptivity decision the runtime made: a protocol
// selection, a reference refresh after migration, an object move. The
// ring-buffered event log makes the ORB's "critical internal decisions"
// observable — the introspection half of Open Implementation.
type Event struct {
	Time   time.Time
	Kind   string // "select", "refresh", "invalidate", "move-out", "move-in"
	Object ObjectID
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("%s %-10s %-20s %s", e.Time.Format("15:04:05.000"), e.Kind, e.Object, e.Detail)
}

// eventLog is a fixed-capacity ring of events.
type eventLog struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	count int
}

const eventLogCapacity = 1024

func newEventLog() *eventLog {
	return &eventLog{buf: make([]Event, eventLogCapacity)}
}

func (l *eventLog) add(e Event) {
	l.mu.Lock()
	l.buf[l.next] = e
	l.next = (l.next + 1) % len(l.buf)
	if l.count < len(l.buf) {
		l.count++
	}
	l.mu.Unlock()
}

func (l *eventLog) list() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.count)
	start := l.next - l.count
	if start < 0 {
		start += len(l.buf)
	}
	for i := 0; i < l.count; i++ {
		out = append(out, l.buf[(start+i)%len(l.buf)])
	}
	return out
}

// Events returns the runtime's recorded adaptivity events, oldest
// first, up to the log's capacity.
func (rt *Runtime) Events() []Event { return rt.events.list() }

// recordEvent appends to the runtime's event log.
func (rt *Runtime) recordEvent(kind string, object ObjectID, detail string) {
	rt.events.add(Event{Time: rt.clock.Now(), Kind: kind, Object: object, Detail: detail})
}
