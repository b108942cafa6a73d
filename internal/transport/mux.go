package transport

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"openhpcxx/internal/errs"
	"openhpcxx/internal/wire"
)

// ErrMuxClosed is returned by calls on a closed multiplexer.
var ErrMuxClosed = errors.New("transport: mux closed")

// DefaultCallTimeout bounds a single remote call when the Mux has no
// explicit timeout configured.
const DefaultCallTimeout = 30 * time.Second

// Pending is one in-flight request/reply exchange: a completion handle
// the caller waits on. The ORB's core.Pending adds Abandon and WhenDone,
// which PendingCall and Cell have, so protocol objects hand mux and
// coalescer pendings straight up the stack.
type Pending interface {
	// Done is closed when the exchange resolves (reply, transport
	// failure, timeout or abandonment).
	Done() <-chan struct{}
	// Reply returns the resolution. Calling it before Done is closed
	// blocks until resolution.
	Reply() (*wire.Message, error)
}

// Mux multiplexes concurrent request/reply exchanges over a single
// connection. It assigns request ids, serializes frame writes, and
// demultiplexes replies to the waiting callers. A Mux is safe for
// concurrent use; any number of exchanges may be in flight at once
// (request pipelining — the reply stream is matched by request id, not
// by order). One deadline timer serves every exchange's timeout, and a
// Call's exchange comes from a free list and goes back to it.
//
// Recycling needs no generation stamp: every resolver (read loop, timer,
// fail, failed write, Abandon) deletes the id from pending under mu before
// it resolves, and all but Abandon, which only Begin's never-recycled
// exchanges have, resolve only what they deleted. So a late reply for a
// recycled id finds nothing, and Cell's first-resolve-wins does the rest.
type Mux struct {
	conn  net.Conn
	epoch time.Time // deadlines are nanoseconds since epoch: monotonic

	wmu           sync.Mutex   // serializes frame writes
	writeDeadline atomic.Int64 // when the two-way write in progress (0: none) has stalled

	mu      sync.Mutex
	timeout time.Duration
	nextID  uint64
	pending map[uint64]*PendingCall
	free    []*PendingCall // recycled Call exchanges, at most maxFree
	timer   *time.Timer    // the deadline timer
	armed   atomic.Int64   // when timer fires (0: not armed); written under mu
	err     error
	closed  bool
}

// maxFree bounds the Call exchanges a mux keeps for callers to come. A
// write has stalled once it has run for its timeout and minStall both, so
// a short timeout does not take a descheduled writer for a deaf peer.
const (
	maxFree  = 64
	minStall = 250 * time.Millisecond
)

// NewMux wraps conn and starts its reply-reading loop.
func NewMux(conn net.Conn) *Mux {
	m := &Mux{
		conn:    conn,
		epoch:   time.Now(),
		timeout: DefaultCallTimeout,
		nextID:  1,
		pending: make(map[uint64]*PendingCall),
	}
	m.timer = time.AfterFunc(DefaultCallTimeout, m.expire)
	m.timer.Stop()
	go m.readLoop()
	return m
}

// SetTimeout changes the per-call timeout of exchanges begun from now
// on. Zero disables it.
func (m *Mux) SetTimeout(d time.Duration) {
	m.mu.Lock()
	m.timeout = d
	m.mu.Unlock()
}

// PendingCall is one in-flight exchange on a Mux: a Cell resolved by the
// first of {matched reply, connection failure, timeout, Abandon}.
type PendingCall struct {
	Cell
	m        *Mux
	id       uint64
	method   string        // for the timeout's error
	timeout  time.Duration // the mux's when the exchange began
	deadline int64         // on m's clock, 0 for none; guarded by m.mu
	wake     chan struct{} // a Call's, made once: signal, its continuation,
	signal   func()        // tells the caller waiting on wake it resolved
}

func (m *Mux) now() int64 { return int64(time.Since(m.epoch)) }

// ErrAbandoned resolves an exchange its owner gave up on.
var ErrAbandoned error = errs.New(errs.Canceled, "transport: call abandoned")

// Abandon gives up on the exchange: a late reply is dropped by the read
// loop, and the exchange resolves, here, with ErrAbandoned.
func (p *PendingCall) Abandon() {
	p.m.take(p.id)
	p.Resolve(nil, ErrAbandoned)
}

// take deletes id from pending and returns its exchange, if it was there.
func (m *Mux) take(id uint64) *PendingCall {
	m.mu.Lock()
	p := m.pending[id]
	delete(m.pending, id)
	m.mu.Unlock()
	return p
}

// armLocked makes the timer fire by deadline, re-arming it only for an
// earlier one. m.mu is held.
func (m *Mux) armLocked(deadline int64) {
	if a := m.armed.Load(); a != 0 && a <= deadline {
		return
	}
	m.armed.Store(deadline)
	m.timer.Reset(time.Duration(deadline - m.now()))
}

// expire is the deadline timer's pass: overdue exchanges resolve
// errs.Expired, a stalled write closes the connection (its frame is half
// written, and closing works on every fabric), and the timer is re-armed
// for the earliest deadline left.
func (m *Mux) expire() {
	now := m.now()
	var overdue []*PendingCall
	m.mu.Lock()
	m.armed.Store(0)
	next := m.writeDeadline.Load()
	stalled := next != 0 && next <= now
	if stalled {
		next = 0
	}
	for id, p := range m.pending {
		switch {
		case p.deadline == 0:
		case p.deadline <= now:
			delete(m.pending, id)
			overdue = append(overdue, p)
		case next == 0 || p.deadline < next:
			next = p.deadline
		}
	}
	if next != 0 {
		m.armLocked(next)
	}
	m.mu.Unlock()
	for _, p := range overdue {
		p.Resolve(nil, errs.Newf(errs.Expired, "transport: call %q timed out after %v", p.method, p.timeout))
	}
	if stalled {
		m.recordErr(errs.New(errs.Transport, "transport: write stalled past its call's timeout"))
		_ = m.conn.Close() // the stall is the error worth keeping
	}
}

func (m *Mux) readLoop() {
	for {
		msg, err := wire.Read(m.conn)
		if err != nil {
			m.fail(err)
			return
		}
		if p := m.take(msg.RequestID); p != nil {
			// Resolve never blocks (a Call's signal fills a one-slot
			// channel only this resolve may fill), so a caller that raced
			// an abandon with this delivery cannot stall the reader; the
			// continuation it runs is bound by Cell.WhenDone's contract.
			p.Resolve(msg, nil)
		} else {
			msg.Release() // a reply for an abandoned request is dropped
		}
	}
}

// recordErr notes the first underlying transport error so later
// Begin/Call/Post return the real cause (ECONNRESET, write failure)
// instead of a generic ErrMuxClosed, and so Healthy() turns false and
// pools re-dial. It does not resolve pendings — data already on the
// wire may still produce replies; the read loop settles those.
func (m *Mux) recordErr(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
}

// errLocked is why the mux cannot send, or nil. m.mu is held.
func (m *Mux) errLocked() error {
	if m.err == nil && m.closed {
		return ErrMuxClosed
	}
	return m.err
}

// fail is the read loop's last act: what is still pending fails.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	if err == io.EOF || m.closed {
		err = ErrMuxClosed
	}
	if m.err == nil {
		m.err = err
	}
	failed := make([]*PendingCall, 0, len(m.pending))
	for id, p := range m.pending {
		delete(m.pending, id)
		failed = append(failed, p)
	}
	err = m.err
	m.mu.Unlock()
	for _, p := range failed {
		p.Resolve(nil, err)
	}
}

// Begin sends msg (assigning its RequestID) and returns a completion
// handle without waiting for the reply — the request pipelining
// primitive. Any number of Begins may be outstanding; replies are
// demultiplexed by id. The mux's timeout (if any) applies to each
// pending exchange individually, and to its write: one that outlasts it
// (and minStall) closes the connection.
func (m *Mux) Begin(msg *wire.Message) (*PendingCall, error) {
	p, err := m.begin(msg, false)
	if p != nil && err != nil {
		_, err = p.Reply() // the first resolver's: a stalled write expired
		p = nil
	}
	return p, err
}

// begin registers an exchange for msg, a recycled one for a Call, and
// writes the frame. It returns no exchange when the mux cannot send, and
// the exchange, resolved, with the error when the write failed.
func (m *Mux) begin(msg *wire.Message, call bool) (*PendingCall, error) {
	now := m.now()
	m.mu.Lock()
	if err := m.errLocked(); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	var p *PendingCall
	if n := len(m.free); call && n > 0 {
		p, m.free = m.free[n-1], m.free[:n-1]
	} else {
		p = &PendingCall{m: m}
		if call {
			p.wake = make(chan struct{}, 1)
			p.signal = func() { p.wake <- struct{}{} }
			p.then = p.signal
		}
	}
	p.id, p.method, p.timeout, p.deadline = m.nextID, msg.Method, m.timeout, 0
	m.nextID++
	msg.RequestID = p.id
	m.pending[p.id] = p
	if p.timeout > 0 {
		p.deadline = now + int64(p.timeout)
		m.armLocked(p.deadline)
	}
	m.mu.Unlock()
	err := m.write(msg, p.timeout)
	if err != nil {
		// A frame the codec refused (wire.ErrTooLarge) will be refused
		// again: keep its code so the engine does not retry it as a blip.
		code := errs.CodeOf(err)
		if code == errs.Unknown {
			code = errs.Transport
		}
		if m.take(p.id) != nil {
			p.Resolve(nil, errs.Wrap(code, err, "transport: write"))
		}
	}
	return p, err
}

// write puts msg on the wire. A two-way write (timeout > 0) records when
// it counts as stalled and sees that a timer pass comes by then: the pass
// for its exchange's own deadline may have run already.
func (m *Mux) write(msg *wire.Message, timeout time.Duration) error {
	m.wmu.Lock()
	if timeout > 0 {
		wd := m.now() + int64(max(timeout, minStall))
		m.writeDeadline.Store(wd)
		if a := m.armed.Load(); a == 0 || a > wd {
			m.mu.Lock()
			m.armLocked(wd)
			m.mu.Unlock()
		}
	}
	err := wire.Write(m.conn, msg)
	m.writeDeadline.Store(0)
	m.wmu.Unlock()
	if err != nil {
		m.recordErr(err)
	}
	return err
}

// Call sends msg (assigning its RequestID) and waits for the matching
// reply. The returned message may be a TFault frame; decoding the fault
// is the caller's concern so that capability layers can inspect replies.
// The exchange is the mux's: it goes back to the free list once read.
func (m *Mux) Call(msg *wire.Message) (*wire.Message, error) {
	p, err := m.begin(msg, true)
	if p == nil {
		return nil, err
	}
	<-p.wake
	reply, err := p.reply, p.err
	// Its caller has the signal, so nothing else refers to the exchange
	// (see Mux): the cell is reset without its lock.
	p.resolved, p.reply, p.err, p.then = false, nil, nil, p.signal
	m.mu.Lock()
	if len(m.free) < maxFree {
		m.free = append(m.free, p)
	}
	m.mu.Unlock()
	return reply, err
}

// Post sends msg without awaiting any reply (one-way traffic). The
// message keeps whatever RequestID it carries; replies to that id, if a
// peer sends one anyway, are dropped by the read loop. The timeout does
// not bound a Post's write.
func (m *Mux) Post(msg *wire.Message) error {
	m.mu.Lock()
	err := m.errLocked()
	m.mu.Unlock()
	if err != nil {
		return err
	}
	return m.write(msg, 0)
}

// InFlight reports how many exchanges are currently pending.
func (m *Mux) InFlight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// Close tears down the connection; outstanding calls fail as the read
// loop sees it go, not on the closer's goroutine (see Cell.WhenDone).
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.timer.Stop()
	m.mu.Unlock()
	return m.conn.Close()
}

// Healthy reports whether the mux can still issue calls.
func (m *Mux) Healthy() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.errLocked() == nil
}
