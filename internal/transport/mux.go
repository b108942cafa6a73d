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
// by order).
type Mux struct {
	conn    net.Conn
	timeout time.Duration

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*PendingCall
	err     error
	closed  bool
}

// NewMux wraps conn and starts its reply-reading loop.
func NewMux(conn net.Conn) *Mux {
	m := &Mux{
		conn:    conn,
		timeout: DefaultCallTimeout,
		nextID:  1,
		pending: make(map[uint64]*PendingCall),
	}
	go m.readLoop()
	return m
}

// SetTimeout changes the per-call timeout. Zero disables it.
func (m *Mux) SetTimeout(d time.Duration) {
	m.mu.Lock()
	m.timeout = d
	m.mu.Unlock()
}

// PendingCall is one in-flight exchange on a Mux: a Cell resolved by the
// first of {matched reply, connection failure, timeout, Abandon}.
type PendingCall struct {
	Cell
	m  *Mux
	id uint64
	// timer is the timeout watchdog; atomic because it is armed after
	// the read loop can see the pending. One that escapes the Stop fires
	// harmlessly: forget and resolve are both idempotent.
	timer atomic.Pointer[time.Timer]
}

func (p *PendingCall) resolve(reply *wire.Message, err error) {
	if t := p.timer.Load(); t != nil {
		t.Stop()
	}
	p.Resolve(reply, err)
}

// ErrAbandoned resolves an exchange its owner gave up on.
var ErrAbandoned error = errs.New(errs.Canceled, "transport: call abandoned")

// Abandon gives up on the exchange: a late reply is dropped by the read
// loop, and the exchange resolves, here, with ErrAbandoned.
func (p *PendingCall) Abandon() {
	p.m.forget(p.id)
	p.resolve(nil, ErrAbandoned)
}

func (m *Mux) forget(id uint64) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
}

func (m *Mux) readLoop() {
	for {
		msg, err := wire.Read(m.conn)
		if err != nil {
			m.fail(err)
			return
		}
		m.mu.Lock()
		p, ok := m.pending[msg.RequestID]
		if ok {
			delete(m.pending, msg.RequestID)
		}
		m.mu.Unlock()
		if ok {
			// resolve never blocks (no channel send), so a caller that
			// raced an abandon with this delivery cannot stall the reader;
			// the continuation it runs is bound by Cell.WhenDone's contract.
			p.resolve(msg, nil)
		}
		// Replies for abandoned requests are dropped.
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
		p.resolve(nil, err)
	}
}

// Begin sends msg (assigning its RequestID) and returns a completion
// handle without waiting for the reply — the request pipelining
// primitive. Any number of Begins may be outstanding; replies are
// demultiplexed by id. The mux's timeout (if any) applies to each
// pending exchange individually.
func (m *Mux) Begin(msg *wire.Message) (*PendingCall, error) {
	m.mu.Lock()
	if m.closed || m.err != nil {
		err := m.err
		m.mu.Unlock()
		if err == nil {
			err = ErrMuxClosed
		}
		return nil, err
	}
	id := m.nextID
	m.nextID++
	msg.RequestID = id
	p := &PendingCall{m: m, id: id}
	m.pending[id] = p
	timeout := m.timeout
	m.mu.Unlock()

	m.wmu.Lock()
	err := wire.Write(m.conn, msg)
	m.wmu.Unlock()
	if err != nil {
		m.recordErr(err)
		m.forget(id)
		// A frame the codec refused (wire.ErrTooLarge) will be refused
		// again: keep its code so the engine does not retry it as a blip.
		code := errs.CodeOf(err)
		if code == errs.Unknown {
			code = errs.Transport
		}
		werr := errs.Wrap(code, err, "transport: write")
		p.resolve(nil, werr)
		return nil, werr
	}

	if timeout > 0 {
		method := msg.Method
		t := time.AfterFunc(timeout, func() {
			m.forget(id)
			p.resolve(nil, errs.Newf(errs.Expired, "transport: call %q timed out after %v", method, timeout))
		})
		p.timer.Store(t)
		// The pending may have resolved between the map insert and the
		// Store above, when resolve could not see the timer: stop it
		// here, so that no timer outlives its exchange.
		if p.Resolved() {
			t.Stop()
		}
	}
	return p, nil
}

// Call sends msg (assigning its RequestID) and waits for the matching
// reply. The returned message may be a TFault frame; decoding the fault
// is the caller's concern so that capability layers can inspect replies.
func (m *Mux) Call(msg *wire.Message) (*wire.Message, error) {
	p, err := m.Begin(msg)
	if err != nil {
		return nil, err
	}
	return p.Reply()
}

// Post sends msg without awaiting any reply (one-way traffic). The
// message keeps whatever RequestID it carries; replies to that id, if a
// peer sends one anyway, are dropped by the read loop.
func (m *Mux) Post(msg *wire.Message) error {
	m.mu.Lock()
	if m.closed || m.err != nil {
		err := m.err
		m.mu.Unlock()
		if err == nil {
			err = ErrMuxClosed
		}
		return err
	}
	m.mu.Unlock()
	m.wmu.Lock()
	err := wire.Write(m.conn, msg)
	m.wmu.Unlock()
	if err != nil {
		m.recordErr(err)
	}
	return err
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
	m.mu.Unlock()
	return m.conn.Close()
}

// Healthy reports whether the mux can still issue calls.
func (m *Mux) Healthy() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.closed && m.err == nil
}
