package netsim

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"openhpcxx/internal/bufpool"
	"openhpcxx/internal/clock"
)

// ErrClosed is returned by operations on a closed simulated connection.
var ErrClosed = errors.New("netsim: connection closed")

// ErrDeadline is returned when a read deadline expires.
var ErrDeadline = &timeoutError{}

type timeoutError struct{}

func (*timeoutError) Error() string   { return "netsim: i/o timeout" }
func (*timeoutError) Timeout() bool   { return true }
func (*timeoutError) Temporary() bool { return true }

// Addr is the net.Addr implementation for simulated endpoints, with the
// scheme sim://machine:port.
type Addr struct {
	Machine MachineID
	Port    int
}

// Network implements net.Addr.
func (a Addr) Network() string { return "sim" }

func (a Addr) String() string {
	return "sim://" + string(a.Machine) + ":" + itoa(a.Port)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// packet is one shaped write: its bytes become readable at deliverAt.
type packet struct {
	data      []byte
	deliverAt time.Time
}

// halfPipe carries data in one direction with latency/bandwidth shaping.
type halfPipe struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []packet // packets in flight are queue[head:]
	head     int
	queued   int // bytes in queue, for the flow-control window
	window   int // max queued bytes before writers block
	nextFree time.Time
	profile  LinkProfile
	closed   bool
	failErr  error // non-nil: the pipe died abnormally (crash injection)
	rdDead   time.Time
	pending  []byte // remainder of the delivered packet
	lent     []byte // the delivered packet's bufpool buffer, returned once pending is drained
	// dir, when non-nil, is the live fault state of this direction of
	// the link (injected delay, blackhole); shared with the Network so
	// faults apply to established connections, not just new dials.
	dir *DirFault
	// shaper, when non-nil, is the sender-side LAN's shared-capacity
	// serializer: a packet clears when both its own link and the shared
	// medium have transmitted it. O(1) per write.
	shaper *lanShaper
	// ops, when non-nil, meters per-packet shaping decisions for the
	// owning Network's ShapingOps bound.
	ops *atomic.Uint64
	// clk paces the in-flight waits (shaping delays, blackhole polls).
	// Real by default; tests inject a fake via Conn.SetClock so shaped
	// reads advance simulated time instead of wall-clock time.
	clk clock.Clock
}

func newHalfPipe(p LinkProfile) *halfPipe {
	h := &halfPipe{profile: p, window: 1 << 20, clk: clock.Real{}}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// write shapes and enqueues p, blocking while the flow-control window is
// full.
func (h *halfPipe) write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.queued >= h.window && !h.closed {
		h.cond.Wait()
	}
	if h.closed {
		if h.failErr != nil {
			return 0, h.failErr
		}
		return 0, ErrClosed
	}
	now := time.Now()
	start := h.nextFree
	if start.Before(now) {
		start = now
	}
	tx := h.profile.TxTime(len(p))
	h.nextFree = start.Add(tx)
	clear := h.nextFree
	if h.ops != nil {
		h.ops.Add(1)
	}
	if h.shaper != nil {
		// The shared medium must also carry the bytes; the packet is in
		// flight once the slower of the two serializers clears it.
		if h.ops != nil {
			h.ops.Add(1)
		}
		if shared := h.shaper.reserve(now, len(p)); shared.After(clear) {
			clear = shared
		}
	}
	data := bufpool.Get(len(p))
	copy(data, p)
	h.queue = append(h.queue, packet{data: data, deliverAt: clear.Add(h.profile.Latency)})
	h.queued += len(p)
	h.cond.Broadcast()
	return len(p), nil
}

// read blocks until data is deliverable (per shaping) or the pipe closes.
func (h *halfPipe) read(p []byte) (int, error) {
	h.mu.Lock()
	for {
		if len(h.pending) > 0 {
			n := copy(p, h.pending)
			if h.pending = h.pending[n:]; len(h.pending) == 0 {
				bufpool.Put(h.lent)
				h.pending, h.lent = nil, nil
			}
			h.mu.Unlock()
			return n, nil
		}
		if !h.rdDead.IsZero() && !time.Now().Before(h.rdDead) {
			h.mu.Unlock()
			return 0, ErrDeadline
		}
		if h.closed && h.failErr != nil {
			// Abnormal death (crash injection) trumps queued data: the
			// peer's kernel would have torn the window down, not
			// delivered the tail.
			err := h.failErr
			h.mu.Unlock()
			return 0, err
		}
		if h.head < len(h.queue) {
			if h.dir != nil && h.dir.blackholed() {
				// Data is in flight but the path is eating it for now;
				// poll until the hole heals or the deadline fires.
				h.mu.Unlock()
				if !h.sleepOrDeadline(time.Millisecond) {
					return 0, ErrDeadline
				}
				h.mu.Lock()
				continue
			}
			pkt := h.queue[h.head]
			deliverAt := pkt.deliverAt
			if h.dir != nil {
				deliverAt = deliverAt.Add(h.dir.extra())
			}
			now := time.Now()
			if wait := deliverAt.Sub(now); wait > 0 {
				// Release the lock while the packet is "on the wire" so
				// writers can continue to enqueue behind it.
				h.mu.Unlock()
				if !h.sleepOrDeadline(wait) {
					return 0, ErrDeadline
				}
				h.mu.Lock()
				continue
			}
			// Clear the slot: the array must neither pin the packet nor creep.
			h.queue[h.head] = packet{}
			if h.head++; h.head == len(h.queue) {
				h.queue, h.head = h.queue[:0], 0
			}
			h.queued -= len(pkt.data)
			h.pending, h.lent = pkt.data, pkt.data
			h.cond.Broadcast()
			continue
		}
		if h.closed {
			h.mu.Unlock()
			return 0, io.EOF
		}
		h.waitWithDeadline()
	}
}

// sleepOrDeadline sleeps for d on the pipe's clock unless the read
// deadline fires first; it reports false when the deadline fired.
func (h *halfPipe) sleepOrDeadline(d time.Duration) bool {
	h.mu.Lock()
	dead := h.rdDead
	clk := h.clk
	h.mu.Unlock()
	if !dead.IsZero() {
		if until := time.Until(dead); until < d {
			clock.Sleep(clk, maxDuration(until, 0))
			return false
		}
	}
	clock.Sleep(clk, d)
	return true
}

// waitWithDeadline waits on the condition, waking at the read deadline if
// one is set. Called with h.mu held; returns with h.mu held.
func (h *halfPipe) waitWithDeadline() {
	if h.rdDead.IsZero() {
		h.cond.Wait()
		return
	}
	// Arm a timer to break the wait at the deadline.
	dead := h.rdDead
	t := time.AfterFunc(time.Until(dead), func() {
		h.mu.Lock()
		h.cond.Broadcast()
		h.mu.Unlock()
	})
	h.cond.Wait()
	t.Stop()
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func (h *halfPipe) close() {
	h.mu.Lock()
	h.closed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}

// fail closes the pipe abnormally: readers and writers observe err
// (e.g. ErrConnReset after a machine crash) instead of a clean EOF.
func (h *halfPipe) fail(err error) {
	h.mu.Lock()
	h.closed = true
	if h.failErr == nil {
		h.failErr = err
	}
	h.cond.Broadcast()
	h.mu.Unlock()
}

func (h *halfPipe) setReadDeadline(t time.Time) {
	h.mu.Lock()
	h.rdDead = t
	h.cond.Broadcast()
	h.mu.Unlock()
}

// Conn is a simulated net.Conn between two machines. Writes are shaped by
// the link profile; reads observe data only after its modeled arrival
// time.
type Conn struct {
	recv   *halfPipe
	send   *halfPipe
	local  Addr
	remote Addr
	once   sync.Once
	// onClose, when set (Network-dialed connections), unregisters the
	// connection from the network's live-connection table.
	onClose func()
}

var _ net.Conn = (*Conn)(nil)

// Pipe returns a shaped duplex connection pair with the given profile and
// addresses. It is the building block Network uses, exposed for tests and
// for transports that want a point-to-point shaped link without topology.
func Pipe(profile LinkProfile, a, b Addr) (*Conn, *Conn) {
	ab := newHalfPipe(profile)
	ba := newHalfPipe(profile)
	ca := &Conn{recv: ba, send: ab, local: a, remote: b}
	cb := &Conn{recv: ab, send: ba, local: b, remote: a}
	return ca, cb
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) { return c.recv.read(p) }

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) { return c.send.write(p) }

// Close implements net.Conn. Both directions observe the close: pending
// data drains, then readers see io.EOF.
func (c *Conn) Close() error {
	c.once.Do(func() {
		c.send.close()
		c.recv.close()
		if c.onClose != nil {
			c.onClose()
		}
	})
	return nil
}

// Fail tears the connection down abnormally: both ends observe err from
// every subsequent Read and Write — the simulated equivalent of a peer
// crash resetting the connection (ECONNRESET), as opposed to the clean
// FIN that Close models.
func (c *Conn) Fail(err error) {
	c.once.Do(func() {
		c.send.fail(err)
		c.recv.fail(err)
		if c.onClose != nil {
			c.onClose()
		}
	})
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn (read side only; writes in this
// simulation block only on flow control, which closes promptly).
func (c *Conn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.recv.setReadDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn as a no-op; see SetDeadline.
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }

// SetClock injects the clock pacing this connection's shaped waits
// (both directions). The default is the real clock; tests inject a
// fake so latency simulation costs simulated time only.
func (c *Conn) SetClock(clk clock.Clock) {
	for _, h := range []*halfPipe{c.recv, c.send} {
		h.mu.Lock()
		h.clk = clk
		h.mu.Unlock()
	}
}

// Profile returns the link profile shaping this connection.
func (c *Conn) Profile() LinkProfile { return c.send.profile }
