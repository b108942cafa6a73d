// Package nexus reimplements the slice of the Nexus communication
// runtime (Foster, Kesselman, Tuecke: "Multimethod Communication for
// High-Performance Metacomputing Applications") that Open HPC++ builds
// its default network protocol on.
//
// Nexus structures communication around endpoints — named message sinks
// with tables of handler functions — and startpoints, serializable remote
// references to endpoints. A remote service request (RSR) carries a
// buffer from a startpoint to a numbered handler on the endpoint. This
// package provides those three notions over any byte-stream fabric, plus
// request/reply RSRs (the form the ORB needs for method invocation).
package nexus

import (
	"errors"
	"net"
	"strconv"
	"strings"
	"sync"

	"openhpcxx/internal/errs"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/wire"
)

// Handler processes one RSR. The returned buffer travels back to the
// requester; a nil return with nil error produces an empty reply.
type Handler func(buf []byte) ([]byte, error)

// Startpoint is a serializable remote reference to an endpoint. Addr is
// a fabric address understood by the node's dialer; Endpoint names the
// endpoint on the remote node.
type Startpoint struct {
	Addr     string
	Endpoint string
}

// String renders the startpoint in addr!endpoint form.
func (s Startpoint) String() string { return s.Addr + "!" + s.Endpoint }

// ParseStartpoint parses the addr!endpoint form.
func ParseStartpoint(s string) (Startpoint, error) {
	i := strings.LastIndexByte(s, '!')
	if i < 0 {
		return Startpoint{}, errs.Newf(errs.BadRequest, "nexus: malformed startpoint %q", s)
	}
	return Startpoint{Addr: s[:i], Endpoint: s[i+1:]}, nil
}

// Endpoint is a message sink with a handler table.
type Endpoint struct {
	name string
	mu   sync.RWMutex
	tbl  map[uint32]Handler
}

// Name returns the endpoint's name on its node.
func (e *Endpoint) Name() string { return e.name }

// Bind installs a handler under id, replacing any previous binding.
func (e *Endpoint) Bind(id uint32, h Handler) {
	e.mu.Lock()
	e.tbl[id] = h
	e.mu.Unlock()
}

// Unbind removes a handler.
func (e *Endpoint) Unbind(id uint32) {
	e.mu.Lock()
	delete(e.tbl, id)
	e.mu.Unlock()
}

func (e *Endpoint) handler(id uint32) (Handler, bool) {
	e.mu.RLock()
	h, ok := e.tbl[id]
	e.mu.RUnlock()
	return h, ok
}

// Node hosts endpoints and issues RSRs. A node may attach several
// listeners (one per fabric — this is Nexus's multi-method aspect), all
// feeding the same endpoint table.
type Node struct {
	dial func(addr string) (net.Conn, error)
	pool *transport.Pool

	mu        sync.Mutex
	endpoints map[string]*Endpoint
	servers   []*transport.Server
	closed    bool
}

// NewNode creates a node that dials remote startpoints through dial.
func NewNode(dial func(addr string) (net.Conn, error)) *Node {
	n := &Node{dial: dial, endpoints: make(map[string]*Endpoint)}
	n.pool = transport.NewPool(dial)
	return n
}

// Attach serves RSRs arriving on l. A node may attach many listeners.
func (n *Node) Attach(l net.Listener) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		l.Close()
		return
	}
	n.servers = append(n.servers, transport.Serve(l, n.handleFrame))
}

// CreateEndpoint registers a named endpoint.
func (n *Node) CreateEndpoint(name string) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, busy := n.endpoints[name]; busy {
		return nil, errs.Newf(errs.Conflict, "nexus: endpoint %q exists", name)
	}
	e := &Endpoint{name: name, tbl: make(map[uint32]Handler)}
	n.endpoints[name] = e
	return e, nil
}

// DestroyEndpoint removes a named endpoint.
func (n *Node) DestroyEndpoint(name string) {
	n.mu.Lock()
	delete(n.endpoints, name)
	n.mu.Unlock()
}

func (n *Node) endpoint(name string) (*Endpoint, bool) {
	n.mu.Lock()
	e, ok := n.endpoints[name]
	n.mu.Unlock()
	return e, ok
}

// RSR frames reuse the ORB wire format: Object carries the endpoint
// name, Method carries "rsr:<handler-id>".
func rsrMethod(id uint32) string { return "rsr:" + strconv.FormatUint(uint64(id), 10) }

func parseRSRMethod(m string) (uint32, error) {
	s, ok := strings.CutPrefix(m, "rsr:")
	if !ok {
		return 0, errs.Newf(errs.NoMethod, "nexus: not an rsr method %q", m)
	}
	id, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, errs.Newf(errs.BadRequest, "nexus: bad handler id %q", s)
	}
	return uint32(id), nil
}

func (n *Node) handleFrame(m *wire.Message) *wire.Message {
	fail := func(err error) *wire.Message {
		f, ferr := wire.FaultMessage(m, err)
		if ferr != nil {
			return nil
		}
		return f
	}
	ep, ok := n.endpoint(m.Object)
	if !ok {
		if m.Type == wire.TControl {
			return nil
		}
		return fail(wire.Faultf(wire.FaultNoObject, "no endpoint %q", m.Object))
	}
	id, err := parseRSRMethod(m.Method)
	if err != nil {
		if m.Type == wire.TControl {
			return nil
		}
		return fail(wire.Faultf(wire.FaultNoMethod, "%v", err))
	}
	h, ok := ep.handler(id)
	if !ok {
		if m.Type == wire.TControl {
			return nil
		}
		return fail(wire.Faultf(wire.FaultNoMethod, "endpoint %q has no handler %d", m.Object, id))
	}
	out, err := h(m.Body)
	if m.Type == wire.TControl {
		return nil // one-way: result and error are discarded
	}
	if err != nil {
		return fail(err)
	}
	return &wire.Message{Type: wire.TReply, Object: m.Object, Method: m.Method, Body: out}
}

// ErrNodeClosed is returned by RSRs on a closed node.
var ErrNodeClosed = errors.New("nexus: node closed")

// PendingRSR is one in-flight request/reply RSR issued with BeginRSR.
type PendingRSR struct {
	p *transport.PendingCall
}

// WhenDone runs fn where the RSR resolves (transport.Cell.WhenDone).
func (p *PendingRSR) WhenDone(fn func()) { p.p.WhenDone(fn) }

// Result returns the reply buffer or error; it blocks until the RSR
// resolves.
func (p *PendingRSR) Result() ([]byte, error) {
	reply, err := p.p.Reply()
	if err != nil {
		return nil, err
	}
	if reply.Type == wire.TFault {
		return nil, wire.DecodeFault(reply.Body)
	}
	return reply.Body, nil
}

// BeginRSR issues a request/reply RSR without waiting for completion —
// Nexus's one-way RSR nature surfaced as request pipelining: many RSRs
// may be outstanding on one connection, matched by request id.
func (n *Node) BeginRSR(sp Startpoint, handlerID uint32, buf []byte) (*PendingRSR, error) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil, ErrNodeClosed
	}
	mux, err := n.pool.Get(sp.Addr)
	if err != nil {
		return nil, err
	}
	p, err := mux.Begin(&wire.Message{
		Type:   wire.TRequest,
		Object: sp.Endpoint,
		Method: rsrMethod(handlerID),
		Body:   buf,
	})
	if err != nil {
		return nil, err
	}
	return &PendingRSR{p: p}, nil
}

// RSR issues a request/reply remote service request and waits for the
// reply.
func (n *Node) RSR(sp Startpoint, handlerID uint32, buf []byte) ([]byte, error) {
	p, err := n.BeginRSR(sp, handlerID, buf)
	if err != nil {
		return nil, err
	}
	return p.Result()
}

// Post issues a one-way RSR: no reply is generated or awaited.
func (n *Node) Post(sp Startpoint, handlerID uint32, buf []byte) error {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return ErrNodeClosed
	}
	mux, err := n.pool.Get(sp.Addr)
	if err != nil {
		return err
	}
	return mux.Post(&wire.Message{
		Type:   wire.TControl,
		Object: sp.Endpoint,
		Method: rsrMethod(handlerID),
		Body:   buf,
	})
}

// Close shuts down all listeners and cached connections.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	servers := n.servers
	n.servers = nil
	n.mu.Unlock()
	var errs []error
	for _, s := range servers {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	n.pool.Close()
	return errors.Join(errs...)
}
