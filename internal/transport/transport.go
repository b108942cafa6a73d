// Package transport moves Open HPC++ wire frames between contexts.
//
// It provides the byte-stream fabrics (in-process shared memory, real
// TCP, and simulated links from netsim) plus the request/reply machinery
// every protocol object shares: a client-side multiplexer that issues
// concurrent calls over one connection, and a server loop that reads
// frames, hands them to a dispatcher, and writes replies.
package transport

import (
	"net"
	"sync"

	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
)

// SHM is the in-process "shared memory" fabric. The paper's shared-memory
// protocol applies only when client and server are on the same machine;
// here both ends live in one OS process and exchange frames over
// unshaped in-memory pipes whose packets are lent by bufpool, which is
// why it outruns every network protocol: 16x the best shaped link on
// Figure 5's top curve, and 193 us against loopback TCP's 237 us for a
// 256 KiB echo (EXPERIMENTS.md, "shm / loopback TCP").
type SHM struct {
	mu        sync.Mutex
	listeners map[string]*shmListener
	nextPort  int
}

// NewSHM returns an empty shared-memory fabric. A process typically holds
// exactly one, shared by all of its contexts.
func NewSHM() *SHM {
	return &SHM{listeners: make(map[string]*shmListener), nextPort: 1}
}

type shmListener struct {
	name    string
	fabric  *SHM
	backlog chan net.Conn
	mu      sync.Mutex
	closed  bool
}

func (l *shmListener) Accept() (net.Conn, error) {
	c, ok := <-l.backlog
	if !ok {
		return nil, netsim.ErrClosed
	}
	return c, nil
}

func (l *shmListener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	close(l.backlog)
	l.fabric.mu.Lock()
	delete(l.fabric.listeners, l.name)
	l.fabric.mu.Unlock()
	return nil
}

func (l *shmListener) Addr() net.Addr { return netsim.Addr{Machine: netsim.MachineID("shm:" + l.name)} }

func (l *shmListener) deliver(c net.Conn) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return netsim.ErrClosed
	}
	select {
	case l.backlog <- c:
		return nil
	default:
		return errs.Newf(errs.Unavailable, "transport: shm backlog full for %q", l.name)
	}
}

// Listen registers a named shared-memory endpoint.
func (s *SHM) Listen(name string) (net.Listener, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, busy := s.listeners[name]; busy {
		return nil, errs.Newf(errs.Conflict, "transport: shm endpoint %q in use", name)
	}
	l := &shmListener{name: name, fabric: s, backlog: make(chan net.Conn, 64)}
	s.listeners[name] = l
	return l, nil
}

// Dial connects to a named shared-memory endpoint.
func (s *SHM) Dial(name string) (net.Conn, error) {
	s.mu.Lock()
	l, ok := s.listeners[name]
	port := s.nextPort
	s.nextPort++
	s.mu.Unlock()
	if !ok {
		return nil, errs.Newf(errs.Transport, "transport: no shm endpoint %q", name)
	}
	a := netsim.Addr{Machine: netsim.MachineID("shm-client"), Port: port}
	b := netsim.Addr{Machine: netsim.MachineID("shm:" + name), Port: 0}
	client, server := netsim.Pipe(netsim.ProfileUnshaped, a, b)
	if err := l.deliver(server); err != nil {
		// Failed handoff: discard both ends; the deliver error is what
		// the caller needs and netsim closes never fail.
		_ = client.Close()
		_ = server.Close()
		return nil, err
	}
	return client, nil
}
