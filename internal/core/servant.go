package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"openhpcxx/internal/bufpool"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// Servant is a server object exported by a context. Invocations take a
// read lock so migration (which takes the write lock) observes a
// quiescent object.
type Servant struct {
	id    ObjectID
	iface string
	ctx   *Context

	mu      sync.RWMutex
	epoch   uint64
	impl    any
	methods map[string]Method
	movedTo *wire.Fault // the tombstone's FaultMoved, once it left
	calls   atomic.Uint64
}

// ID returns the servant's object id.
func (s *Servant) ID() ObjectID { return s.id }

// Iface returns the servant's interface name.
func (s *Servant) Iface() string { return s.iface }

// Epoch returns the servant's migration epoch.
func (s *Servant) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Impl returns the implementation object.
func (s *Servant) Impl() any {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.impl
}

// Calls returns how many invocations the servant has served; the load
// balancer uses it as one of its load signals.
func (s *Servant) Calls() uint64 { return s.calls.Load() }

func (s *Servant) invoke(method string, args []byte) (out []byte, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.movedTo != nil {
		return nil, s.movedTo
	}
	m, ok := s.methods[method]
	if !ok {
		return nil, wire.Faultf(wire.FaultNoMethod, "%s has no method %q", s.id, method)
	}
	s.calls.Add(1)
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, wire.Faultf(wire.FaultInternal, "method %q panicked: %v", method, r)
		}
	}()
	return m(args)
}

// movedFault is a tombstone: the FaultMoved forwarding to ref, encoded
// once for every stale request it answers; nil for a nil ref.
func movedFault(ref *ObjectRef) *wire.Fault {
	if ref == nil {
		return nil
	}
	data, err := EncodeRef(ref)
	if err != nil {
		return wire.Faultf(wire.FaultInternal, "encoding forwarding reference: %v", err)
	}
	return wire.Encoded(&wire.Fault{Code: wire.FaultMoved, Message: "object migrated to " + ref.Server.String(), Data: data})
}

// Export registers a servant under an automatically assigned object id.
func (c *Context) Export(iface string, impl any, methods map[string]Method) (*Servant, error) {
	c.mu.Lock()
	c.nextObj++
	id := ObjectID(fmt.Sprintf("%s/obj-%d", c.name, c.nextObj))
	c.mu.Unlock()
	return c.ExportAs(id, iface, impl, methods, 0)
}

// ExportAs registers a servant under an explicit id and epoch; migration
// uses it to preserve identity across contexts.
func (c *Context) ExportAs(id ObjectID, iface string, impl any, methods map[string]Method, epoch uint64) (*Servant, error) {
	s := &Servant{id: id, iface: iface, ctx: c, epoch: epoch, impl: impl, methods: methods}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.servants[id]; dup {
		return nil, errs.Newf(errs.Conflict, "core: object %s already exported", id)
	}
	delete(c.tombstones, id) // an object returning home clears its tombstone
	c.servants[id] = s
	if epoch > 0 {
		var num [20]byte
		c.rt.recordEvent("move-in", id, "adopted by context "+c.name+" (epoch "+string(strconv.AppendUint(num[:0], epoch, 10))+")")
	}
	return s, nil
}

// Servant looks up an exported object.
func (c *Context) Servant(id ObjectID) (*Servant, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.servants[id]
	return s, ok
}

// Unexport removes a servant, optionally leaving a forwarding tombstone
// so stale callers receive FaultMoved with the new reference.
func (c *Context) Unexport(id ObjectID, forwardTo *ObjectRef) { c.unexport(id, movedFault(forwardTo)) }

func (c *Context) unexport(id ObjectID, tomb *wire.Fault) {
	c.mu.Lock()
	s, ok := c.servants[id]
	delete(c.servants, id)
	if tomb != nil {
		c.tombstones[id] = tomb
	}
	c.mu.Unlock()
	if ok && tomb != nil {
		s.mu.Lock()
		s.movedTo = tomb
		s.mu.Unlock()
	}
}

// Freeze blocks new invocations on the servant and waits for in-flight
// ones to drain; Unfreeze releases it. Migration brackets the snapshot
// with Freeze/Unfreeze.
func (s *Servant) Freeze() { s.mu.Lock() }

// Unfreeze releases a Freeze.
func (s *Servant) Unfreeze() { s.mu.Unlock() }

// SnapshotLocked snapshots the implementation's state. Caller must hold
// Freeze.
func (s *Servant) SnapshotLocked() ([]byte, error) {
	m, ok := s.impl.(Migratable)
	if !ok {
		return nil, errs.Newf(errs.Config, "core: %s (%T) is not Migratable", s.id, s.impl)
	}
	return m.Snapshot()
}

// dispatch is the shared server-side entry point for every protocol
// class bound to this context: it locates the servant, routes enveloped
// requests through the registered glue server, invokes the method, and
// frames the reply (Figure 1's path C -> server object, plus Figure 2's
// GC un-processing step).
func (c *Context) dispatch(m *wire.Message) *wire.Message {
	// Continue the caller's trace when its header carries one and a
	// recorder is installed. Untraced frames — the caller's tracer is
	// off — cost one nil-check here.
	ds := c.rt.Tracer().StartChild(obs.TraceID(m.TraceID), obs.SpanID(m.SpanID), obs.KindServer, "dispatch")
	if ds != nil {
		ds.SetHint(m.KeepHint())
		ds.SetRPC(m.Object, m.Method)
		ds.SetBytes(len(m.Body))
		defer ds.End()
	}
	if m.Type == wire.TBatch {
		return c.handleBatch(m) // every sub-request gets its own verdict
	}
	if m.Type != wire.TRequest && m.Type != wire.TControl {
		return nil
	}
	c.mu.RLock()
	draining := c.draining
	if !draining {
		c.inflight.Add(1)
	}
	c.mu.RUnlock()
	if draining {
		return c.refuse(m, ds)
	}
	defer c.inflight.Done()
	if m.Type == wire.TControl {
		// One-way invocation: execute, never reply.
		if m.Object != "" && m.Method != "" {
			c.handleOneWay(m, ds)
		}
		return nil
	}
	c.srv.requests.Inc()
	reply, err := c.handleRequest(m, ds)
	if err != nil {
		ds.SetErr(err)
		c.srv.faults.Inc()
		f, ferr := wire.FaultMessage(m, err)
		if ferr != nil {
			return nil
		}
		return f
	}
	return reply
}

// refuse is a draining context's verdict on one request: FaultMoved when
// the object left a tombstone — an evacuation drains first and moves
// second, and stale callers chase the object to its new home throughout
// — and a retryable FaultUnavailable otherwise, so the caller re-issues
// the request elsewhere. A one-way request is dropped.
func (c *Context) refuse(m *wire.Message, ds *obs.Active) *wire.Message {
	if m.Type != wire.TRequest {
		return nil
	}
	c.mu.RLock()
	_, live := c.servants[ObjectID(m.Object)]
	tomb := c.tombstones[ObjectID(m.Object)]
	c.mu.RUnlock()
	var rej error
	if !live && tomb != nil {
		ds.SetCause("moved")
		rej = tomb
	} else {
		ds.SetCause("draining")
		c.srv.drained.Inc()
		rej = wire.Faultf(wire.FaultUnavailable, "context %s draining", c.name)
	}
	ds.SetErr(rej)
	f, err := wire.FaultMessage(m, rej)
	if err != nil {
		return nil
	}
	return f
}

func (c *Context) handleRequest(m *wire.Message, ds *obs.Active) (*wire.Message, error) {
	c.mu.RLock()
	s, ok := c.servants[ObjectID(m.Object)]
	var tomb *wire.Fault
	if !ok {
		tomb = c.tombstones[ObjectID(m.Object)]
	}
	c.mu.RUnlock()
	if !ok {
		if tomb != nil {
			return nil, tomb
		}
		return nil, wire.Faultf(wire.FaultNoObject, "no object %s in context %s", m.Object, c.name)
	}

	var gs GlueServer
	body := m.Body
	if len(m.Envelopes) > 0 {
		if m.Envelopes[0].ID != GlueEnvelopeID {
			return nil, wire.Faultf(wire.FaultCapability, "envelope chain must start with %q, got %q", GlueEnvelopeID, m.Envelopes[0].ID)
		}
		tag := m.Envelopes[0].Data
		var found bool
		gs, found = c.glue(tag)
		if !found {
			return nil, wire.Faultf(wire.FaultCapability, "no glue %q registered in context %s", tag, c.name)
		}
		gu := ds.Child("glue.unprocess")
		var err error
		body, err = gs.UnwrapRequest(m)
		if gu != nil {
			gu.SetCaps(EnvCaps(m.Envelopes))
			gu.SetErr(err)
			gu.End()
		}
		if err != nil {
			return nil, err
		}
	}

	// Shed already-expired requests instead of doing dead work. The check
	// sits after glue un-processing — capability layers (audit, quota)
	// observe the request either way — but before the servant invoke, so
	// the expensive part is skipped. FaultExpired is terminal on the
	// client: the caller's deadline has passed, retrying cannot help.
	// Without a deadline nothing can expire, so the clock is not read.
	if m.Deadline != 0 && m.Expired(c.rt.Clock().Now().UnixNano()) {
		ds.SetCause("expired")
		c.srv.expired.Inc()
		return nil, wire.Faultf(wire.FaultExpired, "deadline expired before %s.%s executed", m.Object, m.Method)
	}

	sv := ds.Child("servant")
	out, err := s.invoke(m.Method, body)
	lent := claimReply(out)
	sv.SetErr(err)
	sv.End()
	if err != nil {
		return nil, err
	}

	var reply *wire.Message
	if gs == nil {
		reply = wire.Pooled(wire.Message{Type: wire.TReply, Object: m.Object, Method: m.Method, Epoch: s.Epoch(), Body: out})
	} else if reply, err = gs.WrapReply(m, out); err != nil {
		return nil, err
	}
	if lent && unsafe.SliceData(reply.Body) == unsafe.SliceData(out) {
		reply.Lend(out) // its encoder gives it back
	} else if lent {
		bufpool.Put(out) // a capability replaced it and lent the reply its own
	}
	return reply, nil
}

// handleBatch dispatches every sub-request of a wire.TBatch frame and
// returns a TBatch reply with the sub-replies in matching positions —
// the coalescer on the client demultiplexes by index. Each sub-request
// takes the full dispatch path independently (servant lookup, glue
// un-processing, tombstones), so a batch may mix objects and glue
// chains and individual faults stay individual.
func (c *Context) handleBatch(m *wire.Message) *wire.Message {
	whole := func(err error) *wire.Message {
		f, ferr := wire.FaultMessage(m, err)
		if ferr != nil {
			return nil
		}
		return f
	}
	subs, err := wire.DecodeBatch(m)
	if err != nil {
		return whole(wire.Faultf(wire.FaultBadRequest, "batch: %v", err))
	}
	c.srv.batches.Inc()
	c.srv.batchMsgs.Add(uint64(len(subs)))
	replies := make([]*wire.Message, len(subs))
	for i, sub := range subs {
		r := c.dispatch(sub)
		if r == nil {
			// One-way sub-requests (or malformed frames dispatch drops)
			// still need a placeholder so positions line up.
			r = &wire.Message{Type: wire.TReply, Object: sub.Object, Method: sub.Method}
		}
		r.RequestID = sub.RequestID
		replies[i] = r
	}
	out, err := wire.EncodeBatch(replies)
	if err != nil {
		return whole(wire.Faultf(wire.FaultBadRequest, "batch reply: %v", err))
	}
	out.RequestID = m.RequestID
	return out
}

// nexusInvoke is the handler behind the ORB's Nexus endpoint: the RSR
// buffer carries an XDR-embedded request message.
func (c *Context) nexusInvoke(buf []byte) ([]byte, error) {
	req := new(wire.Message)
	if err := xdr.Unmarshal(buf, req); err != nil {
		return nil, wire.Faultf(wire.FaultBadRequest, "embedded message: %v", err)
	}
	reply := c.dispatch(req)
	if reply == nil {
		reply = &wire.Message{Type: wire.TReply, Object: req.Object, Method: req.Method}
	}
	return wire.Marshal(reply)
}
