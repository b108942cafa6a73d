package core

import (
	"sync"

	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/transport/nexus"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// Built-in protocol identifiers.
const (
	// ProtoSHM is the in-process shared-memory protocol; applicable only
	// when client and server share a machine and process.
	ProtoSHM ProtoID = "shm"
	// ProtoStream is the plain framed stream protocol (the "TCP based
	// proto-object that uses XDR for data encoding" of §3.1); applicable
	// everywhere.
	ProtoStream ProtoID = "hpcx-tcp"
	// ProtoNexus is the Nexus-based TCP protocol of the experiments.
	ProtoNexus ProtoID = "nexus-tcp"
	// ProtoGlue is the glue protocol holding capability objects; its
	// factory lives in the capability package.
	ProtoGlue ProtoID = "glue"
)

const (
	orbEndpoint      = "orb"
	orbInvokeHandler = 1
)

// addrData is the proto-data payload for address-based protocols.
type addrData struct {
	Addr string
	// Endpoint is used by the Nexus protocol only.
	Endpoint string
}

func (a *addrData) MarshalXDR(e *xdr.Encoder) error {
	e.PutString(a.Addr)
	e.PutString(a.Endpoint)
	return nil
}

func (a *addrData) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if a.Addr, err = d.String(); err != nil {
		return err
	}
	a.Endpoint, err = d.String()
	return err
}

// encodeAddrData and decodeAddrData keep their codec off the heap.
func encodeAddrData(addr, endpoint string) []byte {
	var e xdr.Encoder
	e.SetBuf(make([]byte, 0, 14+len(addr)+len(endpoint)))
	_ = (&addrData{Addr: addr, Endpoint: endpoint}).MarshalXDR(&e)
	return e.Bytes()
}

func decodeAddrData(p []byte) (a addrData, err error) {
	var d xdr.Decoder
	d.Reset(p)
	if err = a.UnmarshalXDR(&d); err == nil {
		err = d.Done()
	}
	if err != nil {
		return a, errs.Wrap(errs.Codec, err, "core: bad address proto-data")
	}
	return a, nil
}

// entry builds a protocol table entry for this context's binding of id.
func (c *Context) entry(id ProtoID, name, endpoint string) (ProtoEntry, error) {
	addr, ok := c.Binding(id)
	if !ok {
		return ProtoEntry{}, errs.Newf(errs.Config, "core: context %s has no %s binding", c.name, name)
	}
	return ProtoEntry{ID: id, Data: encodeAddrData(addr, endpoint)}, nil
}

// EntrySHM builds a protocol table entry for this context's shared
// memory binding.
func (c *Context) EntrySHM() (ProtoEntry, error) { return c.entry(ProtoSHM, "shm", "") }

// EntryStream builds a protocol table entry for this context's stream
// binding (simulated or real TCP).
func (c *Context) EntryStream() (ProtoEntry, error) { return c.entry(ProtoStream, "stream", "") }

// EntryNexus builds a protocol table entry for this context's Nexus
// binding.
func (c *Context) EntryNexus() (ProtoEntry, error) { return c.entry(ProtoNexus, "nexus", orbEndpoint) }

// Entries returns the entries of every binding the context has, in
// preference order: shm, stream, Nexus.
func (c *Context) Entries() (entries []ProtoEntry) {
	for _, build := range []func() (ProtoEntry, error){c.EntrySHM, c.EntryStream, c.EntryNexus} {
		if e, err := build(); err == nil {
			entries = append(entries, e)
		}
	}
	return entries
}

// StreamEntryAt builds a stream protocol entry for a known address
// without requiring a context — bootstrap use, e.g. reaching a name
// service whose address is configuration.
func StreamEntryAt(addr string) ProtoEntry {
	return ProtoEntry{ID: ProtoStream, Data: encodeAddrData(addr, "")}
}

// NewRef builds an object reference for a servant with the given
// protocol table (ordered by preference — the server's ranking of how it
// is willing to be accessed).
func (c *Context) NewRef(s *Servant, entries ...ProtoEntry) *ObjectRef {
	return &ObjectRef{
		Object:    s.ID(),
		Iface:     s.Iface(),
		Epoch:     s.Epoch(),
		Server:    c.loc,
		Protocols: entries,
	}
}

// streamProto carries frames over a pooled framed stream connection.
// It implements PipelinedProtocol (the mux matches replies by request
// id, so any number of Begins may be outstanding) and BatchingProtocol
// (an optional coalescer packs requests into TBatch frames).
type streamProto struct {
	id   ProtoID
	addr string
	host *Context

	mu   sync.Mutex
	coal *transport.Coalescer
}

func (p *streamProto) ID() ProtoID { return p.id }

// begin issues one frame on the pooled mux, dropping the connection on
// write failure so the next attempt redials.
func (p *streamProto) begin(m *wire.Message) (Pending, error) {
	mux, err := p.host.muxes.Get(p.addr)
	if err != nil {
		return nil, err
	}
	pc, err := mux.Begin(m)
	if err != nil {
		p.host.muxes.Drop(p.addr)
		return nil, err
	}
	return pc, nil
}

// Begin implements PipelinedProtocol. Requests route through the
// coalescer when batching is on; everything else goes straight out.
func (p *streamProto) Begin(m *wire.Message) (Pending, error) {
	p.mu.Lock()
	coal := p.coal
	p.mu.Unlock()
	if coal != nil && m.Type == wire.TRequest {
		c, err := coal.Begin(m)
		if err != nil {
			return nil, err // not a nil *Cell in a non-nil Pending
		}
		return c, nil
	}
	return p.begin(m)
}

// SetBatching implements BatchingProtocol: a zero policy disables
// coalescing, anything else (defaults filled in) enables it.
func (p *streamProto) SetBatching(policy transport.BatchPolicy) {
	p.mu.Lock()
	old := p.coal
	if policy == (transport.BatchPolicy{}) {
		p.coal = nil
	} else {
		p.coal = transport.NewCoalescer(func(m *wire.Message) (transport.Pending, error) {
			return p.begin(m)
		}, policy)
		p.coal.SetTracer(p.host.rt.Tracer())
	}
	p.mu.Unlock()
	if old != nil {
		old.Close() // flush stragglers
	}
}

// BatchStats reports the coalescer's current residency for the
// introspection plane: on is false when batching is disabled.
func (p *streamProto) BatchStats() (queued, queuedBytes int, on bool) {
	p.mu.Lock()
	coal := p.coal
	p.mu.Unlock()
	if coal == nil {
		return 0, 0, false
	}
	q, b := coal.Stats()
	return q, b, true
}

// Call is Begin plus the wait when batching is on, else the mux's Call
// (which recycles its exchange). A failed exchange leaves the shared mux
// alone: the pool replaces one that a failed write or read spoiled.
func (p *streamProto) Call(m *wire.Message) (*wire.Message, error) {
	p.mu.Lock()
	coal := p.coal
	p.mu.Unlock()
	if coal == nil || m.Type != wire.TRequest {
		mux, err := p.host.muxes.Get(p.addr)
		if err != nil {
			return nil, err
		}
		return mux.Call(m)
	}
	pending, err := p.Begin(m)
	if err != nil {
		return nil, err
	}
	return pending.Reply()
}

// Post implements OneWayProtocol: the frame is written with no reply
// expected.
func (p *streamProto) Post(m *wire.Message) error {
	mux, err := p.host.muxes.Get(p.addr)
	if err != nil {
		return err
	}
	if err := mux.Post(m); err != nil {
		p.host.muxes.Drop(p.addr)
		return err
	}
	return nil
}

func (p *streamProto) Close() error { return nil } // pooled conns are shared

// addrFactory builds the protocols whose proto-data is an address: the
// stream protocol, shm — the same mechanism over the unshaped in-process
// fabric, hence applicable only within one process — and Nexus.
type addrFactory ProtoID

func (f addrFactory) ID() ProtoID { return ProtoID(f) }

func (f addrFactory) Applicable(entry ProtoEntry, client, server netsim.Locality) bool {
	a, err := decodeAddrData(entry.Data)
	switch {
	case err != nil || a.Addr == "":
		return false
	case f == addrFactory(ProtoSHM):
		return client.SameProcess(server)
	}
	return f != addrFactory(ProtoNexus) || a.Endpoint != ""
}

func (f addrFactory) New(entry ProtoEntry, ref *ObjectRef, host *Context) (Protocol, error) {
	a, err := decodeAddrData(entry.Data)
	if err != nil {
		return nil, err
	}
	if f == addrFactory(ProtoNexus) {
		return &nexusProto{sp: nexus.Startpoint{Addr: a.Addr, Endpoint: a.Endpoint}, host: host}, nil
	}
	return &streamProto{id: ProtoID(f), addr: a.Addr, host: host}, nil
}

// nexusProto carries frames embedded in Nexus remote service requests.
type nexusProto struct {
	sp   nexus.Startpoint
	host *Context
}

func (p *nexusProto) ID() ProtoID { return ProtoNexus }

// Call is Begin plus the wait, so synchronous and pipelined invocations
// share one embed/decode path.
func (p *nexusProto) Call(m *wire.Message) (*wire.Message, error) {
	pending, err := p.Begin(m)
	if err != nil {
		return nil, err
	}
	return pending.Reply()
}

// embeddedReply decodes the reply frame an RSR carried back.
func embeddedReply(out []byte, err error) (*wire.Message, error) {
	if err != nil {
		return nil, err
	}
	reply := new(wire.Message)
	if err := xdr.Unmarshal(out, reply); err != nil {
		return nil, errs.Wrap(errs.Codec, err, "core: embedded reply")
	}
	return reply, nil
}

// Begin implements PipelinedProtocol: the RSR is issued without waiting,
// so many embedded invocations may be in flight on the Nexus connection;
// the embedded reply is decoded where the RSR resolves.
func (p *nexusProto) Begin(m *wire.Message) (Pending, error) {
	buf, err := wire.Marshal(m)
	if err != nil {
		return nil, err
	}
	pr, err := p.host.nexus().BeginRSR(p.sp, orbInvokeHandler, buf)
	if err != nil {
		return nil, err
	}
	cell := new(transport.Cell)
	pr.WhenDone(func() { cell.Resolve(embeddedReply(pr.Result())) })
	return cell, nil
}

// Post implements OneWayProtocol via a one-way Nexus RSR.
func (p *nexusProto) Post(m *wire.Message) error {
	buf, err := wire.Marshal(m)
	if err != nil {
		return err
	}
	return p.host.nexus().Post(p.sp, orbInvokeHandler, buf)
}

func (p *nexusProto) Close() error { return nil } // the node is shared
