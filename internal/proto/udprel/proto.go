package udprel

import (
	"fmt"
	"strconv"
	"strings"

	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// ID is the protocol identifier applications register this custom
// protocol under.
const ID core.ProtoID = "udprel"

// Bind makes ctx reachable over the udprel protocol on the given
// datagram port (0 allocates one). The node delivers inbound requests
// through the context's public Dispatch hook.
func Bind(ctx *core.Context, port int, cfg Config) error {
	pc, err := ctx.Runtime().Network().ListenPacket(ctx.Locality().Machine, port)
	if err != nil {
		return err
	}
	node := NewNode(pc, cfg, func(from netsim.Addr, req []byte) []byte {
		msg := new(wire.Message)
		if err := xdr.Unmarshal(req, msg); err != nil {
			f, ferr := wire.FaultMessage(&wire.Message{}, wire.Faultf(wire.FaultBadRequest, "udprel: %v", err))
			if ferr != nil {
				return nil
			}
			return mustEncode(f)
		}
		reply := ctx.Dispatch(msg)
		if reply == nil {
			reply = &wire.Message{Type: wire.TReply, Object: msg.Object, Method: msg.Method}
		}
		return mustEncode(reply)
	})
	addr := pc.LocalAddr()
	ctx.RegisterBinding(ID, fmt.Sprintf("udp://%s:%d", addr.Machine, addr.Port), node)
	return nil
}

func mustEncode(m *wire.Message) []byte {
	buf, err := wire.Marshal(m)
	if err != nil {
		return nil
	}
	return buf
}

// Entry builds a protocol table entry for a context bound with Bind.
func Entry(ctx *core.Context) (core.ProtoEntry, error) {
	addr, ok := ctx.Binding(ID)
	if !ok {
		return core.ProtoEntry{}, errs.Newf(errs.Config, "udprel: context %s has no udprel binding", ctx.Name())
	}
	e := xdr.NewEncoder(32)
	e.PutString(addr)
	return core.ProtoEntry{ID: ID, Data: e.Bytes()}, nil
}

func parseEntry(entry core.ProtoEntry) (netsim.Addr, error) {
	d := xdr.NewDecoder(entry.Data)
	s, err := d.String()
	if err != nil {
		return netsim.Addr{}, errs.Wrap(errs.Codec, err, "udprel: bad proto-data")
	}
	rest, ok := strings.CutPrefix(s, "udp://")
	if !ok {
		return netsim.Addr{}, errs.Newf(errs.BadRequest, "udprel: bad address %q", s)
	}
	host, portStr, ok := strings.Cut(rest, ":")
	if !ok {
		return netsim.Addr{}, errs.Newf(errs.BadRequest, "udprel: bad address %q", s)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return netsim.Addr{}, errs.Newf(errs.BadRequest, "udprel: bad port %q", portStr)
	}
	return netsim.Addr{Machine: netsim.MachineID(host), Port: port}, nil
}

// Factory is the udprel proto-class, registered into protocol pools by
// applications: capability.Install-style, `pool.Register(udprel.NewFactory(cfg))`.
type Factory struct {
	cfg Config
}

// NewFactory builds a factory with the given ARQ tuning.
func NewFactory(cfg Config) *Factory { return &Factory{cfg: cfg.withDefaults()} }

// ID implements core.ProtoFactory.
func (*Factory) ID() core.ProtoID { return ID }

// Applicable implements core.ProtoFactory: anywhere the entry parses.
func (*Factory) Applicable(entry core.ProtoEntry, client, server netsim.Locality) bool {
	_, err := parseEntry(entry)
	return err == nil
}

// New implements core.ProtoFactory: each protocol object owns an
// ephemeral datagram socket on the client's machine.
func (f *Factory) New(entry core.ProtoEntry, ref *core.ObjectRef, host *core.Context) (core.Protocol, error) {
	peer, err := parseEntry(entry)
	if err != nil {
		return nil, err
	}
	pc, err := host.Runtime().Network().ListenPacket(host.Locality().Machine, 0)
	if err != nil {
		return nil, err
	}
	return &proto{node: NewNode(pc, f.cfg, nil), peer: peer}, nil
}

// proto is the client-side protocol object.
type proto struct {
	node *Node
	peer netsim.Addr
}

// ID implements core.Protocol.
func (*proto) ID() core.ProtoID { return ID }

// Call implements core.Protocol.
func (p *proto) Call(m *wire.Message) (*wire.Message, error) {
	buf, err := wire.Marshal(m)
	if err != nil {
		return nil, err
	}
	out, err := p.node.Request(p.peer, buf)
	if err != nil {
		return nil, err
	}
	reply := new(wire.Message)
	if err := xdr.Unmarshal(out, reply); err != nil {
		return nil, errs.Wrap(errs.Codec, err, "udprel: reply frame")
	}
	return reply, nil
}

// Close implements core.Protocol.
func (p *proto) Close() error { return p.node.Close() }
