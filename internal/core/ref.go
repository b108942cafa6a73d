// Package core implements the Open HPC++ ORB: contexts, object
// references with ordered protocol tables, global pointers, protocol
// object pools, and automatic run-time protocol selection.
//
// The design follows the paper's Open Implementation principle: the ORB
// hides the mechanics of each communication protocol behind the Protocol
// interface, but exposes the protocol *decision* — which protocol a
// global pointer uses for a given remote request — to the application
// through ordered protocol tables (in object references) and protocol
// pools (per context), both of which applications may inspect, reorder,
// and extend with custom protocols.
package core

import (
	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/xdr"
)

// ObjectID names a server object uniquely within a deployment
// ("context-name/obj-N").
type ObjectID string

// ProtoID names a protocol kind ("shm", "hpcx-tcp", "nexus-tcp", "glue").
type ProtoID string

// ProtoEntry is one row of an object reference's protocol table: a
// protocol kind plus protocol-specific data (addresses, capability
// configurations) opaque to the ORB — the paper's "proto-data".
type ProtoEntry struct {
	ID   ProtoID
	Data []byte
}

// MarshalXDR encodes the entry.
func (p *ProtoEntry) MarshalXDR(e *xdr.Encoder) error {
	e.PutString(string(p.ID))
	e.PutOpaque(p.Data)
	return nil
}

// UnmarshalXDR decodes the entry.
func (p *ProtoEntry) UnmarshalXDR(d *xdr.Decoder) error {
	s, err := d.String()
	if err != nil {
		return err
	}
	p.ID = ProtoID(s)
	p.Data, err = d.Opaque()
	return err
}

// ObjectRef (the paper's OR) uniquely identifies an Open HPC++ server
// object and carries the table of protocols, ordered by preference, that
// the server is willing to support for this reference. Different ORs for
// one object may carry different tables, which is how a server offers
// different kinds of access to different clients.
type ObjectRef struct {
	Object ObjectID
	Iface  string
	// Epoch counts migrations; stale references are detected and
	// refreshed through FaultMoved replies.
	Epoch uint64
	// Server is the locality of the context currently hosting the
	// object; applicability predicates compare it with the client's.
	Server netsim.Locality
	// Protocols is the preference-ordered protocol table.
	Protocols []ProtoEntry
}

// MarshalXDR encodes the reference.
func (r *ObjectRef) MarshalXDR(e *xdr.Encoder) error {
	e.PutString(string(r.Object))
	e.PutString(r.Iface)
	e.PutUint64(r.Epoch)
	marshalLocality(e, r.Server)
	e.PutUint32(uint32(len(r.Protocols)))
	for i := range r.Protocols {
		if err := r.Protocols[i].MarshalXDR(e); err != nil {
			return err
		}
	}
	return nil
}

// UnmarshalXDR decodes the reference.
func (r *ObjectRef) UnmarshalXDR(d *xdr.Decoder) error {
	s, err := d.String()
	if err != nil {
		return err
	}
	r.Object = ObjectID(s)
	if r.Iface, err = d.String(); err != nil {
		return err
	}
	if r.Epoch, err = d.Uint64(); err != nil {
		return err
	}
	if r.Server, err = unmarshalLocality(d); err != nil {
		return err
	}
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if n > 64 {
		return errs.Newf(errs.Codec, "core: protocol table of %d entries exceeds limit", n)
	}
	r.Protocols = make([]ProtoEntry, n)
	for i := range r.Protocols {
		if err := r.Protocols[i].UnmarshalXDR(d); err != nil {
			return err
		}
	}
	return nil
}

// EncodeRef serializes a reference for transmission (registry entries,
// FaultMoved payloads, capability passing between processes) into a
// buffer of the encoding's size.
func EncodeRef(r *ObjectRef) ([]byte, error) {
	l, n := r.Server, 64+len(r.Object)+len(r.Iface)
	n += len(l.Machine) + len(l.LAN) + len(l.Campus) + len(l.Process)
	for _, p := range r.Protocols {
		n += 16 + len(p.ID) + len(p.Data)
	}
	var e xdr.Encoder
	e.SetBuf(make([]byte, 0, n))
	err := r.MarshalXDR(&e)
	return e.Bytes(), err
}

// DecodeRef parses a serialized reference.
func DecodeRef(p []byte) (*ObjectRef, error) {
	var d xdr.Decoder
	d.Reset(p)
	r := new(ObjectRef)
	if err := r.UnmarshalXDR(&d); err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return r, nil
}

// Clone returns a deep copy; callers may reorder the copy's protocol
// table without affecting the original (user control over selection).
func (r *ObjectRef) Clone() *ObjectRef {
	c := *r
	c.Protocols = make([]ProtoEntry, len(r.Protocols))
	for i, p := range r.Protocols {
		c.Protocols[i] = ProtoEntry{ID: p.ID, Data: append([]byte(nil), p.Data...)}
	}
	return &c
}

// ProtoIDs lists the table's protocol kinds in preference order.
func (r *ObjectRef) ProtoIDs() []ProtoID {
	ids := make([]ProtoID, len(r.Protocols))
	for i, p := range r.Protocols {
		ids[i] = p.ID
	}
	return ids
}

func marshalLocality(e *xdr.Encoder, l netsim.Locality) {
	e.PutString(string(l.Machine))
	e.PutString(string(l.LAN))
	e.PutString(string(l.Campus))
	e.PutString(l.Process)
}

func unmarshalLocality(d *xdr.Decoder) (netsim.Locality, error) {
	var l netsim.Locality
	m, err := d.String()
	if err != nil {
		return l, err
	}
	lan, err := d.String()
	if err != nil {
		return l, err
	}
	campus, err := d.String()
	if err != nil {
		return l, err
	}
	proc, err := d.String()
	if err != nil {
		return l, err
	}
	l.Machine = netsim.MachineID(m)
	l.LAN = netsim.LANID(lan)
	l.Campus = netsim.CampusID(campus)
	l.Process = proc
	return l, nil
}
