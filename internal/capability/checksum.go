package capability

import (
	"encoding/binary"
	"hash/crc32"

	"openhpcxx/internal/netsim"
	"openhpcxx/internal/wire"
)

// KindChecksum names the integrity-check capability: a CRC32 over the
// body, verified on the receiving side. Cheaper than the encrypt
// capability's MAC when only accidental corruption matters.
const KindChecksum = "checksum"

// Checksum attaches and verifies a CRC32 (Castagnoli) of the body.
type Checksum struct{}

// NewChecksum builds a checksum capability.
func NewChecksum() *Checksum { return &Checksum{} }

// Kind implements Capability.
func (*Checksum) Kind() string { return KindChecksum }

// Applicable implements Capability.
func (*Checksum) Applicable(client, server netsim.Locality) bool { return true }

// Config implements Capability.
func (*Checksum) Config() ([]byte, error) { return nil, nil }

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Process attaches the CRC.
func (*Checksum) Process(f *Frame, body []byte) ([]byte, []byte, error) {
	env := f.envelope(4)
	binary.BigEndian.PutUint32(env, crc32.Checksum(body, crcTable))
	return body, env, nil
}

// Unprocess verifies the CRC.
func (*Checksum) Unprocess(f *Frame, envelope, body []byte) ([]byte, error) {
	if len(envelope) != 4 {
		return nil, wire.Faultf(wire.FaultCapability, "checksum envelope has %d bytes", len(envelope))
	}
	want := binary.BigEndian.Uint32(envelope)
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, wire.Faultf(wire.FaultCapability, "checksum mismatch: %08x != %08x", got, want)
	}
	return body, nil
}

func init() {
	RegisterKind(KindChecksum, func([]byte) (Capability, error) { return NewChecksum(), nil })
}
