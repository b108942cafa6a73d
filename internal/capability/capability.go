// Package capability implements Open HPC++ remote access capabilities
// and the glue protocol that carries them (paper §4).
//
// A capability object encapsulates one remote-access attribute —
// encryption, authentication, a request quota, compression — as a pair
// of body transformations: Process on the sending side and Unprocess on
// the receiving side. Capabilities are held, in order, by a glue
// protocol object; a request is processed by each capability before it
// goes out on the wire and un-processed in reverse order on the server
// (Figure 2), and replies retrace the same path.
//
// Capability configurations ride inside the glue entry of an object
// reference's protocol table, so passing a reference to another process
// transfers the capability set with it — the paper's "capabilities can
// be exchanged between processes".
package capability

import (
	"fmt"
	"sort"
	"sync"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/xdr"
)

// Direction tells a capability whether it is handling a request
// (client→server) or a reply (server→client).
type Direction int

// Directions.
const (
	Request Direction = iota
	Reply
)

func (d Direction) String() string {
	if d == Request {
		return "request"
	}
	return "reply"
}

// Frame carries per-invocation context into capability transforms.
type Frame struct {
	Object string
	Method string
	Dir    Direction
	Clock  clock.Clock
	arena  []byte // what is left of the glue's scratch; nil in a hand-built Frame
}

// envelope returns n zeroed bytes to lay an envelope out in: a piece of
// the glue's scratch while that lasts (no allocation, and it lives as long
// as the frame it is sent from), else a fresh slice (a hand-built Frame).
func (f *Frame) envelope(n int) []byte {
	if n > len(f.arena) {
		return make([]byte, n)
	}
	b := f.arena[:n:n]
	f.arena = f.arena[n:]
	clear(b) // the scratch is recycled
	return b
}

// Capability is one remote access capability (the paper's capab-object).
// Implementations must be safe for concurrent use: one instance serves
// every request flowing through its glue object.
//
// Process, on the sending side, returns the transformed body and an
// envelope blob the peer needs to reverse the transformation; Unprocess,
// on the receiving side, reverses it. Who owns body differs by direction:
//
//   - Process must never write to body: it is the caller's argument
//     slice, and the invocation engine hands the same slice to the chain
//     again on every retry, failover and FaultMoved chase. A transform
//     writes its output elsewhere; a capability that only observes or
//     signs returns body itself as newBody. Any other newBody is handed
//     over, the capability keeping no reference: the glue gives it to
//     bufpool once it is replaced or encoded, so take it from bufpool.
//     envelope must stay valid and unmodified until the frame is written
//     to the wire — possibly long after Process returns (a coalescer
//     holds a request until its flush) — so it is never pooled memory;
//     Frame.envelope hands out memory that lasts as long as the frame.
//   - Unprocess receives a body that aliases a frame only the receiver
//     references (wire.Read gives each message its own buffer; a batch's
//     sub-messages are disjoint views), or the output of the capability
//     un-processed before it, and may transform it in place. A rejected
//     frame yields no plaintext and its body must not be read again (a
//     failed AEAD open wipes it). envelope is read-only. The glue may
//     reuse the Frame once the call returns.
type Capability interface {
	// Kind names the capability type; it keys the constructor registry
	// and appears in wire envelopes.
	Kind() string
	// Applicable participates in glue applicability: the glue protocol
	// is applicable iff every constituent capability is (§4.3, "the
	// applicability of a glue protocol is the logical AND of all its
	// constituent capabilities").
	Applicable(client, server netsim.Locality) bool
	// Config serializes the capability for embedding in proto-data.
	Config() ([]byte, error)
	Process(f *Frame, body []byte) (newBody, envelope []byte, err error)
	Unprocess(f *Frame, envelope, body []byte) ([]byte, error)
}

// Exclusive is optionally implemented by capabilities whose live value
// carries per-instance state — counters, budgets — that must belong to
// exactly one glue installation. GlueEntry grants each Exclusive
// capability to the entry's tag and refuses a value that was already
// granted elsewhere: installing one stateful instance on two entries
// would silently merge both entries' state into a single set of
// counters (and, because glue entries serialize capabilities and
// rebuild them on each side, the shared original would never see the
// traffic either — every reading from it would be wrong twice over).
// Build a fresh instance per installation instead.
type Exclusive interface {
	// Grant claims the instance for the named installation. A second
	// Grant must return an error identifying the first owner.
	Grant(owner string) error
}

// grantAll claims every Exclusive capability in the chain for owner,
// stopping at the first refusal.
func grantAll(owner string, caps []Capability) error {
	for _, c := range caps {
		if ex, ok := c.(Exclusive); ok {
			if err := ex.Grant(owner); err != nil {
				return err
			}
		}
	}
	return nil
}

// Scope is a locality predicate shared by several capabilities: it says
// between which localities the capability applies. The paper's
// authentication capability uses cross-LAN ("applicable only when the
// client and the server are on different LANs"); its security capability
// in the Figure 4 experiment is cross-campus.
type Scope uint32

// Scopes.
const (
	// ScopeAlways applies everywhere.
	ScopeAlways Scope = iota
	// ScopeCrossMachine applies unless client and server share a machine.
	ScopeCrossMachine
	// ScopeCrossLAN applies unless client and server share a LAN.
	ScopeCrossLAN
	// ScopeCrossCampus applies unless client and server share a campus.
	ScopeCrossCampus
)

// Applies evaluates the scope for a locality pair.
func (s Scope) Applies(client, server netsim.Locality) bool {
	switch s {
	case ScopeCrossMachine:
		return !client.SameMachine(server)
	case ScopeCrossLAN:
		return !client.SameLAN(server)
	case ScopeCrossCampus:
		return !client.SameCampus(server)
	default:
		return true
	}
}

func (s Scope) String() string {
	switch s {
	case ScopeAlways:
		return "always"
	case ScopeCrossMachine:
		return "cross-machine"
	case ScopeCrossLAN:
		return "cross-lan"
	case ScopeCrossCampus:
		return "cross-campus"
	}
	return fmt.Sprintf("scope(%d)", uint32(s))
}

// Constructor builds a capability instance from its serialized config.
type Constructor func(config []byte) (Capability, error)

var (
	regMu    sync.RWMutex
	registry = make(map[string]Constructor)
)

// RegisterKind installs a constructor for a capability kind. Built-in
// kinds self-register; applications add custom kinds the same way.
func RegisterKind(kind string, ctor Constructor) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("capability: kind %q registered twice", kind))
	}
	registry[kind] = ctor
}

// New constructs a capability of the given kind from config.
func New(kind string, config []byte) (Capability, error) {
	regMu.RLock()
	ctor, ok := registry[kind]
	regMu.RUnlock()
	if !ok {
		return nil, errs.Newf(errs.Config, "capability: unknown kind %q", kind)
	}
	return ctor(config)
}

// Kinds lists the registered capability kinds, sorted.
func Kinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Rebuild reconstructs a capability chain from (kind, config) specs.
func Rebuild(specs []Spec) ([]Capability, error) {
	caps := make([]Capability, len(specs))
	for i, s := range specs {
		c, err := New(s.Kind, s.Config)
		if err != nil {
			return nil, err
		}
		caps[i] = c
	}
	return caps, nil
}

// Spec is the serialized form of one capability in a glue entry.
type Spec struct {
	Kind   string
	Config []byte
}

// MarshalXDR encodes the spec.
func (s *Spec) MarshalXDR(e *xdr.Encoder) error {
	e.PutString(s.Kind)
	e.PutOpaque(s.Config)
	return nil
}

// UnmarshalXDR decodes the spec.
func (s *Spec) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if s.Kind, err = d.String(); err != nil {
		return err
	}
	s.Config, err = d.Opaque()
	return err
}

// Specs serializes live capabilities into specs.
func Specs(caps []Capability) ([]Spec, error) {
	out := make([]Spec, len(caps))
	for i, c := range caps {
		cfg, err := c.Config()
		if err != nil {
			return nil, errs.Wrapf(errs.Codec, err, "capability: serializing %s", c.Kind())
		}
		out[i] = Spec{Kind: c.Kind(), Config: cfg}
	}
	return out, nil
}
