package capability

import (
	"cmp"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"strings"

	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// KindAuth names the authentication capability of the paper's Figure 3
// scenario: servers require clients connecting from outside their LAN to
// authenticate each remote request, while local clients go unchecked —
// expressed here as a cross-LAN applicability scope.
const KindAuth = "auth"

// Auth authenticates every request (and reply) with an HMAC-SHA256
// signature over the frame identity, a fresh nonce, and the body. Both
// sides share the secret through the capability config.
type Auth struct {
	principal string
	ident     string  // principal ‖ 0, as the MAC covers it
	macs      macPool // holds the secret
	scope     Scope
}

// NewAuth builds an authentication capability for a principal.
func NewAuth(principal string, secret []byte, scope Scope) (*Auth, error) {
	if principal == "" {
		return nil, errs.New(errs.Config, "capability: auth requires a principal")
	}
	if len(secret) == 0 {
		return nil, errs.New(errs.Config, "capability: auth requires a secret")
	}
	return &Auth{principal: principal, ident: principal + "\x00", macs: macPool{key: append([]byte(nil), secret...)}, scope: scope}, nil
}

// MustNewAuth is NewAuth, panicking on error (fixture use).
func MustNewAuth(principal string, secret []byte, scope Scope) *Auth {
	a, err := NewAuth(principal, secret, scope)
	if err != nil {
		panic(err)
	}
	return a
}

// Principal returns the authenticated identity.
func (a *Auth) Principal() string { return a.principal }

// Kind implements Capability.
func (*Auth) Kind() string { return KindAuth }

// Applicable implements Capability.
func (a *Auth) Applicable(client, server netsim.Locality) bool {
	return a.scope.Applies(client, server)
}

type authConfig struct {
	Principal string
	Secret    []byte
	Scope     Scope
}

func (c *authConfig) MarshalXDR(e *xdr.Encoder) error {
	e.PutString(c.Principal)
	e.PutOpaque(c.Secret)
	e.PutUint32(uint32(c.Scope))
	return nil
}

func (c *authConfig) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if c.Principal, err = d.String(); err != nil {
		return err
	}
	if c.Secret, err = d.Opaque(); err != nil {
		return err
	}
	s, err := d.Uint32()
	c.Scope = Scope(s)
	return err
}

// Config implements Capability.
func (a *Auth) Config() ([]byte, error) {
	return xdr.Marshal(&authConfig{Principal: a.principal, Secret: a.macs.key, Scope: a.scope})
}

const authNonceLen = 16

// hasNUL reports a frame identity the MAC input, object ‖ 0 ‖ method, would
// read two ways; no legitimate id or method name holds a NUL.
func hasNUL(f *Frame) bool {
	return strings.IndexByte(f.Object, 0) >= 0 || strings.IndexByte(f.Method, 0) >= 0
}

// Process signs the body; the body itself is unchanged. The envelope —
// XDR {string principal, opaque nonce, opaque mac} — is laid out once at
// its exact size, the nonce drawn straight into its slot.
func (a *Auth) Process(f *Frame, body []byte) ([]byte, []byte, error) {
	if hasNUL(f) {
		return nil, nil, wire.Faultf(wire.FaultAuth, "auth: NUL in object %q or method %q", f.Object, f.Method)
	}
	at := 4 + (len(a.principal)+3)&^3 + 4 // XDR pads the principal; the other two are whole words
	var e xdr.Encoder
	e.SetBuf(f.envelope(at + authNonceLen + 4 + sha256.Size)[:0])
	e.PutString(a.principal)
	e.PutOpaque(make([]byte, authNonceLen)) // on the stack: only reserves the slot
	nonce := e.Bytes()[at:]
	if _, err := rand.Read(nonce); err != nil {
		return nil, nil, err
	}
	mac := a.macs.sum(f, nonce, a.ident, body)
	e.PutOpaque(mac[:])
	return body, e.Bytes(), nil
}

// Unprocess verifies the signature; the envelope's fields are views.
func (a *Auth) Unprocess(f *Frame, envelope, body []byte) ([]byte, error) {
	var d xdr.Decoder
	d.Reset(envelope)
	principal, e1 := d.OpaqueView()
	nonce, e2 := d.OpaqueView()
	mac, e3 := d.OpaqueView()
	if err := cmp.Or(e1, e2, e3); err != nil {
		return nil, wire.Faultf(wire.FaultAuth, "auth envelope: %v", err)
	}
	if d.Remaining() != 0 {
		return nil, wire.Faultf(wire.FaultAuth, "auth envelope: %d trailing bytes", d.Remaining())
	}
	if string(principal) != a.principal {
		return nil, wire.Faultf(wire.FaultAuth, "unknown principal %q", principal)
	}
	if len(nonce) != authNonceLen {
		return nil, wire.Faultf(wire.FaultAuth, "auth nonce has %d bytes", len(nonce))
	}
	if want := a.macs.sum(f, nonce, a.ident, body); hasNUL(f) || !hmac.Equal(mac, want[:]) {
		return nil, wire.Faultf(wire.FaultAuth, "signature verification failed for %q", a.principal)
	}
	return body, nil
}

func init() {
	RegisterKind(KindAuth, func(config []byte) (Capability, error) {
		c := new(authConfig)
		if err := xdr.Unmarshal(config, c); err != nil {
			return nil, errs.Wrap(errs.Codec, err, "capability: auth config")
		}
		return NewAuth(c.Principal, c.Secret, c.Scope)
	})
}
