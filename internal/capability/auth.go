package capability

import (
	"cmp"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"

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

// authKeyLabel separates auth's AES key from any other use of the same
// secret bytes (an encrypt key, say): the key is HMAC-SHA256(secret, label).
const authKeyLabel = "openhpcxx/auth/v2"

// Auth authenticates every request (and reply) with one AES-256-GCM tag:
// the frame identity — len32(principal) ‖ principal ‖ object, method and
// direction as appendIdentity lays them out — is sealed under a fresh nonce
// with the body as additional data, and only the nonce and the 16-byte tag
// are sent. The receiver knows the identity, seals it again and compares
// tags, so the body is read once (by GHASH) and never copied. Both sides
// share the secret through the capability config.
type Auth struct {
	gcm       // keyed with HMAC-SHA256(secret, authKeyLabel)
	principal string
	secret    []byte // what the config carries
	scope     Scope
	head      []byte // the envelope as far as the nonce: XDR principal, then the nonce's length
}

// NewAuth builds an authentication capability for a principal.
func NewAuth(principal string, secret []byte, scope Scope) (*Auth, error) {
	if principal == "" {
		return nil, errs.New(errs.Config, "capability: auth requires a principal")
	}
	if len(secret) == 0 {
		return nil, errs.New(errs.Config, "capability: auth requires a secret")
	}
	a := &Auth{principal: principal, secret: append([]byte(nil), secret...), scope: scope}
	kdf := hmac.New(sha256.New, a.secret)
	kdf.Write([]byte(authKeyLabel))
	if err := a.setKey(kdf.Sum(nil)); err != nil {
		return nil, err
	}
	var e xdr.Encoder
	e.PutString(principal)
	e.PutUint32(gcmNonceLen)
	a.head = e.Bytes()
	return a, nil
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
	return xdr.Marshal(&authConfig{Principal: a.principal, Secret: a.secret, Scope: a.scope})
}

// tag seals the identity of f under nonce with body as additional data and
// keeps the tag alone; the ciphertext is never sent. The identity opens
// with the first 4 + len(principal) bytes of head: an XDR string starts
// with the same big-endian length appendIdentity writes.
func (a *Auth) tag(f *Frame, nonce, body []byte) (tag [gcmTagLen]byte) {
	id := a.ids.Get().(*[]byte)
	plain := appendIdentity(append((*id)[:0], a.head[:4+len(a.principal)]...), f)
	*id = a.aead.Seal(plain[:0], nonce, plain, body) // in place
	copy(tag[:], (*id)[len(plain):])
	a.ids.Put(id)
	return tag
}

// Process tags the body; the body itself is unchanged. The envelope —
// XDR {string principal, opaque nonce[12], opaque tag[16]} — is laid out
// once at its exact size.
func (a *Auth) Process(f *Frame, body []byte) ([]byte, []byte, error) {
	env := append(f.envelope(len(a.head) + gcmNonceLen + 4 + gcmTagLen)[:0], a.head...)
	env = a.nextNonce(env)
	tag := a.tag(f, env[len(a.head):], body)
	return body, append(append(env, 0, 0, 0, gcmTagLen), tag[:]...), nil
}

// Unprocess verifies the tag; the envelope's fields are views. A peer that
// still signs with HMAC-SHA256 sends a 16-byte nonce and is refused there,
// before the key is used.
func (a *Auth) Unprocess(f *Frame, envelope, body []byte) ([]byte, error) {
	var d xdr.Decoder
	d.Reset(envelope)
	principal, e1 := d.OpaqueView()
	nonce, e2 := d.OpaqueView()
	tag, e3 := d.OpaqueView()
	if err := cmp.Or(e1, e2, e3); err != nil {
		return nil, wire.Faultf(wire.FaultAuth, "auth envelope: %v", err)
	}
	if d.Remaining() != 0 {
		return nil, wire.Faultf(wire.FaultAuth, "auth envelope: %d trailing bytes", d.Remaining())
	}
	if string(principal) != a.principal {
		return nil, wire.Faultf(wire.FaultAuth, "unknown principal %q", principal)
	}
	if len(nonce) != gcmNonceLen {
		return nil, wire.Faultf(wire.FaultAuth, "auth nonce has %d bytes", len(nonce))
	}
	if want := a.tag(f, nonce, body); subtle.ConstantTimeCompare(tag, want[:]) != 1 { // 0 for a tag of another length
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
