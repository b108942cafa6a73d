package capability

import (
	"crypto/rand"

	"openhpcxx/internal/bufpool"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// KindEncrypt names the encryption capability (the paper's C1 in
// Figure 2: "a capability that encrypts the data transferred between
// the client and the server").
const KindEncrypt = "encrypt"

// Encrypt is an authenticated-encryption capability: AES-256-GCM, one pass
// over the body. The envelope is the 12-byte nonce and the body becomes
// ciphertext ‖ 16-byte tag (Open wants those two contiguous, and a received
// envelope and body are separate slices). The key is a pre-shared secret
// carried in the capability config; whoever holds the object reference
// holds the key — capabilities are bearer tokens in this model (see
// DESIGN.md for the trust-model substitution).
type Encrypt struct {
	gcm
	key   []byte
	scope Scope
}

// NewEncrypt builds an encryption capability with a 32-byte key.
func NewEncrypt(key []byte, scope Scope) (*Encrypt, error) {
	if len(key) != 32 {
		return nil, errs.Newf(errs.Config, "capability: encrypt key must be 32 bytes, got %d", len(key))
	}
	e := &Encrypt{key: append([]byte(nil), key...), scope: scope}
	if err := e.setKey(e.key); err != nil {
		return nil, err
	}
	return e, nil
}

// MustNewEncrypt is NewEncrypt, panicking on a bad key (fixture use).
func MustNewEncrypt(key []byte, scope Scope) *Encrypt {
	e, err := NewEncrypt(key, scope)
	if err != nil {
		panic(err)
	}
	return e
}

// NewRandomEncrypt builds an encryption capability with a fresh key.
func NewRandomEncrypt(scope Scope) *Encrypt {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		panic("capability: no entropy: " + err.Error())
	}
	return MustNewEncrypt(key, scope)
}

// Kind implements Capability.
func (*Encrypt) Kind() string { return KindEncrypt }

// Applicable implements Capability.
func (e *Encrypt) Applicable(client, server netsim.Locality) bool {
	return e.scope.Applies(client, server)
}

type encryptConfig struct {
	Key   []byte
	Scope Scope
}

func (c *encryptConfig) MarshalXDR(e *xdr.Encoder) error {
	e.PutOpaque(c.Key)
	e.PutUint32(uint32(c.Scope))
	return nil
}

func (c *encryptConfig) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if c.Key, err = d.Opaque(); err != nil {
		return err
	}
	s, err := d.Uint32()
	c.Scope = Scope(s)
	return err
}

// Config implements Capability.
func (e *Encrypt) Config() ([]byte, error) {
	return xdr.Marshal(&encryptConfig{Key: e.key, Scope: e.scope})
}

// Process seals body under the next nonce, which is the envelope, with the
// frame identity as additional data. body is the caller's (see Capability),
// so the sealed body gets a buffer of its own, lent by bufpool and handed
// over to the chain.
func (e *Encrypt) Process(f *Frame, body []byte) ([]byte, []byte, error) {
	nonce := e.nextNonce(f.envelope(gcmNonceLen)[:0])
	aad := e.ids.Get().(*[]byte)
	*aad = appendIdentity((*aad)[:0], f)
	sealed := e.aead.Seal(bufpool.Get(len(body) + gcmTagLen)[:0], nonce, body, *aad)
	e.ids.Put(aad)
	return sealed, nonce, nil
}

// Unprocess opens body in place: the receiver owns it (see Capability).
// A frame whose tag fails yields no plaintext — Open wipes what it wrote —
// so a rejected body must not be read again.
func (e *Encrypt) Unprocess(f *Frame, envelope, body []byte) ([]byte, error) {
	if len(envelope) != gcmNonceLen {
		return nil, wire.Faultf(wire.FaultCapability, "encrypt envelope has %d bytes", len(envelope))
	}
	aad := e.ids.Get().(*[]byte)
	*aad = appendIdentity((*aad)[:0], f)
	plain, err := e.aead.Open(body[:0], envelope, body, *aad)
	e.ids.Put(aad)
	if err != nil { // the tag failed, or body is shorter than one
		return nil, wire.Faultf(wire.FaultCapability, "encrypt: authentication failed")
	}
	return plain, nil
}

func init() {
	RegisterKind(KindEncrypt, func(config []byte) (Capability, error) {
		c := new(encryptConfig)
		if err := xdr.Unmarshal(config, c); err != nil {
			return nil, errs.Wrap(errs.Codec, err, "capability: encrypt config")
		}
		return NewEncrypt(c.Key, c.Scope)
	})
}
