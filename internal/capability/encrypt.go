package capability

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"

	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// KindEncrypt names the encryption capability (the paper's C1 in
// Figure 2: "a capability that encrypts the data transferred between
// the client and the server").
const KindEncrypt = "encrypt"

// Encrypt is an authenticated-encryption capability: AES-256-CTR over
// the body with an HMAC-SHA256 tag (encrypt-then-MAC). The key is a
// pre-shared secret carried in the capability config; whoever holds the
// object reference holds the key — capabilities are bearer tokens in
// this model (see DESIGN.md for the trust-model substitution).
type Encrypt struct {
	block cipher.Block // AES keyed once; safe for concurrent use
	macs  macPool      // holds the 32-byte key
	scope Scope
}

// NewEncrypt builds an encryption capability with a 32-byte key.
func NewEncrypt(key []byte, scope Scope) (*Encrypt, error) {
	if len(key) != 32 {
		return nil, errs.Newf(errs.Config, "capability: encrypt key must be 32 bytes, got %d", len(key))
	}
	key = append([]byte(nil), key...)
	block, _ := aes.NewCipher(key) // its one error is a key size other than 16, 24 or 32
	return &Encrypt{block: block, macs: macPool{key: key}, scope: scope}, nil
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
	return xdr.Marshal(&encryptConfig{Key: e.macs.key, Scope: e.scope})
}

const encIVLen = aes.BlockSize

// Process encrypts body and emits {iv, mac} as the envelope. body is the
// caller's (see Capability), so the ciphertext gets a buffer of its own;
// the envelope rides behind it in the same allocation.
func (e *Encrypt) Process(f *Frame, body []byte) ([]byte, []byte, error) {
	buf := make([]byte, len(body)+encIVLen+sha256.Size)
	ct, env := buf[:len(body):len(body)], buf[len(body):]
	iv := env[:encIVLen]
	if _, err := rand.Read(iv); err != nil {
		return nil, nil, err
	}
	cipher.NewCTR(e.block, iv).XORKeyStream(ct, body)
	mac := e.macs.sum(f, iv, "", ct)
	copy(env[encIVLen:], mac[:])
	return ct, env, nil
}

// Unprocess verifies the MAC, then decrypts body in place: the receiver
// owns it (see Capability), and a frame whose MAC fails is left untouched.
func (e *Encrypt) Unprocess(f *Frame, envelope, body []byte) ([]byte, error) {
	if len(envelope) != encIVLen+sha256.Size {
		return nil, wire.Faultf(wire.FaultCapability, "encrypt envelope has %d bytes", len(envelope))
	}
	iv, tag := envelope[:encIVLen], envelope[encIVLen:]
	if want := e.macs.sum(f, iv, "", body); !hmac.Equal(tag, want[:]) {
		return nil, wire.Faultf(wire.FaultCapability, "encrypt: MAC verification failed")
	}
	cipher.NewCTR(e.block, iv).XORKeyStream(body, body)
	return body, nil
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
