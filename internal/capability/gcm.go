package capability

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"openhpcxx/internal/errs"
)

const (
	gcmNonceLen = 12
	gcmTagLen   = 16
)

// gcm is what auth and encrypt each own: one AES-256-GCM, keyed once and
// safe for concurrent use, the nonce it has reached, and a scratch to lay
// the frame identity out in (on the stack it would escape through the AEAD).
type gcm struct {
	aead  cipher.AEAD
	start [gcmNonceLen]byte // 96 random bits per instance: message i goes out under start + i,
	sent  atomic.Uint64     // i added into the low eight bytes, so no message reads entropy
	ids   sync.Pool         // of *[]byte
}

// setKey keys the cipher with 32 bytes and draws the starting nonce; once,
// before first use.
func (g *gcm) setKey(key []byte) error {
	block, _ := aes.NewCipher(key)   // its one error is a key size other than 16, 24 or 32,
	g.aead, _ = cipher.NewGCM(block) // and this one's a block size other than 16
	g.ids.New = func() any { return new([]byte) }
	if _, err := rand.Read(g.start[:]); err != nil {
		return errs.Wrap(errs.Internal, err, "capability: no entropy for the nonce")
	}
	return nil
}

// nextNonce appends the next nonce to b.
func (g *gcm) nextNonce(b []byte) []byte {
	b = append(b, g.start[:]...)
	ctr := b[len(b)-8:]
	binary.BigEndian.PutUint64(ctr, binary.BigEndian.Uint64(ctr)+g.sent.Add(1))
	return b
}

// appendIdentity appends the frame identity a tag binds, so a frame cannot
// be replayed across objects or methods or flipped between request and
// reply: len32(object) ‖ object ‖ len32(method) ‖ method ‖ dir, injective.
func appendIdentity(b []byte, f *Frame) []byte {
	b = append(binary.BigEndian.AppendUint32(b, uint32(len(f.Object))), f.Object...)
	b = append(binary.BigEndian.AppendUint32(b, uint32(len(f.Method))), f.Method...)
	return append(b, byte(f.Dir))
}
