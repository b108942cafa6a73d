package capability

import (
	"crypto/hmac"
	"crypto/sha256"
	"hash"
	"sync"
)

// macPool is the keyed HMAC-SHA256 state of one Auth instance.
// Building an HMAC from its key costs five allocations and two SHA-256
// blocks; a pooled state pays that once and is Reset per message. The pool
// is free to build (the first message builds the first state): the glue
// factory rebuilds a chain on every selection.
type macPool struct {
	key  []byte
	pool sync.Pool // of *macState
}

// macState is the keyed hash, a scratch the header fields are assembled
// in (one Write for them, not seven) and the sum's storage.
type macState struct {
	h   hash.Hash
	hdr []byte
	sum [sha256.Size]byte
}

// sum MACs head ‖ ident ‖ object ‖ 0 ‖ method ‖ dir ‖ body: the frame
// identity and direction are bound into the tag, so a frame cannot be
// replayed across methods or flipped between request and reply.
func (p *macPool) sum(f *Frame, head []byte, ident string, body []byte) [sha256.Size]byte {
	s, _ := p.pool.Get().(*macState)
	if s == nil {
		s = &macState{h: hmac.New(sha256.New, p.key)}
	}
	defer p.pool.Put(s)
	s.h.Reset()
	hdr := append(s.hdr[:0], head...)
	hdr = append(hdr, ident...)
	hdr = append(append(hdr, f.Object...), 0)
	s.hdr = append(append(hdr, f.Method...), byte(f.Dir))
	s.h.Write(s.hdr)
	s.h.Write(body)
	s.h.Sum(s.sum[:0])
	return s.sum
}
