// Package bufpool lends the ORB's payload-sized byte buffers — write
// frames, server read frames, shm packets, typed-stub reply buffers — so
// the buffer one hop releases is the buffer the next hop takes. Put is
// optional: a buffer never handed back is ordinary garbage.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Size classes run from 64 B to 4 MiB, eight to a power of two: a frame
// just past 256 KiB (the paper's bandwidth experiment) pins 288 KiB, not
// 512. Anything larger is rare enough that keeping it would cost more live
// heap than the allocation it saves.
const minShift, minSize, maxSize, steps = 6, 1 << 6, 4 << 20, 8

// classes[i] holds base pointers of class i's buffers: a pointer goes
// into sync.Pool's interface word without the allocation a slice costs.
var classes [steps*(22-minShift) + 1]sync.Pool

// class returns the smallest class size that holds n bytes, and its index.
func class(n int) (size, index int) {
	if n <= minSize {
		return minSize, 0
	}
	e := bits.Len(uint(n-1)) - 1 // 1<<e < n <= 2<<e
	step := 1 << e / steps
	q := (n - 1<<e + step - 1) / step // 1..steps
	return 1<<e + q*step, steps*(e-minShift) + q
}

// kept holds buffers of keepMin bytes and up outside sync.Pool, which the
// collector empties at every cycle. A bulk exchange allocates a payload or
// two per call, so a cycle comes every few calls, and a pool that forgets
// that often refills by allocating — more or less of it as the collector's
// timing falls, run to run. Kept are at most keepDepth buffers a class (a
// bulk call has up to four in flight) and keepBytes in all, in the classes
// where a Get or Put is rare enough for one lock.
const keepMin, keepDepth, keepBytes = 32 << 10, 8, 4 << 20

var kept struct {
	sync.Mutex
	bytes int
	bufs  [len(classes)][]*byte
}

var poison atomic.Bool // tests only: released memory reads 0xDB, not stale bytes

// Get returns a buffer of length n. Its contents are unspecified.
func Get(n int) []byte {
	if n > maxSize {
		return make([]byte, n)
	}
	size, i := class(n)
	if size >= keepMin {
		kept.Lock()
		if k := len(kept.bufs[i]) - 1; k >= 0 {
			p := kept.bufs[i][k]
			kept.bufs[i][k], kept.bufs[i], kept.bytes = nil, kept.bufs[i][:k], kept.bytes-size
			kept.Unlock()
			return unsafe.Slice(p, size)[:n]
		}
		kept.Unlock()
	}
	if p, _ := classes[i].Get().(*byte); p != nil {
		return unsafe.Slice(p, size)[:n]
	}
	return make([]byte, n, size)
}

// Put takes back a buffer Get returned (or a prefix of it); the caller
// keeps no reference, since the next Get may return the same memory. A
// capacity that is not a pooled class is left to the collector.
func Put(b []byte) {
	size, i := class(cap(b))
	if size != cap(b) || size > maxSize {
		return
	}
	b = b[:size]
	if poison.Load() {
		for j := range b {
			b[j] = 0xDB
		}
	}
	if size >= keepMin {
		kept.Lock()
		if len(kept.bufs[i]) < keepDepth && kept.bytes+size <= keepBytes {
			kept.bufs[i], kept.bytes = append(kept.bufs[i], unsafe.SliceData(b)), kept.bytes+size
			kept.Unlock()
			return
		}
		kept.Unlock()
	}
	classes[i].Put(unsafe.SliceData(b))
}
