//go:build amd64 || arm64

package xdr

import (
	"math/bits"
	"unsafe"
)

// swap byte-reverses the first n&^31 bytes of src into dst, four words per
// iteration, and returns how many it moved. An int32 pair x1<<32|x0
// reverses to bswap(x0)<<32|bswap(x1); rotating by the element width (a
// constant: 64, a no-op, for doubles) puts the halves back. Sound: the
// elements hold no pointers (checkptr allows unaligned words), each range is
// one allocation, and amd64/arm64 are little-endian, fast at unaligned loads.
func swap[T int32 | float64](dst, src unsafe.Pointer, n int) int {
	rot, n := int(8*unsafe.Sizeof(T(0))), n&^31
	for i := 0; i < n; i += 32 {
		d, s := (*[4]uint64)(unsafe.Add(dst, i)), (*[4]uint64)(unsafe.Add(src, i))
		d[0] = bits.RotateLeft64(bits.ReverseBytes64(s[0]), rot)
		d[1] = bits.RotateLeft64(bits.ReverseBytes64(s[1]), rot)
		d[2] = bits.RotateLeft64(bits.ReverseBytes64(s[2]), rot)
		d[3] = bits.RotateLeft64(bits.ReverseBytes64(s[3]), rot)
	}
	return n
}
