//go:build !amd64 && !arm64

package xdr

import "unsafe"

// swap moves nothing off amd64 and arm64: the per-word loops do it all.
func swap[T int32 | float64](dst, src unsafe.Pointer, n int) int { return 0 }
