//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package ncfile

import "unsafe"

// rawBytes returns the memory of vals as the bytes a variable of type t
// stores them as, when those are the same bytes: a Float64 variable's
// little-endian IEEE-754 payload is exactly how this target holds
// float64s, so a read lands in vals and a write leaves from it with no
// per-element conversion, bit for bit. ok is false for int64Type variables,
// whose values convert through decodeValues and encodeValues.
func rawBytes(t dataType, vals []float64) (b []byte, ok bool) {
	if t != Float64 {
		return nil, false
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*8), true
}
