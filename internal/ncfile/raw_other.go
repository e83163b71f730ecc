//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package ncfile

// rawBytes reports that no variable's stored bytes are this target's
// in-memory float64s: on a big-endian target every value converts
// through decodeValues and encodeValues.
func rawBytes(dataType, []float64) ([]byte, bool) { return nil, false }
