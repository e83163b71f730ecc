package kv

import "encoding/binary"

// FixedBytes reads a well-formed spill and returns the bytes its blocks
// spend on fixed-width value columns — the statistics, counts and sample
// counts their masks store — and the pairs of each block, in order.
func FixedBytes(data []byte) (fixed int, blocks []int) {
	le := binary.LittleEndian
	n := int(le.Uint32(data[24:28]))
	data = data[spillHeaderLen:]
	for b := 0; b < n; b++ {
		pairs, rawLen := int(le.Uint32(data[0:4])), int(le.Uint32(data[4:8]))
		fixed += pairs * colWidth(data[blockHeaderLen])
		blocks = append(blocks, pairs)
		data = data[blockHeaderLen+rawLen:]
	}
	return fixed, blocks
}
