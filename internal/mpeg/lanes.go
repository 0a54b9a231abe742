package mpeg

import "encoding/binary"

// Pixel kernels that treat a uint64 as eight byte lanes. Masking off each
// lane's top bit before an add keeps a carry from crossing into the next
// lane; the top bits are then added without carry by XOR.
const (
	lanesOnes = 0x0101010101010101
	lanesLow7 = 0x7f7f7f7f7f7f7f7f
	lanesTop  = 0x8080808080808080
)

// fill sets every byte of dst to v.
func fill(dst []byte, v byte) {
	if len(dst) == 0 {
		return
	}
	dst[0] = v
	for n := 1; n < len(dst); n *= 2 {
		copy(dst[n:], dst[:n])
	}
}

// addRun adds v to every byte of dst, modulo 256.
func addRun(dst []byte, v byte) {
	y := uint64(v) * lanesOnes
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		x := binary.LittleEndian.Uint64(dst[i:])
		binary.LittleEndian.PutUint64(dst[i:], (x&lanesLow7+y&lanesLow7)^(x^y)&lanesTop)
	}
	for ; i < len(dst); i++ {
		dst[i] += v
	}
}

// averageInto sets dst[i] to the mean of a[i] and b[i], rounded down:
// a&b holds the bits both share, and (a^b)>>1 half of the rest.
func averageInto(dst, a, b []byte) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		x := binary.LittleEndian.Uint64(a[i:])
		y := binary.LittleEndian.Uint64(b[i:])
		binary.LittleEndian.PutUint64(dst[i:], x&y+(x^y)>>1&lanesLow7)
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i]&b[i] + (a[i]^b[i])>>1
	}
}
