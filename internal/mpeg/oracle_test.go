package mpeg

import (
	"encoding/binary"
	"hash/crc32"
)

// The two-pass decoder the fused kernels replaced, kept as an oracle:
// expand each payload byte by byte into a fresh buffer, then add the I/P/B
// prediction pixel by pixel. Its pixels and its Corrupt/Dropped split are
// what Decoder must reproduce.

// refRLEDecodeInto expands src into dst, which it must fill exactly.
func refRLEDecodeInto(dst, src []byte) error {
	n := 0
	for i := 0; i < len(src); {
		if src[i] != rleEsc {
			if n == len(dst) {
				return errCorrupt("RLE output overruns frame")
			}
			dst[n] = src[i]
			n++
			i++
			continue
		}
		if i+2 >= len(src) {
			return errCorrupt("truncated RLE escape")
		}
		count := int(src[i+1])
		if count == 0 {
			return errCorrupt("zero-length RLE run")
		}
		if count > len(dst)-n {
			return errCorrupt("RLE output overruns frame")
		}
		for j := range count {
			dst[n+j] = src[i+2]
		}
		n += count
		i += 3
	}
	if n != len(dst) {
		return errCorrupt("RLE output short of frame")
	}
	return nil
}

// refDecode decodes a whole stream at once, keeps every frame and flushes
// the held anchor at the end.
func refDecode(stream []byte) (frames []Frame, corrupt, dropped int) {
	var prev, held Frame
	off := 0
	resync := func() {
		corrupt++
		for i := off + 1; i+1 < len(stream); i++ {
			if binary.LittleEndian.Uint16(stream[i:]) == frameMagic {
				off = i
				return
			}
		}
		off = len(stream)
	}
	for len(stream)-off >= headerBytes {
		b := stream[off:]
		if binary.LittleEndian.Uint16(b) != frameMagic {
			resync()
			continue
		}
		t := FrameType(b[2])
		seq := int(binary.LittleEndian.Uint32(b[3:]))
		w := int(binary.LittleEndian.Uint16(b[7:]))
		h := int(binary.LittleEndian.Uint16(b[9:]))
		plen := int(binary.LittleEndian.Uint32(b[11:]))
		ref1 := binary.LittleEndian.Uint32(b[19:])
		ref2 := binary.LittleEndian.Uint32(b[23:])
		if t != TypeI && t != TypeP && t != TypeB || w == 0 || h == 0 || plen > 16*w*h+1024 {
			resync()
			continue
		}
		if len(b) < headerBytes+plen {
			break
		}
		payload := b[headerBytes : headerBytes+plen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[15:]) {
			resync()
			continue
		}
		off += headerBytes + plen
		if w*h > 85*len(payload) {
			corrupt++
			continue
		}
		pix := make([]byte, w*h)
		if refRLEDecodeInto(pix, payload) != nil {
			corrupt++
			continue
		}
		f := Frame{Seq: seq, W: w, H: h, Pix: pix}
		switch t {
		case TypeI:
			for i := range pix {
				pix[i] += 128
			}
		case TypeP:
			ref := held
			if ref.Pix == nil {
				ref = prev
			}
			if ref.Pix == nil || uint32(ref.Seq) != ref1 || len(ref.Pix) != len(pix) {
				dropped++
				continue
			}
			for i := range pix {
				pix[i] += ref.Pix[i]
			}
		case TypeB:
			if prev.Pix == nil || held.Pix == nil ||
				uint32(prev.Seq) != ref1 || uint32(held.Seq) != ref2 ||
				len(prev.Pix) != len(pix) || len(held.Pix) != len(pix) {
				dropped++
				continue
			}
			for i := range pix {
				pix[i] += byte((uint16(prev.Pix[i]) + uint16(held.Pix[i])) / 2)
			}
			frames = append(frames, f)
			continue
		}
		if held.Pix != nil {
			frames = append(frames, held)
			prev = held
		}
		held = f
		if prev.Pix == nil {
			prev = f
		}
	}
	if held.Pix != nil {
		frames = append(frames, held)
	}
	return frames, corrupt, dropped
}
