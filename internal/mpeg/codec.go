package mpeg

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Frame packet layout (little endian):
//
//	magic   uint16  0x564D ("MV")
//	type    uint8   'I' | 'P' | 'B'
//	seq     uint32  display-order index
//	w, h    uint16
//	plen    uint32  payload (RLE) length
//	crc     uint32  CRC-32 (IEEE) of payload
//	ref1    uint32  P: reference anchor seq; B: preceding anchor seq
//	ref2    uint32  B: following anchor seq; otherwise noRef
//	payload plen bytes
//
// Carrying reference sequence numbers makes reconstruction self-validating:
// after a resync the decoder drops any frame whose references were lost
// rather than predicting from the wrong anchor.
const (
	frameMagic  = 0x564D
	headerBytes = 2 + 1 + 4 + 2 + 2 + 4 + 4 + 4 + 4
	noRef       = 0xFFFFFFFF
)

func putHeader(dst []byte, t FrameType, seq, w, h, plen int, crc, ref1, ref2 uint32) {
	binary.LittleEndian.PutUint16(dst[0:], frameMagic)
	dst[2] = byte(t)
	binary.LittleEndian.PutUint32(dst[3:], uint32(seq))
	binary.LittleEndian.PutUint16(dst[7:], uint16(w))
	binary.LittleEndian.PutUint16(dst[9:], uint16(h))
	binary.LittleEndian.PutUint32(dst[11:], uint32(plen))
	binary.LittleEndian.PutUint32(dst[15:], crc)
	binary.LittleEndian.PutUint32(dst[19:], ref1)
	binary.LittleEndian.PutUint32(dst[23:], ref2)
}

// Encoder compresses display-order frames into a decode-order bitstream.
type Encoder struct {
	cfg        Config
	out        []byte
	count      int     // frames accepted so far (display order)
	prevAnchor *Frame  // last reconstructed anchor
	pendingB   []Frame // display-order B frames awaiting the next anchor
}

// NewEncoder creates an encoder. Config must validate.
func NewEncoder(cfg Config) (*Encoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Encoder{cfg: cfg}, nil
}

// Add accepts the next display-order frame.
func (e *Encoder) Add(f Frame) error {
	if f.W != e.cfg.W || f.H != e.cfg.H || len(f.Pix) != f.W*f.H {
		return fmt.Errorf("mpeg: frame %d has wrong geometry", f.Seq)
	}
	idx := e.count
	e.count++
	posInGOP := idx % e.cfg.GOPSize

	isI := posInGOP == 0
	isAnchor := isI || e.cfg.BGap == 0 || (posInGOP%(e.cfg.BGap+1)) == 0

	if !isAnchor && e.prevAnchor != nil {
		e.pendingB = append(e.pendingB, f.Clone())
		return nil
	}

	// Anchor: emit it, then the buffered B frames that display before it.
	if isI || e.prevAnchor == nil {
		e.emit(TypeI, f, residualIntra(f.Pix), noRef, noRef)
	} else {
		e.emit(TypeP, f, residualDelta(f.Pix, e.prevAnchor.Pix), uint32(e.prevAnchor.Seq), noRef)
	}
	newAnchor := f.Clone()
	for _, b := range e.pendingB {
		e.emit(TypeB, b, residualBidir(b.Pix, e.prevAnchor.Pix, newAnchor.Pix),
			uint32(e.prevAnchor.Seq), uint32(newAnchor.Seq))
	}
	e.pendingB = e.pendingB[:0]
	e.prevAnchor = &newAnchor
	return nil
}

// Flush finalizes the stream: trailing B frames that never saw a following
// anchor are encoded as a P chain — each against the previous emitted
// frame, since the decoder's newest anchor advances with every P.
func (e *Encoder) Flush() {
	for _, b := range e.pendingB {
		e.emit(TypeP, b, residualDelta(b.Pix, e.prevAnchor.Pix), uint32(e.prevAnchor.Seq), noRef)
		next := b.Clone()
		e.prevAnchor = &next
	}
	e.pendingB = e.pendingB[:0]
}

// Bytes returns the bitstream so far.
func (e *Encoder) Bytes() []byte { return e.out }

func (e *Encoder) emit(t FrameType, f Frame, residual []byte, ref1, ref2 uint32) {
	payload := rleEncode(residual)
	crc := crc32.ChecksumIEEE(payload)
	hdr := make([]byte, headerBytes)
	putHeader(hdr, t, f.Seq, f.W, f.H, len(payload), crc, ref1, ref2)
	e.out = append(e.out, hdr...)
	e.out = append(e.out, payload...)
}

// Encode is the one-shot convenience: compress all frames and return the
// bitstream.
func Encode(cfg Config, frames []Frame) ([]byte, error) {
	enc, err := NewEncoder(cfg)
	if err != nil {
		return nil, err
	}
	for _, f := range frames {
		if err := enc.Add(f); err != nil {
			return nil, err
		}
	}
	enc.Flush()
	return enc.Bytes(), nil
}

func residualIntra(pix []byte) []byte {
	out := make([]byte, len(pix))
	for i, p := range pix {
		out[i] = p - 128
	}
	return out
}

func residualDelta(pix, ref []byte) []byte {
	out := make([]byte, len(pix))
	for i, p := range pix {
		out[i] = p - ref[i]
	}
	return out
}

func residualBidir(pix, prev, next []byte) []byte {
	out := make([]byte, len(pix))
	for i, p := range pix {
		pred := byte((uint16(prev[i]) + uint16(next[i])) / 2)
		out[i] = p - pred
	}
	return out
}

// Decoder consumes an arbitrary byte-chunked bitstream (the network
// delivers "arbitrary chunks of 1 kB", §6.4) and emits display-order frames.
// On corruption it resynchronizes at the next frame magic and drops frames
// whose references were lost.
type Decoder struct {
	buf        []byte
	prevAnchor *Frame // anchor already released for display
	heldAnchor *Frame // decoded anchor not yet displayed (awaiting its Bs)
	ready      []Frame

	// Corrupt counts resync events; Dropped counts intact frames skipped
	// for missing references.
	Corrupt int
	Dropped int
}

// NewDecoder returns an empty streaming decoder.
func NewDecoder() *Decoder { return &Decoder{} }

// Feed appends chunk to the stream and returns any frames that became
// displayable, in display order.
func (d *Decoder) Feed(chunk []byte) []Frame {
	d.buf = append(d.buf, chunk...)
	d.drain()
	out := d.ready
	d.ready = nil
	return out
}

// Flush returns the final held frame(s) at end of stream.
func (d *Decoder) Flush() []Frame {
	d.drain()
	if d.heldAnchor != nil {
		d.ready = append(d.ready, *d.heldAnchor)
		d.heldAnchor = nil
	}
	out := d.ready
	d.ready = nil
	return out
}

func (d *Decoder) drain() {
	for {
		if len(d.buf) < headerBytes {
			return
		}
		if binary.LittleEndian.Uint16(d.buf) != frameMagic {
			d.resync()
			continue
		}
		t := FrameType(d.buf[2])
		seq := int(binary.LittleEndian.Uint32(d.buf[3:]))
		w := int(binary.LittleEndian.Uint16(d.buf[7:]))
		h := int(binary.LittleEndian.Uint16(d.buf[9:]))
		plen := int(binary.LittleEndian.Uint32(d.buf[11:]))
		crc := binary.LittleEndian.Uint32(d.buf[15:])
		ref1 := binary.LittleEndian.Uint32(d.buf[19:])
		ref2 := binary.LittleEndian.Uint32(d.buf[23:])
		if t != TypeI && t != TypeP && t != TypeB || w == 0 || h == 0 || plen > 16*w*h+1024 {
			d.resync()
			continue
		}
		if len(d.buf) < headerBytes+plen {
			return // wait for more data
		}
		payload := d.buf[headerBytes : headerBytes+plen]
		if crc32.ChecksumIEEE(payload) != crc {
			d.resync()
			continue
		}
		residual, err := rleDecode(payload, w*h)
		d.buf = d.buf[headerBytes+plen:]
		if err != nil {
			d.Corrupt++
			continue
		}
		d.reconstruct(t, seq, w, h, ref1, ref2, residual)
	}
}

// resync drops bytes up to the next plausible magic.
func (d *Decoder) resync() {
	d.Corrupt++
	for i := 1; i+1 < len(d.buf); i++ {
		if binary.LittleEndian.Uint16(d.buf[i:]) == frameMagic {
			d.buf = d.buf[i:]
			return
		}
	}
	d.buf = nil
}

func (d *Decoder) reconstruct(t FrameType, seq, w, h int, ref1, ref2 uint32, residual []byte) {
	pix := make([]byte, w*h)
	switch t {
	case TypeI:
		for i, r := range residual {
			pix[i] = r + 128
		}
	case TypeP:
		ref := d.newestAnchor()
		if ref == nil || uint32(ref.Seq) != ref1 || len(ref.Pix) != w*h {
			d.Dropped++ // reference lost; wait for the next I
			return
		}
		for i, r := range residual {
			pix[i] = r + ref.Pix[i]
		}
	case TypeB:
		prev, next := d.prevAnchor, d.heldAnchor
		if prev == nil || next == nil ||
			uint32(prev.Seq) != ref1 || uint32(next.Seq) != ref2 ||
			len(prev.Pix) != w*h || len(next.Pix) != w*h {
			d.Dropped++
			return
		}
		for i, r := range residual {
			pred := byte((uint16(prev.Pix[i]) + uint16(next.Pix[i])) / 2)
			pix[i] = r + pred
		}
		d.ready = append(d.ready, Frame{Seq: seq, W: w, H: h, Pix: pix})
		return
	}

	// Anchor (I or P): displaying it must wait until its B frames (which
	// arrive after it but display before it) have been emitted. Emitting
	// the previously held anchor now preserves display order.
	f := Frame{Seq: seq, W: w, H: h, Pix: pix}
	if d.heldAnchor != nil {
		d.ready = append(d.ready, *d.heldAnchor)
		d.prevAnchor = d.heldAnchor
	}
	d.heldAnchor = &f
	if d.prevAnchor == nil {
		d.prevAnchor = &f
	}
}

func (d *Decoder) newestAnchor() *Frame {
	if d.heldAnchor != nil {
		return d.heldAnchor
	}
	return d.prevAnchor
}
