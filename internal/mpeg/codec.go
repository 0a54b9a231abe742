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
//
// The frames it returns are read-only: an anchor's pixels stay the
// reference for the frames predicted from it. A caller done with a frame
// may hand it back with Release, and the decoder reconstructs a later frame
// into its buffer; a frame never released is left to the garbage collector.
type Decoder struct {
	buf        []byte
	off        int     // bytes of buf already consumed
	prevAnchor Frame   // anchor already released for display; nil Pix if none
	heldAnchor Frame   // decoded anchor awaiting its Bs; nil Pix if none
	ready      []Frame // frames displayable since the last Feed or Flush
	scanning   bool    // a resync has not yet reached the next magic

	free     [][]byte // released pixel buffers, ready for reuse
	orphaned [][]byte // released pixel buffers still serving as an anchor

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
	if d.off > 0 {
		d.buf = d.buf[:copy(d.buf, d.buf[d.off:])]
		d.off = 0
	}
	d.buf = append(d.buf, chunk...)
	d.drain()
	return d.takeReady()
}

// Flush returns the final held frame(s) at end of stream.
func (d *Decoder) Flush() []Frame {
	d.drain()
	if d.heldAnchor.Pix != nil {
		d.emit(d.heldAnchor)
		d.heldAnchor = Frame{}
		d.reclaimOrphans()
	}
	return d.takeReady()
}

// readyBlock is how many frames one array of ready frames holds.
const readyBlock = 16

// emit makes f displayable.
func (d *Decoder) emit(f Frame) {
	if len(d.ready) == cap(d.ready) {
		d.ready = append(make([]Frame, 0, len(d.ready)+readyBlock), d.ready...)
	}
	d.ready = append(d.ready, f)
}

// takeReady returns the frames emitted since the last call. Later frames
// go after them in the same array, so the caller may keep the slice, and a
// warm decoder allocates one array per readyBlock frames rather than one
// per call.
func (d *Decoder) takeReady() []Frame {
	out := d.ready[:len(d.ready):len(d.ready)]
	d.ready = d.ready[len(d.ready):]
	return out
}

// Release hands back a frame this decoder returned. The caller must not
// read f.Pix afterwards, and must release each frame at most once. The
// buffer is reused once the decoder no longer predicts from it.
func (d *Decoder) Release(f Frame) {
	if len(f.Pix) == 0 {
		return
	}
	if d.anchored(f.Pix) {
		d.orphaned = append(d.orphaned, f.Pix)
		return
	}
	d.free = append(d.free, f.Pix)
}

// anchored reports whether pix is the buffer of an anchor the decoder
// still predicts from.
func (d *Decoder) anchored(pix []byte) bool {
	return sameBuffer(d.prevAnchor.Pix, pix) || sameBuffer(d.heldAnchor.Pix, pix)
}

func sameBuffer(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// reclaimOrphans frees the released buffers that stopped being anchors.
func (d *Decoder) reclaimOrphans() {
	kept := d.orphaned[:0]
	for _, pix := range d.orphaned {
		if d.anchored(pix) {
			kept = append(kept, pix)
		} else {
			d.free = append(d.free, pix)
		}
	}
	clear(d.orphaned[len(kept):])
	d.orphaned = kept
}

// pixels returns an n-byte buffer, reusing a released one if it fits.
func (d *Decoder) pixels(n int) []byte {
	if k := len(d.free) - 1; k >= 0 {
		pix := d.free[k]
		d.free[k] = nil
		d.free = d.free[:k]
		if cap(pix) >= n {
			return pix[:n]
		}
	}
	return make([]byte, n)
}

func (d *Decoder) drain() {
	for {
		b := d.buf[d.off:]
		if len(b) < headerBytes {
			return
		}
		if binary.LittleEndian.Uint16(b) != frameMagic {
			d.resync()
			continue
		}
		d.scanning = false
		t := FrameType(b[2])
		seq := int(binary.LittleEndian.Uint32(b[3:]))
		w := int(binary.LittleEndian.Uint16(b[7:]))
		h := int(binary.LittleEndian.Uint16(b[9:]))
		plen := int(binary.LittleEndian.Uint32(b[11:]))
		crc := binary.LittleEndian.Uint32(b[15:])
		ref1 := binary.LittleEndian.Uint32(b[19:])
		ref2 := binary.LittleEndian.Uint32(b[23:])
		if t != TypeI && t != TypeP && t != TypeB || w == 0 || h == 0 || plen > 16*w*h+1024 {
			d.resync()
			continue
		}
		if len(b) < headerBytes+plen {
			return // wait for more data
		}
		payload := b[headerBytes : headerBytes+plen]
		if crc32.ChecksumIEEE(payload) != crc {
			d.resync()
			continue
		}
		d.off += headerBytes + plen
		// A 3-byte escape emits at most 255 bytes, so a payload expands to
		// at most 85 bytes per byte. w×h comes from the header: reject it
		// before reserving it, or one forged header allocates up to 4 GiB.
		if w*h > 85*len(payload) {
			d.Corrupt++
			continue
		}
		// The residual is walked even when the references are lost, so
		// a frame with corrupt RLE counts as Corrupt, never as Dropped.
		pix := d.pixels(w * h)
		predicted := d.predict(t, ref1, ref2, pix)
		switch err := rleAddInto(pix, payload); {
		case err != nil:
			d.Corrupt++
		case !predicted:
			d.Dropped++ // reference lost; wait for the next I
		default:
			d.accept(t, Frame{Seq: seq, W: w, H: h, Pix: pix})
			continue
		}
		d.free = append(d.free, pix)
	}
}

// resync drops bytes up to the next plausible magic. A scan that runs
// out of bytes keeps the last one, which may begin the magic, and resumes
// on the next Feed as the same resync event, so the counts do not depend
// on where the stream was split.
func (d *Decoder) resync() {
	if !d.scanning {
		d.Corrupt++
		d.scanning = true
	}
	b := d.buf[d.off:]
	for i := 1; i+1 < len(b); i++ {
		if binary.LittleEndian.Uint16(b[i:]) == frameMagic {
			d.off += i
			return
		}
	}
	d.off += len(b) - 1
}

// predict writes the frame's prediction into pix and reports whether its
// references are the anchors the decoder holds. It leaves pix alone when
// they are not.
func (d *Decoder) predict(t FrameType, ref1, ref2 uint32, pix []byte) bool {
	switch t {
	case TypeI:
		fill(pix, 128)
	case TypeP:
		ref := d.newestAnchor()
		if ref.Pix == nil || uint32(ref.Seq) != ref1 || len(ref.Pix) != len(pix) {
			return false
		}
		copy(pix, ref.Pix)
	case TypeB:
		prev, next := d.prevAnchor, d.heldAnchor
		if prev.Pix == nil || next.Pix == nil ||
			uint32(prev.Seq) != ref1 || uint32(next.Seq) != ref2 ||
			len(prev.Pix) != len(pix) || len(next.Pix) != len(pix) {
			return false
		}
		averageInto(pix, prev.Pix, next.Pix)
	}
	return true
}

// accept takes a decoded frame. A B frame is ready at once. An anchor
// (I or P) must wait until its B frames, which arrive after it but display
// before it, have been emitted: emitting the previously held anchor now
// preserves display order.
func (d *Decoder) accept(t FrameType, f Frame) {
	if t == TypeB {
		d.emit(f)
		return
	}
	if d.heldAnchor.Pix != nil {
		d.emit(d.heldAnchor)
		d.prevAnchor = d.heldAnchor
	}
	d.heldAnchor = f
	if d.prevAnchor.Pix == nil {
		d.prevAnchor = f
	}
	if len(d.orphaned) > 0 {
		d.reclaimOrphans()
	}
}

func (d *Decoder) newestAnchor() Frame {
	if d.heldAnchor.Pix != nil {
		return d.heldAnchor
	}
	return d.prevAnchor
}
