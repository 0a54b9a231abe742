// Package mpeg implements a small MPEG-like video codec: intra (I) frames,
// forward-predicted (P) frames, and bidirectionally predicted (B) frames
// arranged in GOPs, with run-length entropy coding and a resynchronizing
// streaming decoder.
//
// The TiVoPC workload needs a stream whose structure matches what the
// paper's Streamer and Decoder components handle — "the three types of MPEG
// frames: the I-frame, P-frame and B-frame" (§6.2) — and whose decode is
// verifiable end to end. This codec is lossless (predictions are exact and
// residuals are RLE-coded), so tests can assert that what the client
// displays is bit-identical to what the server streamed.
//
// The bitstream is in decode order (anchors precede the B frames that
// reference them), as in real MPEG; the decoder reorders to display order.
package mpeg

import "fmt"

// FrameType distinguishes I, P and B frames.
type FrameType byte

// Frame types.
const (
	TypeI FrameType = 'I'
	TypeP FrameType = 'P'
	TypeB FrameType = 'B'
)

// Frame is one uncompressed grayscale picture.
type Frame struct {
	Seq  int // display-order index
	W, H int
	Pix  []byte // len W*H
}

// Clone returns a deep copy.
func (f Frame) Clone() Frame {
	p := make([]byte, len(f.Pix))
	copy(p, f.Pix)
	return Frame{Seq: f.Seq, W: f.W, H: f.H, Pix: p}
}

// Config describes the encoded stream structure.
type Config struct {
	W, H    int
	GOPSize int // frames per GOP (first is I)
	BGap    int // B frames between consecutive anchors (0 disables B)
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.W <= 0 || c.H <= 0 {
		return fmt.Errorf("mpeg: bad dimensions %dx%d", c.W, c.H)
	}
	if c.GOPSize <= 0 {
		return fmt.Errorf("mpeg: bad GOP size %d", c.GOPSize)
	}
	if c.BGap < 0 || c.BGap >= c.GOPSize {
		return fmt.Errorf("mpeg: bad B gap %d for GOP %d", c.BGap, c.GOPSize)
	}
	return nil
}

// --- Synthetic video source ---

// GenerateFrame produces the deterministic synthetic test pattern for
// display index seq: a drifting diagonal gradient with a moving bright box,
// so consecutive frames are similar (P/B frames compress) but not identical.
func GenerateFrame(cfg Config, seq int) Frame {
	return DrawFrame(cfg, seq, nil)
}

// DrawFrame is GenerateFrame drawing into pix's array when its capacity
// holds W*H pixels, and into a new one otherwise.
func DrawFrame(cfg Config, seq int, pix []byte) Frame {
	if cap(pix) < cfg.W*cfg.H {
		pix = make([]byte, cfg.W*cfg.H)
	}
	pix = pix[:cfg.W*cfg.H]
	// Blocky gradient: 32-pixel plateaus give the entropy coder realistic
	// runs, and the drift keeps inter-frame residuals sparse but non-zero.
	// Pixel (x, y) depends on x+y alone, so each row is the one above it
	// shifted left by one pixel.
	phase := seq * 3
	shade := func(d int) byte { return byte(((d + phase) >> 5) * 7) }
	w := cfg.W
	for x := range w {
		pix[x] = shade(x)
	}
	for y := 1; y < cfg.H; y++ {
		row := pix[y*w : (y+1)*w]
		copy(row, pix[(y-1)*w+1:y*w])
		row[w-1] = shade(w - 1 + y)
	}
	// Moving 16x16 box.
	bx := (seq * 7) % max(cfg.W-16, 1)
	by := (seq * 5) % max(cfg.H-16, 1)
	for y := by; y < by+16 && y < cfg.H; y++ {
		for x := bx; x < bx+16 && x < cfg.W; x++ {
			pix[y*cfg.W+x] = 250
		}
	}
	return Frame{Seq: seq, W: cfg.W, H: cfg.H, Pix: pix}
}

// GenerateVideo produces n consecutive synthetic frames.
func GenerateVideo(cfg Config, n int) []Frame {
	out := make([]Frame, n)
	for i := range out {
		out[i] = GenerateFrame(cfg, i)
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// --- Cost model ---
//
// Cycle costs charged to the simulated CPU that performs the work. They are
// calibrated to software MPEG-1/2 decode on early-2000s hardware: on the
// order of 100+ cycles per pixel for full decode (IDCT + motion comp).

// DecodeCostCycles estimates decode cost for one frame.
func DecodeCostCycles(w, h int, t FrameType) uint64 {
	px := uint64(w * h)
	switch t {
	case TypeI:
		return 20_000 + 140*px
	case TypeP:
		return 20_000 + 110*px
	default: // B: two references
		return 20_000 + 130*px
	}
}

// DecodeWorkingSetBytes reports the decoder's resident working set (current
// frame plus two reference frames) — what competes for L2 on a host decode
// and drives the paper's "+12% client misses, much of [it] due to the MPEG
// decoding process" observation.
func DecodeWorkingSetBytes(w, h int) int { return 3 * w * h }
