package mpeg

import (
	"bytes"
	"testing"
	"testing/quick"
)

func smallCfg() Config { return Config{W: 32, H: 24, GOPSize: 6, BGap: 2} }

func framesEqual(a, b Frame) bool {
	return a.W == b.W && a.H == b.H && bytes.Equal(a.Pix, b.Pix)
}

func TestRLERoundTrip(t *testing.T) {
	cases := [][]byte{
		{},
		{1},
		{1, 2, 3},
		{5, 5, 5, 5, 5},
		bytes.Repeat([]byte{0}, 1000),
		{rleEsc},
		{rleEsc, rleEsc, rleEsc, rleEsc},
		{1, rleEsc, 2},
	}
	for i, src := range cases {
		enc := rleEncode(src)
		dec, err := rleDecode(enc, len(src))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("case %d: roundtrip mismatch", i)
		}
	}
}

func TestRLERoundTripProperty(t *testing.T) {
	prop := func(src []byte) bool {
		enc := rleEncode(src)
		dec, err := rleDecode(enc, len(src))
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRLECompressesRuns(t *testing.T) {
	src := bytes.Repeat([]byte{7}, 10000)
	enc := rleEncode(src)
	if len(enc) > 200 {
		t.Fatalf("RLE of constant input = %d bytes, want small", len(enc))
	}
}

func TestRLEDecodeErrors(t *testing.T) {
	if _, err := rleDecode([]byte{rleEsc}, 10); err == nil {
		t.Error("truncated escape accepted")
	}
	if _, err := rleDecode([]byte{rleEsc, 0, 1}, 10); err == nil {
		t.Error("zero run accepted")
	}
	if _, err := rleDecode([]byte{1, 2}, 1); err == nil {
		t.Error("overrun accepted")
	}
	if _, err := rleDecode([]byte{1}, 2); err == nil {
		t.Error("short output accepted")
	}
}

func TestEncodeDecodeLossless(t *testing.T) {
	cfg := smallCfg()
	frames := GenerateVideo(cfg, 25)
	stream, err := Encode(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	got := dec.Feed(stream)
	got = append(got, dec.Flush()...)
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i, f := range got {
		if f.Seq != i {
			t.Fatalf("frame %d has seq %d: display order broken", i, f.Seq)
		}
		if !framesEqual(f, frames[i]) {
			t.Fatalf("frame %d differs from source", i)
		}
	}
	if dec.Corrupt != 0 {
		t.Fatalf("corrupt events on clean stream: %d", dec.Corrupt)
	}
}

func TestEncodeDecodeNoBFrames(t *testing.T) {
	cfg := Config{W: 16, H: 16, GOPSize: 4, BGap: 0}
	frames := GenerateVideo(cfg, 10)
	stream, err := Encode(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	got := append(dec.Feed(stream), dec.Flush()...)
	if len(got) != 10 {
		t.Fatalf("decoded %d frames", len(got))
	}
	for i, f := range got {
		if !framesEqual(f, frames[i]) {
			t.Fatalf("frame %d differs", i)
		}
	}
}

func TestTrailingBFrames(t *testing.T) {
	// 12 frames with GOP 12 / BGap 2 leave TWO trailing B frames (10, 11)
	// with no following anchor; Flush must chain them as P frames the
	// decoder can reference. Regression for an off-by-one where the
	// second trailing frame referenced a stale anchor.
	cfg := Config{W: 32, H: 24, GOPSize: 12, BGap: 2}
	frames := GenerateVideo(cfg, 12)
	stream, err := Encode(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	got := append(dec.Feed(stream), dec.Flush()...)
	if len(got) != 12 {
		t.Fatalf("decoded %d frames, want 12 (dropped=%d)", len(got), dec.Dropped)
	}
	for i, f := range got {
		if !framesEqual(f, frames[i]) {
			t.Fatalf("frame %d differs", i)
		}
	}
}

func TestChunkedFeed(t *testing.T) {
	cfg := smallCfg()
	frames := GenerateVideo(cfg, 25)
	stream, _ := Encode(cfg, frames)
	// Feed in 1 kB chunks exactly as the TiVoPC server streams (§6.4).
	dec := NewDecoder()
	var got []Frame
	for off := 0; off < len(stream); off += 1024 {
		end := off + 1024
		if end > len(stream) {
			end = len(stream)
		}
		got = append(got, dec.Feed(stream[off:end])...)
	}
	got = append(got, dec.Flush()...)
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i := range got {
		if !framesEqual(got[i], frames[i]) {
			t.Fatalf("frame %d differs under chunked feed", i)
		}
	}
}

func TestChunkSizeInvariance(t *testing.T) {
	cfg := smallCfg()
	stream, _ := Encode(cfg, GenerateVideo(cfg, 13))
	var reference []Frame
	for _, size := range []int{1, 7, 64, 1024, len(stream)} {
		dec := NewDecoder()
		var got []Frame
		for off := 0; off < len(stream); off += size {
			end := off + size
			if end > len(stream) {
				end = len(stream)
			}
			got = append(got, dec.Feed(stream[off:end])...)
		}
		got = append(got, dec.Flush()...)
		if reference == nil {
			reference = got
			continue
		}
		if len(got) != len(reference) {
			t.Fatalf("chunk %d: %d frames vs %d", size, len(got), len(reference))
		}
		for i := range got {
			if !framesEqual(got[i], reference[i]) {
				t.Fatalf("chunk %d: frame %d differs", size, i)
			}
		}
	}
}

func TestFrameTypesPresent(t *testing.T) {
	cfg := smallCfg()
	stream, _ := Encode(cfg, GenerateVideo(cfg, 24))
	counts := map[FrameType]int{}
	// Walk headers.
	for off := 0; off+headerBytes <= len(stream); {
		t0 := FrameType(stream[off+2])
		plen := int(uint32(stream[off+11]) | uint32(stream[off+12])<<8 |
			uint32(stream[off+13])<<16 | uint32(stream[off+14])<<24)
		counts[t0]++
		off += headerBytes + plen
	}
	if counts[TypeI] == 0 || counts[TypeP] == 0 || counts[TypeB] == 0 {
		t.Fatalf("stream missing frame types: %v", counts)
	}
	// GOP 6, BGap 2 over 24 frames: I at 0,6,12,18 → 4 I frames.
	if counts[TypeI] != 4 {
		t.Fatalf("I frames = %d, want 4", counts[TypeI])
	}
}

func TestCompression(t *testing.T) {
	cfg := Config{W: 320, H: 240, GOPSize: 12, BGap: 2}
	frames := GenerateVideo(cfg, 24)
	stream, _ := Encode(cfg, frames)
	raw := 24 * cfg.W * cfg.H
	if len(stream) >= raw {
		t.Fatalf("no compression: %d >= %d", len(stream), raw)
	}
	ratio := float64(raw) / float64(len(stream))
	if ratio < 2 {
		t.Fatalf("compression ratio %.2f, want > 2 (P/B prediction broken?)", ratio)
	}
}

func TestResyncAfterCorruption(t *testing.T) {
	cfg := smallCfg()
	frames := GenerateVideo(cfg, 25)
	stream, _ := Encode(cfg, frames)
	// Corrupt a byte inside the second frame's payload.
	corrupted := append([]byte(nil), stream...)
	corrupted[headerBytes+50] ^= 0xFF
	dec := NewDecoder()
	got := append(dec.Feed(corrupted), dec.Flush()...)
	if dec.Corrupt == 0 {
		t.Fatal("corruption not detected")
	}
	if len(got) == 0 || len(got) >= len(frames) {
		t.Fatalf("decoded %d frames from corrupted stream, want some but not all", len(got))
	}
	// Everything decoded must be bit-correct (CRC protects payloads).
	bySeq := map[int]Frame{}
	for _, f := range frames {
		bySeq[f.Seq] = f
	}
	for _, f := range got {
		if !framesEqual(f, bySeq[f.Seq]) {
			t.Fatalf("frame %d decoded incorrectly after resync", f.Seq)
		}
	}
}

func TestGarbageInput(t *testing.T) {
	dec := NewDecoder()
	got := dec.Feed(bytes.Repeat([]byte{0xAB}, 10000))
	got = append(got, dec.Flush()...)
	if len(got) != 0 {
		t.Fatalf("decoded %d frames from garbage", len(got))
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{W: 0, H: 10, GOPSize: 4},
		{W: 10, H: 0, GOPSize: 4},
		{W: 10, H: 10, GOPSize: 0},
		{W: 10, H: 10, GOPSize: 4, BGap: -1},
		{W: 10, H: 10, GOPSize: 4, BGap: 4},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, c)
		}
	}
}

func TestEncoderRejectsWrongGeometry(t *testing.T) {
	enc, _ := NewEncoder(smallCfg())
	if err := enc.Add(Frame{W: 1, H: 1, Pix: []byte{0}}); err == nil {
		t.Fatal("wrong-geometry frame accepted")
	}
}

func TestGenerateFrameDeterministic(t *testing.T) {
	cfg := smallCfg()
	a := GenerateFrame(cfg, 7)
	b := GenerateFrame(cfg, 7)
	if !framesEqual(a, b) {
		t.Fatal("GenerateFrame not deterministic")
	}
	c := GenerateFrame(cfg, 8)
	if framesEqual(a, c) {
		t.Fatal("consecutive frames identical; prediction untested")
	}
}

func TestCostModel(t *testing.T) {
	if DecodeCostCycles(320, 240, TypeI) <= DecodeCostCycles(320, 240, TypeP) {
		t.Fatal("I decode should cost more than P")
	}
	if DecodeWorkingSetBytes(320, 240) != 3*320*240 {
		t.Fatal("working set formula changed")
	}
}

// Property: arbitrary (small) videos round-trip losslessly through
// encode → 1 kB chunking → decode.
func TestLosslessProperty(t *testing.T) {
	prop := func(seed uint8, n uint8) bool {
		cfg := Config{W: 16, H: 12, GOPSize: 5, BGap: 1}
		count := int(n%20) + 1
		frames := make([]Frame, count)
		for i := range frames {
			frames[i] = GenerateFrame(cfg, i+int(seed))
			frames[i].Seq = i
		}
		stream, err := Encode(cfg, frames)
		if err != nil {
			return false
		}
		dec := NewDecoder()
		var got []Frame
		for off := 0; off < len(stream); off += 100 {
			end := off + 100
			if end > len(stream) {
				end = len(stream)
			}
			got = append(got, dec.Feed(stream[off:end])...)
		}
		got = append(got, dec.Flush()...)
		if len(got) != count {
			return false
		}
		for i := range got {
			if !framesEqual(got[i], frames[i]) || got[i].Seq != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
