package mpeg

import (
	"bytes"
	"math/rand"
	"testing"
)

// movieCfg is tivopc.MovieConfig, the stream the §6.4 client decodes.
func movieCfg() Config { return Config{W: 320, H: 240, GOPSize: 12, BGap: 2} }

// laneCases calls check on every length 0–17 at sub-slice offsets 0, 1,
// 3 and 7 of random buffers, so the kernels see every tail length and
// unaligned starts.
func laneCases(t *testing.T, check func(t *testing.T, off, n int, a, b []byte)) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 17; n++ {
		for _, off := range []int{0, 1, 3, 7} {
			a := make([]byte, off+n+8)
			b := make([]byte, off+n+8)
			rng.Read(a)
			rng.Read(b)
			check(t, off, n, a, b)
		}
	}
}

// requireOutsideKept fails if a kernel wrote outside dst[off:off+n].
func requireOutsideKept(t *testing.T, name string, off, n int, got, before []byte) {
	t.Helper()
	if !bytes.Equal(got[:off], before[:off]) || !bytes.Equal(got[off+n:], before[off+n:]) {
		t.Fatalf("%s(off %d, len %d) wrote outside its slice", name, off, n)
	}
}

func TestFill(t *testing.T) {
	laneCases(t, func(t *testing.T, off, n int, a, _ []byte) {
		before := bytes.Clone(a)
		v := a[0] ^ 0x5a
		fill(a[off:off+n], v)
		for i := off; i < off+n; i++ {
			if a[i] != v {
				t.Fatalf("fill(off %d, len %d): byte %d is %d, want %d", off, n, i-off, a[i], v)
			}
		}
		requireOutsideKept(t, "fill", off, n, a, before)
	})
}

func TestAddRun(t *testing.T) {
	laneCases(t, func(t *testing.T, off, n int, a, _ []byte) {
		for _, v := range []byte{1, 0x7f, 0x80, 0x81, 0xff, a[0]} {
			got := bytes.Clone(a)
			addRun(got[off:off+n], v)
			for i := off; i < off+n; i++ {
				if want := a[i] + v; got[i] != want {
					t.Fatalf("addRun(off %d, len %d, %d): byte %d is %d, want %d", off, n, v, i-off, got[i], want)
				}
			}
			requireOutsideKept(t, "addRun", off, n, got, a)
		}
	})
}

func TestAverageInto(t *testing.T) {
	laneCases(t, func(t *testing.T, off, n int, a, b []byte) {
		// The extremes of each lane, where a carry would cross into the
		// next one, come first.
		copy(a[off:], []byte{0xff, 0xff, 0x00, 0x80, 0x7f, 0x01})
		copy(b[off+1:], []byte{0xff, 0xfe, 0x00, 0x80, 0x80, 0xff})
		dst := make([]byte, len(a))
		averageInto(dst[off:off+n], a[off:], b[off+1:])
		for i := 0; i < n; i++ {
			want := byte((uint16(a[off+i]) + uint16(b[off+1+i])) / 2)
			if dst[off+i] != want {
				t.Fatalf("averageInto(off %d, len %d): byte %d is %d, want %d", off, n, i, dst[off+i], want)
			}
		}
		requireOutsideKept(t, "averageInto", off, n, dst, make([]byte, len(a)))
	})
}

// rleAddInto on a filled buffer equals the byte-at-a-time expansion added
// to it, and fails wherever the expansion fails.
func TestRLEAddIntoMatchesExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(600)
		residual := make([]byte, n)
		for i := 0; i < n; {
			run := 1 + rng.Intn(300)
			v := byte(rng.Intn(4)) * 0x55 // zero runs and a few others
			for j := 0; j < run && i < n; j++ {
				residual[i] = v
				i++
			}
		}
		src := rleEncode(residual)
		if trial%5 == 0 && len(src) > 0 {
			src[rng.Intn(len(src))] = byte(rng.Intn(256)) // may corrupt it
		}
		base := make([]byte, n)
		rng.Read(base)
		got := bytes.Clone(base)
		gotErr := rleAddInto(got, src)
		want := make([]byte, n)
		wantErr := refRLEDecodeInto(want, src)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: rleAddInto error %v, expansion error %v", trial, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		for i := range want {
			want[i] += base[i]
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: rleAddInto differs from expansion plus base", trial)
		}
	}
}

// drawRef is DrawFrame's per-pixel formula.
func drawRef(cfg Config, seq int) []byte {
	pix := make([]byte, cfg.W*cfg.H)
	for y := 0; y < cfg.H; y++ {
		for x := 0; x < cfg.W; x++ {
			pix[y*cfg.W+x] = byte(((x + y + seq*3) >> 5) * 7)
		}
	}
	bx := (seq * 7) % max(cfg.W-16, 1)
	by := (seq * 5) % max(cfg.H-16, 1)
	for y := by; y < by+16 && y < cfg.H; y++ {
		for x := bx; x < bx+16 && x < cfg.W; x++ {
			pix[y*cfg.W+x] = 250
		}
	}
	return pix
}

// DrawFrame's row copies draw the per-pixel formula exactly, into a fresh
// buffer and over a reused one, for frames narrower than a plateau, than
// the box, and one pixel wide or high.
func TestDrawFrameMatchesFormula(t *testing.T) {
	sizes := []struct{ w, h int }{{1, 1}, {1, 40}, {40, 1}, {7, 5}, {16, 16}, {17, 30}, {31, 24}, {320, 240}}
	for _, sz := range sizes {
		cfg := Config{W: sz.w, H: sz.h, GOPSize: 1}
		dirty := bytes.Repeat([]byte{0xa5}, sz.w*sz.h)
		for seq := 0; seq < 150; seq++ {
			want := drawRef(cfg, seq)
			if got := GenerateFrame(cfg, seq); !bytes.Equal(got.Pix, want) {
				t.Fatalf("%dx%d seq %d: fresh frame differs from the formula", sz.w, sz.h, seq)
			}
			f := DrawFrame(cfg, seq, dirty)
			if &f.Pix[0] != &dirty[0] || !bytes.Equal(f.Pix, want) {
				t.Fatalf("%dx%d seq %d: reused buffer not redrawn to the formula", sz.w, sz.h, seq)
			}
		}
	}
}

// A frame whose RLE is corrupt counts as Corrupt even when its references
// are lost; an intact one with lost references counts as Dropped.
func TestDecoderCorruptBeforeLostReference(t *testing.T) {
	zeroRun := []byte{rleEsc, 0, 1}
	for _, c := range []struct {
		name             string
		stream           []byte
		corrupt, dropped int
	}{
		{"P, corrupt RLE", frameBytes(TypeP, 1, 1, zeroRun), 1, 0},
		{"B, corrupt RLE", frameBytes(TypeB, 1, 1, zeroRun), 1, 0},
		{"P, intact RLE", frameBytes(TypeP, 1, 1, []byte{3}), 0, 1},
		{"B, intact RLE", frameBytes(TypeB, 1, 1, []byte{3}), 0, 1},
	} {
		dec := NewDecoder()
		frames := append(dec.Feed(c.stream), dec.Flush()...)
		if len(frames) != 0 || dec.Corrupt != c.corrupt || dec.Dropped != c.dropped {
			t.Errorf("%s: %d frames, %d corrupt, %d dropped; want 0, %d, %d",
				c.name, len(frames), dec.Corrupt, dec.Dropped, c.corrupt, c.dropped)
		}
	}
}

// foundResyncStream is 30 zero bytes followed by a 6-frame stream (32×24,
// GOP 3, B gap 1): the decoder must resync once before the first frame.
func foundResyncStream(t testing.TB) []byte {
	cfg := Config{W: 32, H: 24, GOPSize: 3, BGap: 1}
	stream, err := Encode(cfg, GenerateVideo(cfg, 6))
	if err != nil {
		t.Fatal(err)
	}
	return append(make([]byte, 30), stream...)
}

// Split right after the first magic byte, a resync that runs out of bytes
// keeps that byte and finds the magic on the next Feed.
func TestResyncKeepsSplitMagic(t *testing.T) {
	stream := foundResyncStream(t)
	dec := NewDecoder()
	frames := append(dec.Feed(stream[:31]), dec.Feed(stream[31:])...)
	frames = append(frames, dec.Flush()...)
	if len(frames) != 6 || dec.Corrupt != 1 || dec.Dropped != 0 {
		t.Fatalf("%d frames, %d corrupt, %d dropped; want 6, 1, 0", len(frames), dec.Corrupt, dec.Dropped)
	}
}

// FuzzDecoderSplit: feeding a stream in three pieces, cut at two arbitrary
// points, gives the same frames and the same Corrupt and Dropped counts as
// feeding it whole. The corpus holds foundResyncStream cut right after
// its first magic byte, where a resync once dropped that byte.
func FuzzDecoderSplit(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte, cut1, cut2 uint16) {
		a, b := int(cut1)%(len(stream)+1), int(cut2)%(len(stream)+1)
		a, b = min(a, b), max(a, b)
		whole := NewDecoder()
		want := append(whole.Feed(stream), whole.Flush()...)
		split := NewDecoder()
		var got []Frame
		for _, piece := range [][]byte{stream[:a], stream[a:b], stream[b:]} {
			got = append(got, split.Feed(piece)...)
		}
		got = append(got, split.Flush()...)
		requireSameDecode(t, "split stream against the whole", got, want,
			split.Corrupt, split.Dropped, whole.Corrupt, whole.Dropped)
	})
}

// feedReleasing feeds stream in 1 KB chunks and releases every frame as
// soon as Feed returns it, as the GPU decoder does. It returns the number
// of frames.
func feedReleasing(dec *Decoder, stream []byte) int {
	frames := 0
	for off := 0; off < len(stream); off += 1024 {
		for _, f := range dec.Feed(stream[off:min(off+1024, len(stream))]) {
			dec.Release(f)
			frames++
		}
	}
	return frames
}

// A warm releasing decoder reuses its pixel buffers and its stream buffer:
// the only allocation left is one array for readyBlock returned frames.
// The stream is decoded over and over by one decoder; a replay's first I
// frame releases the last anchor of the previous pass.
func TestDecoderSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	cfg := movieCfg()
	const frames = 4 * readyBlock
	stream, err := Encode(cfg, GenerateVideo(cfg, frames))
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	feedReleasing(dec, stream)
	feedReleasing(dec, stream)
	allocs := testing.AllocsPerRun(5, func() { feedReleasing(dec, stream) })
	t.Logf("%.1f allocations per pass of %d frames", allocs, frames)
	if perFrame := allocs / frames; perFrame > 1.5/readyBlock {
		t.Fatalf("%.3f allocations per warm frame, want at most one per %d frames", perFrame, readyBlock)
	}
	if dec.Corrupt != 0 || dec.Dropped != 0 {
		t.Fatalf("replayed stream: %d corrupt, %d dropped", dec.Corrupt, dec.Dropped)
	}
}

// BenchmarkDecoderFeed decodes a tivopc-sized stream in 1 KB chunks with
// a releasing decoder, the GPU decoder's path.
func BenchmarkDecoderFeed(b *testing.B) {
	cfg := movieCfg()
	stream, err := Encode(cfg, GenerateVideo(cfg, 2*cfg.GOPSize))
	if err != nil {
		b.Fatal(err)
	}
	dec := NewDecoder()
	feedReleasing(dec, stream)
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	frames := 0
	for i := 0; i < b.N; i++ {
		frames += feedReleasing(dec, stream)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(frames), "ns/frame")
}
