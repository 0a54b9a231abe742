package mpeg

// Run-length entropy stage. Residual planes are mostly long runs (the
// synthetic content is piecewise smooth and predictions are exact), so a
// byte-oriented RLE gives a realistic compression ratio without pulling in
// a full entropy coder.
//
// Encoding: the escape byte introduces a run: ESC count value, encoding
// count (3..255) repetitions of value. Literal ESC bytes are encoded as a
// run of length >= 1 (ESC n ESC). Runs shorter than 3 of other values are
// emitted literally.

const rleEsc = 0xFE

func rleEncode(src []byte) []byte {
	out := make([]byte, 0, len(src)/4+16)
	i := 0
	for i < len(src) {
		v := src[i]
		run := 1
		for i+run < len(src) && src[i+run] == v && run < 255 {
			run++
		}
		if run >= 3 || v == rleEsc {
			out = append(out, rleEsc, byte(run), v)
		} else {
			for j := 0; j < run; j++ {
				out = append(out, v)
			}
		}
		i += run
	}
	return out
}

// rleDecode expands src, which must decode to exactly expect bytes.
func rleDecode(src []byte, expect int) ([]byte, error) {
	// A 3-byte escape emits at most 255 bytes, so src can expand to at
	// most 85 bytes per byte. expect comes from a frame header: reject it
	// before reserving it, or one forged header allocates up to 4 GiB.
	if expect > 85*len(src) {
		return nil, errCorrupt("RLE input too short for frame")
	}
	out := make([]byte, 0, expect)
	i := 0
	for i < len(src) {
		if src[i] == rleEsc {
			if i+2 >= len(src) {
				return nil, errCorrupt("truncated RLE escape")
			}
			count := int(src[i+1])
			if count == 0 {
				return nil, errCorrupt("zero-length RLE run")
			}
			v := src[i+2]
			for j := 0; j < count; j++ {
				out = append(out, v)
			}
			i += 3
		} else {
			out = append(out, src[i])
			i++
		}
		if len(out) > expect {
			return nil, errCorrupt("RLE output overruns frame")
		}
	}
	if len(out) != expect {
		return nil, errCorrupt("RLE output short of frame")
	}
	return out, nil
}

type corruptError string

func errCorrupt(msg string) error { return corruptError(msg) }

func (e corruptError) Error() string { return "mpeg: corrupt stream: " + string(e) }
