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

// rleAddInto adds the residual src encodes to dst, which it must cover
// exactly. A run of zeros, the bulk of a predicted frame, leaves its bytes
// as they are; any other run is added eight bytes at a time.
func rleAddInto(dst, src []byte) error {
	n := 0
	for i := 0; i < len(src); {
		if src[i] != rleEsc {
			if n == len(dst) {
				return errCorrupt("RLE output overruns frame")
			}
			dst[n] += src[i]
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
		if v := src[i+2]; v != 0 {
			addRun(dst[n:n+count], v)
		}
		n += count
		i += 3
	}
	if n != len(dst) {
		return errCorrupt("RLE output short of frame")
	}
	return nil
}

type corruptError string

func errCorrupt(msg string) error { return corruptError(msg) }

func (e corruptError) Error() string { return "mpeg: corrupt stream: " + string(e) }
