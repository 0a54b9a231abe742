// Package objfile defines HOBJ, the Offcode object-file format, and the
// host-side dynamic linker HYDRA's loaders use (§4.2).
//
// The paper's loading pipeline is: calculate the Offcode's size, call the
// device's AllocateOffcodeMemory, "dynamically generate a linker file
// adjusted by the returned address and link the Offcode object", then
// transfer the linked image to the device. HOBJ reproduces exactly that:
// objects carry code bytes, defined symbols, and relocations; Link patches
// every relocation against the load address and the device firmware's
// exported symbol table and returns the placed image.
//
// The code bytes themselves are synthetic (the behaviour of an Offcode is
// supplied by a registered Go factory — see DESIGN.md's substitution table),
// but the format, the linker and its failure modes are fully real and are
// exercised end to end by the runtime.
package objfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"hydra/internal/guid"
)

// Magic identifies an HOBJ image.
var Magic = [4]byte{'H', 'O', 'B', 'J'}

// Version is the current format version.
const Version uint16 = 1

// ErrBadImage reports a malformed or corrupt object file.
var ErrBadImage = errors.New("objfile: bad image")

// Symbol is a name defined at an offset within the object's code.
type Symbol struct {
	Name   string
	Offset uint64
}

// Reloc asks the linker to patch the 8 bytes at Offset with the resolved
// address of Symbol (little endian).
type Reloc struct {
	Offset uint64
	Symbol string
}

// Object is one Offcode binary.
type Object struct {
	Name    string
	GUID    guid.GUID
	Code    []byte
	Defined []Symbol
	Relocs  []Reloc
}

// Size reports the in-memory footprint of the placed code; the loader uses
// it to size the AllocateOffcodeMemory request.
func (o *Object) Size() int { return len(o.Code) }

// Validate checks structural invariants: relocations in range, defined
// symbols in range, no duplicate definitions.
func (o *Object) Validate() error {
	if o.Name == "" {
		return fmt.Errorf("%w: empty name", ErrBadImage)
	}
	if !o.GUID.IsValid() {
		return fmt.Errorf("%w: invalid GUID", ErrBadImage)
	}
	seen := make(map[string]bool)
	for _, s := range o.Defined {
		if s.Name == "" {
			return fmt.Errorf("%w: empty symbol name", ErrBadImage)
		}
		if seen[s.Name] {
			return fmt.Errorf("%w: duplicate symbol %q", ErrBadImage, s.Name)
		}
		seen[s.Name] = true
		if s.Offset > uint64(len(o.Code)) {
			return fmt.Errorf("%w: symbol %q offset %d beyond code", ErrBadImage, s.Name, s.Offset)
		}
	}
	for _, r := range o.Relocs {
		if r.Offset+8 > uint64(len(o.Code)) {
			return fmt.Errorf("%w: relocation at %d beyond code", ErrBadImage, r.Offset)
		}
		if r.Symbol == "" {
			return fmt.Errorf("%w: relocation with empty symbol", ErrBadImage)
		}
	}
	return nil
}

// Encode serializes the object, appending a CRC-32 trailer.
func (o *Object) Encode() []byte {
	var b []byte
	b = append(b, Magic[:]...)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b = appendString(b, o.Name)
	b = binary.LittleEndian.AppendUint64(b, uint64(o.GUID))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(o.Code)))
	b = append(b, o.Code...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(o.Defined)))
	for _, s := range o.Defined {
		b = appendString(b, s.Name)
		b = binary.LittleEndian.AppendUint64(b, s.Offset)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(o.Relocs)))
	for _, r := range o.Relocs {
		b = appendString(b, r.Symbol)
		b = binary.LittleEndian.AppendUint64(b, r.Offset)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// Decode parses an HOBJ image, verifying magic, version, CRC and structure.
func Decode(b []byte) (*Object, error) {
	if len(b) < 10 {
		return nil, fmt.Errorf("%w: truncated", ErrBadImage)
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrBadImage)
	}
	r := reader{buf: body}
	var magic [4]byte
	copy(magic[:], r.bytes(4))
	if magic != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadImage)
	}
	if v := r.u16(); v != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadImage, v)
	}
	o := &Object{}
	o.Name = r.str()
	o.GUID = guid.GUID(r.u64())
	o.Code = append([]byte(nil), r.bytes(int(r.u32()))...)
	nd := int(r.u32())
	if r.err == nil && nd >= 0 && nd < 1<<20 {
		for i := 0; i < nd && r.err == nil; i++ {
			o.Defined = append(o.Defined, Symbol{Name: r.str(), Offset: r.u64()})
		}
	}
	nr := int(r.u32())
	if r.err == nil && nr >= 0 && nr < 1<<20 {
		for i := 0; i < nr && r.err == nil; i++ {
			o.Relocs = append(o.Relocs, Reloc{Symbol: r.str(), Offset: r.u64()})
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadImage, r.err)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// UnresolvedError reports symbols the linker could not resolve.
type UnresolvedError struct {
	Object  string
	Symbols []string
}

func (e *UnresolvedError) Error() string {
	return fmt.Sprintf("objfile: linking %s: unresolved symbols %v", e.Object, e.Symbols)
}

// Link places the object at base and resolves every relocation: internal
// symbols resolve to base+offset, external symbols against exports (the
// device firmware's symbol table). It returns the patched image; the input
// object is not modified.
func Link(o *Object, base uint64, exports map[string]uint64) ([]byte, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	local := make(map[string]uint64, len(o.Defined))
	for _, s := range o.Defined {
		local[s.Name] = base + s.Offset
	}
	img := append([]byte(nil), o.Code...)
	var missing []string
	for _, r := range o.Relocs {
		addr, ok := local[r.Symbol]
		if !ok {
			addr, ok = exports[r.Symbol]
		}
		if !ok {
			missing = append(missing, r.Symbol)
			continue
		}
		binary.LittleEndian.PutUint64(img[r.Offset:], addr)
	}
	if missing != nil {
		sort.Strings(missing)
		return nil, &UnresolvedError{Object: o.Name, Symbols: dedup(missing)}
	}
	return img, nil
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// Synthesize fabricates a plausible object for an Offcode: deterministic
// code bytes of the requested size, an entry symbol, and one relocation per
// import. The depot uses it to stock Offcode binaries whose linking is
// fully checkable.
func Synthesize(name string, g guid.GUID, codeSize int, imports []string) *Object {
	if codeSize < 8*(len(imports)+1) {
		codeSize = 8 * (len(imports) + 1)
	}
	code := make([]byte, codeSize)
	for i := range code {
		code[i] = byte(i*7 + len(name))
	}
	o := &Object{
		Name:    name,
		GUID:    g,
		Code:    code,
		Defined: []Symbol{{Name: name + ".entry", Offset: 0}},
	}
	// Import table at the top of the image: one 8-byte slot per import.
	for i, imp := range imports {
		off := uint64(8 * (i + 1))
		o.Relocs = append(o.Relocs, Reloc{Offset: off, Symbol: imp})
	}
	return o
}

// --- decode helpers ---

type reader struct {
	buf []byte
	err error
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf) {
		r.err = errors.New("short read")
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *reader) u16() uint16 {
	b := r.bytes(2)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.bytes(8)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) str() string {
	n := int(r.u16())
	b := r.bytes(n)
	if r.err != nil {
		return ""
	}
	return string(b)
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}
