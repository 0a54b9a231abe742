package objfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"hydra/internal/guid"
)

func sample() *Object {
	return &Object{
		Name: "hydra.net.utils.Checksum",
		GUID: 6060843,
		Code: make([]byte, 64),
		Defined: []Symbol{
			{Name: "hydra.net.utils.Checksum.entry", Offset: 0},
			{Name: "hydra.net.utils.Checksum.table", Offset: 32},
		},
		Relocs: []Reloc{
			{Offset: 8, Symbol: "hydra.Heap.Alloc"},
			{Offset: 16, Symbol: "hydra.Runtime.GetOffcode"},
			{Offset: 24, Symbol: "hydra.net.utils.Checksum.table"}, // internal
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	o := sample()
	img := o.Encode()
	got, err := Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != o.Name || got.GUID != o.GUID || !bytes.Equal(got.Code, o.Code) {
		t.Fatal("header/code mismatch")
	}
	if len(got.Defined) != 2 || got.Defined[1].Offset != 32 {
		t.Fatalf("defined = %+v", got.Defined)
	}
	if len(got.Relocs) != 3 || got.Relocs[0].Symbol != "hydra.Heap.Alloc" {
		t.Fatalf("relocs = %+v", got.Relocs)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	img := sample().Encode()
	for _, pos := range []int{0, 5, 20, len(img) / 2, len(img) - 1} {
		bad := append([]byte(nil), img...)
		bad[pos] ^= 0xFF
		if _, err := Decode(bad); err == nil {
			t.Errorf("corruption at %d not detected", pos)
		}
	}
	if _, err := Decode(img[:8]); err == nil {
		t.Error("truncated image accepted")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty image accepted")
	}
}

func TestLinkPatchesRelocations(t *testing.T) {
	o := sample()
	exports := map[string]uint64{
		"hydra.Heap.Alloc":         0xA000,
		"hydra.Runtime.GetOffcode": 0xB000,
	}
	const base = 0x4000
	img, err := Link(o, base, exports)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(img[8:]); got != 0xA000 {
		t.Fatalf("reloc 0 = %#x", got)
	}
	if got := binary.LittleEndian.Uint64(img[16:]); got != 0xB000 {
		t.Fatalf("reloc 1 = %#x", got)
	}
	// Internal symbol resolves to base + its offset.
	if got := binary.LittleEndian.Uint64(img[24:]); got != base+32 {
		t.Fatalf("internal reloc = %#x, want %#x", got, base+32)
	}
	// Only relocation slots changed; everything else is untouched.
	patched := map[int]bool{8: true, 16: true, 24: true}
	for i := range img {
		slot := (i / 8) * 8
		if patched[slot] {
			continue
		}
		if img[i] != o.Code[i] {
			t.Fatalf("byte %d modified outside relocations", i)
		}
	}
	// Source object must be unmodified.
	if !bytes.Equal(o.Code, make([]byte, 64)) {
		t.Fatal("Link mutated the source object")
	}
}

func TestLinkUnresolved(t *testing.T) {
	o := sample()
	_, err := Link(o, 0, map[string]uint64{"hydra.Heap.Alloc": 1})
	var ue *UnresolvedError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UnresolvedError", err)
	}
	if len(ue.Symbols) != 1 || ue.Symbols[0] != "hydra.Runtime.GetOffcode" {
		t.Fatalf("unresolved = %v", ue.Symbols)
	}
}

func TestValidate(t *testing.T) {
	cases := []func(*Object){
		func(o *Object) { o.Name = "" },
		func(o *Object) { o.GUID = 0 },
		func(o *Object) { o.Defined = append(o.Defined, Symbol{Name: "x", Offset: 9999}) },
		func(o *Object) { o.Defined = append(o.Defined, o.Defined[0]) },
		func(o *Object) { o.Defined = append(o.Defined, Symbol{Name: "", Offset: 0}) },
		func(o *Object) { o.Relocs = append(o.Relocs, Reloc{Offset: 60, Symbol: "x"}) },
		func(o *Object) { o.Relocs = append(o.Relocs, Reloc{Offset: 0, Symbol: ""}) },
	}
	for i, mutate := range cases {
		o := sample()
		mutate(o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d passed validation", i)
		}
	}
	if err := sample().Validate(); err != nil {
		t.Fatalf("valid object rejected: %v", err)
	}
}

func TestSynthesize(t *testing.T) {
	o := Synthesize("hydra.test.Streamer", 42, 256, []string{"hydra.Heap.Alloc", "hydra.Chan.Write"})
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.Size() != 256 {
		t.Fatalf("size = %d", o.Size())
	}
	// Linking with complete exports succeeds.
	img, err := Link(o, 0x100, map[string]uint64{
		"hydra.Heap.Alloc": 0xAA, "hydra.Chan.Write": 0xBB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(img[8:]); got != 0xAA {
		t.Fatalf("import slot 0 = %#x", got)
	}
	// Minimum size grows to fit the import table.
	o2 := Synthesize("x", 1, 0, []string{"a", "b", "c"})
	if o2.Size() < 32 {
		t.Fatalf("synthesized size %d too small for imports", o2.Size())
	}
}

// Property: encode/decode round-trips arbitrary valid objects.
func TestRoundTripProperty(t *testing.T) {
	prop := func(nameSeed uint8, g uint32, codeLen uint8, nimports uint8) bool {
		imports := make([]string, int(nimports)%5)
		for i := range imports {
			imports[i] = string(rune('a'+i)) + ".sym"
		}
		name := "oc" + string(rune('a'+nameSeed%26))
		o := Synthesize(name, guid.GUID(g)+1, int(codeLen), imports)
		got, err := Decode(o.Encode())
		if err != nil {
			return false
		}
		if got.Name != o.Name || got.GUID != o.GUID || !bytes.Equal(got.Code, o.Code) {
			return false
		}
		if len(got.Relocs) != len(o.Relocs) || len(got.Defined) != len(o.Defined) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after linking, exactly the relocation slots differ from the
// original code.
func TestLinkPatchesOnlyRelocsProperty(t *testing.T) {
	prop := func(base uint16, n uint8) bool {
		imports := make([]string, int(n)%6+1)
		exports := map[string]uint64{}
		for i := range imports {
			imports[i] = string(rune('a'+i)) + ".fn"
			exports[imports[i]] = uint64(i)*16 + 1
		}
		o := Synthesize("p", 7, 200, imports)
		img, err := Link(o, uint64(base), exports)
		if err != nil {
			return false
		}
		relocAt := map[uint64]bool{}
		for _, r := range o.Relocs {
			relocAt[r.Offset] = true
		}
		for i := 0; i < len(img); i++ {
			inReloc := false
			for off := range relocAt {
				if uint64(i) >= off && uint64(i) < off+8 {
					inReloc = true
					break
				}
			}
			if !inReloc && img[i] != o.Code[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
