// Package obj defines the VXO binary format used by the VR64 toolchain:
// relocatable objects produced by the assembler (internal/asm), and
// executables and shared libraries produced by the linker (internal/link)
// and consumed by the dynamic loader (internal/loader).
//
// A linked module's in-memory image is laid out as
//
//	[text][pad to page][data][pad to 8][bss]
//
// with all module-relative offsets measured from the start of text.
// Cross-module references (and any absolute address materialized in code or
// data) are expressed as dynamic relocations applied by the loader once base
// addresses are known — which is precisely what makes translations of that
// code position-dependent, the property the paper's persistent cache keys
// and our relocatable-translation extension revolve around.
package obj

import (
	"crypto/sha256"
	"fmt"

	"persistcc/internal/binenc"
)

// PageSize mirrors mem.PageSize; duplicated to keep obj dependency-free.
const PageSize = 4096

// Kind distinguishes the three VXO file flavours.
type Kind uint8

const (
	KindObject Kind = iota + 1 // relocatable object (assembler output)
	KindExec                   // executable
	KindLib                    // shared library
)

func (k Kind) String() string {
	switch k {
	case KindObject:
		return "object"
	case KindExec:
		return "executable"
	case KindLib:
		return "library"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// SectionID identifies where a symbol lives or a relocation applies.
type SectionID uint8

const (
	SecUndef SectionID = iota // undefined (import)
	SecText
	SecData
	SecBSS
	SecAbs // absolute value, not an address
)

func (s SectionID) String() string {
	switch s {
	case SecUndef:
		return "undef"
	case SecText:
		return ".text"
	case SecData:
		return ".data"
	case SecBSS:
		return ".bss"
	case SecAbs:
		return "abs"
	}
	return fmt.Sprintf("sec(%d)", uint8(s))
}

// Symbol is an entry in a relocatable object's symbol table.
type Symbol struct {
	Name   string
	Sec    SectionID
	Off    uint32 // offset within Sec (or value, for SecAbs)
	Global bool
}

// RelocType enumerates the supported relocation computations.
type RelocType uint8

const (
	// RelPC32 patches a 32-bit field with S + A - P, where P is the
	// address of the *instruction* containing the field (field at P+4).
	// Used for jal/branch/ldpc targets.
	RelPC32 RelocType = iota + 1
	// RelAbs32 patches a 32-bit field with S + A. Used for movi of an
	// address and for 32-bit data words.
	RelAbs32
	// RelAbs64 patches a 64-bit field with S + A. Used for address-sized
	// data words (e.g. jump tables).
	RelAbs64
)

func (t RelocType) String() string {
	switch t {
	case RelPC32:
		return "PC32"
	case RelAbs32:
		return "ABS32"
	case RelAbs64:
		return "ABS64"
	}
	return fmt.Sprintf("reloc(%d)", uint8(t))
}

// Size returns the number of bytes the relocation patches.
func (t RelocType) Size() int {
	if t == RelAbs64 {
		return 8
	}
	return 4
}

// Reloc is a static relocation in a relocatable object, resolved by the
// linker.
type Reloc struct {
	Sec    SectionID // SecText or SecData
	Off    uint32    // byte offset of the patched field within Sec
	Type   RelocType
	Sym    int32 // index into the object's symbol table
	Addend int64
}

// Export is a symbol a linked module makes visible to other modules.
type Export struct {
	Name string
	Off  uint32 // module-relative address
}

// DynReloc is a relocation the loader applies after assigning base
// addresses.
type DynReloc struct {
	Off     uint32    // module-relative offset of the patched field
	Type    RelocType // PC32 patches relative to (moduleBase + Off - 4), see note
	SymName string    // imported symbol; "" means module-relative (base + Addend)
	Addend  int64
	InText  bool // whether the site lies in translated (code) bytes
}

// File is a VXO file of any kind. Object files use Symbols/Relocs;
// executables and libraries use Entry/Needed/Exports/DynRelocs.
type File struct {
	Kind    Kind
	Name    string // module name (e.g. "libgui.so", "gcc")
	Text    []byte
	Data    []byte
	BSSSize uint32

	// Relocatable objects only.
	Symbols []Symbol
	Relocs  []Reloc

	// Linked modules only.
	Entry     uint32 // module-relative entry point (KindExec)
	Needed    []string
	Exports   []Export
	DynRelocs []DynReloc
}

// DataOff returns the module-relative offset at which the data section is
// placed in the memory image.
func (f *File) DataOff() uint32 {
	return alignUp(uint32(len(f.Text)), PageSize)
}

// BSSOff returns the module-relative offset of the bss section.
func (f *File) BSSOff() uint32 {
	return f.DataOff() + alignUp(uint32(len(f.Data)), 8)
}

// ImageSize returns the total mapped size of the module, page-rounded.
func (f *File) ImageSize() uint32 {
	return alignUp(f.BSSOff()+f.BSSSize, PageSize)
}

// Image materializes the module's initial memory image (text+data, with bss
// zeroed).
func (f *File) Image() []byte {
	img := make([]byte, f.ImageSize())
	copy(img, f.Text)
	copy(img[f.DataOff():], f.Data)
	return img
}

// ExportAddr returns the module-relative address of a named export.
func (f *File) ExportAddr(name string) (uint32, bool) {
	for _, e := range f.Exports {
		if e.Name == name {
			return e.Off, true
		}
	}
	return 0, false
}

// Digest returns a content digest of the file, playing the role of the
// paper's "program header" component in persistence keys: any change to the
// binary changes the digest and therefore invalidates cached translations.
// It is the SHA-256 of MarshalBinary's bytes, streamed into the hash rather
// than built: the small fields through a fixed-size buffer, the text and
// data sections straight from the file.
func (f *File) Digest() [32]byte {
	if f.encodable() != nil {
		// MarshalBinary only fails on unrepresentable sizes; treat as
		// an empty digest rather than panicking in key computation.
		return [32]byte{}
	}
	h := sha256.New()
	w := &binenc.Writer{Sink: h}
	f.encode(w)
	w.Flush()
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

func alignUp(v, a uint32) uint32 {
	return (v + a - 1) &^ (a - 1)
}

// Validate performs structural sanity checks appropriate to the file kind.
func (f *File) Validate() error {
	if f.Kind < KindObject || f.Kind > KindLib {
		return fmt.Errorf("obj: %s: invalid kind %d", f.Name, f.Kind)
	}
	if len(f.Text)%8 != 0 {
		return fmt.Errorf("obj: %s: text size %d not a multiple of the instruction size", f.Name, len(f.Text))
	}
	if f.Kind == KindObject {
		for i, r := range f.Relocs {
			if r.Sym < 0 || int(r.Sym) >= len(f.Symbols) {
				return fmt.Errorf("obj: %s: reloc %d references symbol %d of %d", f.Name, i, r.Sym, len(f.Symbols))
			}
			if r.Sec != SecText && r.Sec != SecData {
				return fmt.Errorf("obj: %s: reloc %d in section %s", f.Name, i, r.Sec)
			}
			if err := f.checkRelocBounds(r.Sec, r.Off, r.Type); err != nil {
				return fmt.Errorf("obj: %s: reloc %d: %w", f.Name, i, err)
			}
		}
	} else {
		if f.Kind == KindExec && f.Entry >= uint32(len(f.Text)) {
			return fmt.Errorf("obj: %s: entry %#x outside text", f.Name, f.Entry)
		}
		size := f.ImageSize()
		for i, d := range f.DynRelocs {
			if d.Off+uint32(d.Type.Size()) > size {
				return fmt.Errorf("obj: %s: dynreloc %d at %#x outside image", f.Name, i, d.Off)
			}
		}
		for i, e := range f.Exports {
			if e.Off >= size {
				return fmt.Errorf("obj: %s: export %d (%s) at %#x outside image", f.Name, i, e.Name, e.Off)
			}
		}
	}
	return nil
}

func (f *File) checkRelocBounds(sec SectionID, off uint32, t RelocType) error {
	var n uint32
	switch sec {
	case SecText:
		n = uint32(len(f.Text))
	case SecData:
		n = uint32(len(f.Data))
	}
	if off+uint32(t.Size()) > n {
		return fmt.Errorf("offset %#x+%d outside %s (%d bytes)", off, t.Size(), sec, n)
	}
	return nil
}
