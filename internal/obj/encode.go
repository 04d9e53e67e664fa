package obj

import (
	"fmt"
	"os"

	"persistcc/internal/binenc"
)

// Magic identifies VXO files on disk.
var Magic = [4]byte{'V', 'X', 'O', '1'}

// FormatVersion is bumped on any incompatible change to the encoding.
const FormatVersion = 1

// Encoding limits; generous for this toolchain, but they keep a corrupted
// length field from allocating gigabytes.
const (
	maxSection = 64 << 20
	maxCount   = 1 << 20
	maxString  = 1 << 16
)

// MarshalBinary encodes the file in VXO format.
func (f *File) MarshalBinary() ([]byte, error) {
	if err := f.encodable(); err != nil {
		return nil, err
	}
	w := &binenc.Writer{}
	f.encode(w)
	return w.Buf, nil
}

// encodable reports whether the file fits the VXO encoding.
func (f *File) encodable() error {
	if len(f.Text) > maxSection || len(f.Data) > maxSection {
		return fmt.Errorf("obj: %s: section too large", f.Name)
	}
	return nil
}

// encode writes the file's VXO encoding to w.
func (f *File) encode(w *binenc.Writer) {
	w.Raw(Magic[:])
	w.U32(FormatVersion)
	w.U8(uint8(f.Kind))
	w.Str(f.Name)
	w.Bytes(f.Text)
	w.Bytes(f.Data)
	w.U32(f.BSSSize)

	w.U32(uint32(len(f.Symbols)))
	for _, s := range f.Symbols {
		w.Str(s.Name)
		w.U8(uint8(s.Sec))
		w.U32(s.Off)
		w.Bool(s.Global)
	}
	w.U32(uint32(len(f.Relocs)))
	for _, r := range f.Relocs {
		w.U8(uint8(r.Sec))
		w.U32(r.Off)
		w.U8(uint8(r.Type))
		w.U32(uint32(r.Sym))
		w.I64(r.Addend)
	}

	w.U32(f.Entry)
	w.U32(uint32(len(f.Needed)))
	for _, n := range f.Needed {
		w.Str(n)
	}
	w.U32(uint32(len(f.Exports)))
	for _, e := range f.Exports {
		w.Str(e.Name)
		w.U32(e.Off)
	}
	w.U32(uint32(len(f.DynRelocs)))
	for _, d := range f.DynRelocs {
		w.U32(d.Off)
		w.U8(uint8(d.Type))
		w.Str(d.SymName)
		w.I64(d.Addend)
		w.Bool(d.InText)
	}
}

// UnmarshalBinary decodes a VXO file and validates it.
func (f *File) UnmarshalBinary(b []byte) error {
	r := &binenc.Reader{Buf: b}
	magic := r.Raw(4)
	if r.Err == nil && string(magic) != string(Magic[:]) {
		return fmt.Errorf("obj: bad magic %q", magic)
	}
	if v := r.U32(); r.Err == nil && v != FormatVersion {
		return fmt.Errorf("obj: unsupported format version %d", v)
	}
	f.Kind = Kind(r.U8())
	f.Name = r.Str(maxString)
	f.Text = r.Bytes(maxSection)
	f.Data = r.Bytes(maxSection)
	f.BSSSize = r.U32()

	f.Symbols = nil
	for i, n := 0, r.Count(maxCount); i < n && r.Err == nil; i++ {
		var s Symbol
		s.Name = r.Str(maxString)
		s.Sec = SectionID(r.U8())
		s.Off = r.U32()
		s.Global = r.Bool()
		f.Symbols = append(f.Symbols, s)
	}
	f.Relocs = nil
	for i, n := 0, r.Count(maxCount); i < n && r.Err == nil; i++ {
		var rl Reloc
		rl.Sec = SectionID(r.U8())
		rl.Off = r.U32()
		rl.Type = RelocType(r.U8())
		rl.Sym = int32(r.U32())
		rl.Addend = r.I64()
		f.Relocs = append(f.Relocs, rl)
	}

	f.Entry = r.U32()
	f.Needed = nil
	for i, n := 0, r.Count(maxCount); i < n && r.Err == nil; i++ {
		f.Needed = append(f.Needed, r.Str(maxString))
	}
	f.Exports = nil
	for i, n := 0, r.Count(maxCount); i < n && r.Err == nil; i++ {
		var e Export
		e.Name = r.Str(maxString)
		e.Off = r.U32()
		f.Exports = append(f.Exports, e)
	}
	f.DynRelocs = nil
	for i, n := 0, r.Count(maxCount); i < n && r.Err == nil; i++ {
		var d DynReloc
		d.Off = r.U32()
		d.Type = RelocType(r.U8())
		d.SymName = r.Str(maxString)
		d.Addend = r.I64()
		d.InText = r.Bool()
		f.DynRelocs = append(f.DynRelocs, d)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("obj: decode: %w", err)
	}
	return f.Validate()
}

// WriteFile writes the file to path in VXO format.
func (f *File) WriteFile(path string) error {
	b, err := f.MarshalBinary()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadFile reads and validates a VXO file from path.
func ReadFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := new(File)
	if err := f.UnmarshalBinary(b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
