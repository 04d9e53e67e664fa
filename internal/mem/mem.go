// Package mem implements the guest address space used by the VR64 virtual
// machine: a sparse, page-granular 32-bit memory with explicit mappings.
//
// Memory is demand-zero. Map only records the mapping; a page gets memory
// of its own on the first write to it, and until then reads of it are
// served from one shared zero page. Private pages are found through a
// two-level table indexed by address bits (11 + 9 + 12), and whether an
// address is mapped at all is answered from the mapping table.
//
// Mappings carry the provenance metadata (path, base, size, modification
// time, content digest) that the persistent cache manager in internal/core
// hashes into its validation keys, exactly as the paper's keys cover "the
// base address, mapping size, binary path, program header, and modification
// timestamps".
package mem

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// PageSize is the granularity of guest memory allocation.
const PageSize = 4096

// The split of a page number between root and leaf is a trade between the
// root, which every address space has whole, and the leaves, one per 2^(12
// + leafBits) bytes of address space that hold a written page. A loader that
// places each library at a hashed base scatters a GUI launch's written
// pages over a dozen leaves, while a static SPEC binary's fill three: 4 KB
// leaves (2 MB each) under a 16 KB root cost a GUI launch ~60 KB of tables
// and 176.gcc ~28 KB, against ~110 KB and ~32 KB with 8 KB leaves under an
// 8 KB root, and ~58 KB and ~38 KB with 2 KB leaves under a 32 KB one.
const (
	pageShift = 12
	leafBits  = 9
	leafSize  = 1 << leafBits
	rootSize  = 1 << (32 - pageShift - leafBits)
)

type page = [PageSize]byte

// zeroPage backs every read of a mapped page that was never written. It is
// shared by all address spaces and must never reach a writer.
var zeroPage page

// Fault describes an invalid guest memory access.
type Fault struct {
	Addr  uint32
	Size  int
	Write bool
}

func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("mem: fault: %d-byte %s at %#x (unmapped)", f.Size, kind, f.Addr)
}

// Mapping records one region of the guest address space and where its
// contents came from. File-backed mappings (executables and libraries) are
// the only regions whose translations may be persisted.
type Mapping struct {
	Path       string   // identity of the backing binary ("" for anonymous)
	Base       uint32   // guest base address
	Size       uint32   // length in bytes (page-rounded)
	MTime      int64    // modification timestamp of the backing binary
	Digest     [32]byte // content digest of the backing binary (its "program header")
	FileBacked bool     // whether translations of this region may persist
}

// Contains reports whether the guest address lies inside the mapping.
func (m Mapping) Contains(addr uint32) bool {
	return addr >= m.Base && addr-m.Base < m.Size
}

// AddressSpace is a sparse 32-bit guest memory. It is not safe for
// concurrent use: the VM touches it from the dispatch thread only.
type AddressSpace struct {
	// root[addr>>21][addr>>12&511] is the private page holding addr, nil
	// if the page was never written (or is not mapped).
	root     [rootSize]*[leafSize]*page
	resident int
	mappings []Mapping // sorted by Base
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{}
}

// end returns the first address past the mapping; a mapping may end exactly
// at 2^32, which a uint32 cannot hold.
func (m Mapping) end() uint64 { return uint64(m.Base) + uint64(m.Size) }

// Map establishes a mapping. Base and size are rounded out to page
// boundaries. Overlapping an existing mapping is an error. No page memory
// is allocated: the mapping reads as zeros until written.
func (as *AddressSpace) Map(m Mapping) error {
	if m.Size == 0 {
		return fmt.Errorf("mem: empty mapping %q", m.Path)
	}
	end := m.end()
	if end > 1<<32 {
		return fmt.Errorf("mem: mapping %q [%#x,%#x) exceeds address space", m.Path, m.Base, end)
	}
	start := m.Base &^ (PageSize - 1)
	end = (end + PageSize - 1) &^ (PageSize - 1)
	m.Base, m.Size = start, uint32(end-uint64(start))
	for _, ex := range as.mappings {
		if uint64(start) < ex.end() && uint64(ex.Base) < end {
			return fmt.Errorf("mem: mapping %q [%#x,%#x) overlaps %q [%#x,%#x)",
				m.Path, start, end, ex.Path, ex.Base, ex.end())
		}
	}
	as.mappings = append(as.mappings, m)
	sort.Slice(as.mappings, func(i, j int) bool { return as.mappings[i].Base < as.mappings[j].Base })
	return nil
}

// Unmap removes the mapping with the given base address and releases its
// pages.
func (as *AddressSpace) Unmap(base uint32) error {
	for i, m := range as.mappings {
		if m.Base == base {
			as.release(uint64(m.Base)>>pageShift, m.end()>>pageShift)
			as.mappings = append(as.mappings[:i], as.mappings[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("mem: no mapping at %#x", base)
}

// release drops the private pages numbered [lo, hi).
func (as *AddressSpace) release(lo, hi uint64) {
	for num := lo; num < hi; {
		leaf := as.root[num>>leafBits]
		next := (num | (leafSize - 1)) + 1 // first page of the next leaf
		if leaf == nil {
			num = next
			continue
		}
		for ; num < hi && num < next; num++ {
			if leaf[num&(leafSize-1)] != nil {
				leaf[num&(leafSize-1)] = nil
				as.resident--
			}
		}
	}
}

// Resident returns the number of pages that have memory of their own:
// those written at least once since they were mapped.
func (as *AddressSpace) Resident() int { return as.resident }

// MappedPages returns the number of pages covered by the mapping table.
func (as *AddressSpace) MappedPages() int {
	n := 0
	for _, m := range as.mappings {
		n += int(m.Size >> pageShift)
	}
	return n
}

// Mappings returns a copy of the current mapping table, sorted by base.
func (as *AddressSpace) Mappings() []Mapping {
	out := make([]Mapping, len(as.mappings))
	copy(out, as.mappings)
	return out
}

// MappingAt returns the mapping containing addr, if any.
func (as *AddressSpace) MappingAt(addr uint32) (Mapping, bool) {
	if i := as.mappingIndex(addr); i >= 0 {
		return as.mappings[i], true
	}
	return Mapping{}, false
}

// mappingIndex returns the index of the mapping containing addr, or -1.
func (as *AddressSpace) mappingIndex(addr uint32) int {
	lo, hi := 0, len(as.mappings)
	for lo < hi { // first mapping that ends past addr
		mid := int(uint(lo+hi) >> 1)
		if as.mappings[mid].end() > uint64(addr) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(as.mappings) && as.mappings[lo].Base <= addr {
		return lo
	}
	return -1
}

// private returns the private page holding addr, or nil if the page has
// none (never written, or not mapped).
func (as *AddressSpace) private(addr uint32) *page {
	if leaf := as.root[addr>>(pageShift+leafBits)]; leaf != nil {
		return leaf[addr>>pageShift&(leafSize-1)]
	}
	return nil
}

// readable returns the page holding addr for a reader: the shared zero
// page if it is mapped but was never written, nil if it is not mapped.
// Reading never gives a page memory of its own.
func (as *AddressSpace) readable(addr uint32) *page {
	if p := as.private(addr); p != nil {
		return p
	}
	return as.untouched(addr)
}

// writable returns the private page holding addr, allocating it on the
// first write; nil if addr is not mapped.
func (as *AddressSpace) writable(addr uint32) *page {
	if p := as.private(addr); p != nil {
		return p
	}
	return as.materialize(addr)
}

// untouched and materialize are the slow halves of readable and writable,
// for a page without memory of its own; kept out of line so that the
// callers every guest load and store goes through stay small leaf
// functions.
func (as *AddressSpace) untouched(addr uint32) *page {
	if as.mappingIndex(addr) < 0 {
		return nil
	}
	return &zeroPage
}

func (as *AddressSpace) materialize(addr uint32) *page {
	if as.mappingIndex(addr) < 0 {
		return nil
	}
	num := addr >> pageShift
	leaf := as.root[num>>leafBits]
	if leaf == nil {
		leaf = new([leafSize]*page)
		as.root[num>>leafBits] = leaf
	}
	p := new(page)
	leaf[num&(leafSize-1)] = p
	as.resident++
	return p
}

// ReadU8 loads one byte.
func (as *AddressSpace) ReadU8(addr uint32) (byte, error) {
	p := as.readable(addr)
	if p == nil {
		return 0, &Fault{Addr: addr, Size: 1}
	}
	return p[addr&(PageSize-1)], nil
}

// WriteU8 stores one byte.
func (as *AddressSpace) WriteU8(addr uint32, v byte) error {
	p := as.writable(addr)
	if p == nil {
		return &Fault{Addr: addr, Size: 1, Write: true}
	}
	p[addr&(PageSize-1)] = v
	return nil
}

// ReadUint loads a size-byte little-endian unsigned integer
// (size must be 1, 2, 4 or 8). Accesses may be unaligned and may cross
// page boundaries.
func (as *AddressSpace) ReadUint(addr uint32, size int) (uint64, error) {
	off := addr & (PageSize - 1)
	p := as.readable(addr)
	if p == nil {
		return 0, &Fault{Addr: addr, Size: size}
	}
	if int(off)+size <= PageSize {
		switch size {
		case 1:
			return uint64(p[off]), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:])), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:])), nil
		case 8:
			return binary.LittleEndian.Uint64(p[off:]), nil
		default:
			return 0, fmt.Errorf("mem: bad access size %d", size)
		}
	}
	// Page-crossing slow path.
	var v uint64
	for i := 0; i < size; i++ {
		a := addr + uint32(i)
		if a < addr { // ran off the top of the address space
			return 0, &Fault{Addr: a, Size: 1}
		}
		b, err := as.ReadU8(a)
		if err != nil {
			return 0, err
		}
		v |= uint64(b) << (8 * i)
	}
	return v, nil
}

// WriteUint stores a size-byte little-endian unsigned integer. A store
// that faults writes nothing.
func (as *AddressSpace) WriteUint(addr uint32, size int, v uint64) error {
	off := addr & (PageSize - 1)
	if int(off)+size > PageSize {
		// Page-crossing slow path: both pages must be mapped before
		// either is touched.
		next := addr + (PageSize - off) // 0 past the top
		if as.mappingIndex(addr) < 0 {
			return &Fault{Addr: addr, Size: size, Write: true}
		}
		if next == 0 || as.mappingIndex(next) < 0 {
			return &Fault{Addr: next, Size: 1, Write: true}
		}
		for i := 0; i < size; i++ {
			a := addr + uint32(i)
			as.writable(a)[a&(PageSize-1)] = byte(v >> (8 * i))
		}
		return nil
	}
	p := as.writable(addr)
	if p == nil {
		return &Fault{Addr: addr, Size: size, Write: true}
	}
	switch size {
	case 1:
		p[off] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(p[off:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(p[off:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(p[off:], v)
	default:
		return fmt.Errorf("mem: bad access size %d", size)
	}
	return nil
}

// Load64 is the fast half of ReadUint(addr, 8), small enough to be inlined
// into the trace executor: a doubleword inside one page that has memory of
// its own is read in place. Anything else (never-written page, page
// crossing, unmapped) reports ok false and is ReadUint's to serve or fault.
func (as *AddressSpace) Load64(addr uint32) (v uint64, ok bool) {
	if p := as.private(addr); p != nil && addr&(PageSize-1) <= PageSize-8 {
		return binary.LittleEndian.Uint64(p[addr&(PageSize-1):]), true
	}
	return 0, false
}

// Store64 is the fast half of WriteUint(addr, 8, v), as Load64 is of
// ReadUint; when it reports false nothing was written.
func (as *AddressSpace) Store64(addr uint32, v uint64) bool {
	if p := as.private(addr); p != nil && addr&(PageSize-1) <= PageSize-8 {
		binary.LittleEndian.PutUint64(p[addr&(PageSize-1):], v)
		return true
	}
	return false
}

// ReadBytes copies len(dst) bytes starting at addr into dst.
func (as *AddressSpace) ReadBytes(addr uint32, dst []byte) error {
	for len(dst) > 0 {
		p := as.readable(addr)
		if p == nil {
			return &Fault{Addr: addr, Size: len(dst)}
		}
		off := addr & (PageSize - 1)
		n := copy(dst, p[off:])
		dst = dst[n:]
		addr += uint32(n)
		if addr == 0 && len(dst) > 0 { // ran off the top of the address space
			return &Fault{Addr: addr, Size: len(dst)}
		}
	}
	return nil
}

// WriteBytes copies src into guest memory starting at addr.
func (as *AddressSpace) WriteBytes(addr uint32, src []byte) error {
	for len(src) > 0 {
		p := as.writable(addr)
		if p == nil {
			return &Fault{Addr: addr, Size: len(src), Write: true}
		}
		off := addr & (PageSize - 1)
		n := copy(p[off:], src)
		src = src[n:]
		addr += uint32(n)
		if addr == 0 && len(src) > 0 { // ran off the top of the address space
			return &Fault{Addr: addr, Size: len(src), Write: true}
		}
	}
	return nil
}

// WriteMapping writes the bytes of mapping m to w a page at a time, without
// copying them and without giving untouched pages memory of their own —
// the way to digest or dump guest memory. m must come from Mappings.
func (as *AddressSpace) WriteMapping(w io.Writer, m Mapping) error {
	for num, end := uint64(m.Base)>>pageShift, m.end()>>pageShift; num < end; num++ {
		p := as.readable(uint32(num << pageShift))
		if p == nil {
			return &Fault{Addr: uint32(num << pageShift), Size: PageSize}
		}
		if _, err := w.Write(p[:]); err != nil {
			return err
		}
	}
	return nil
}
