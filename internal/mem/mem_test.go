package mem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustMap(t *testing.T, as *AddressSpace, base, size uint32) {
	t.Helper()
	if err := as.Map(Mapping{Path: "test", Base: base, Size: size}); err != nil {
		t.Fatalf("Map(%#x, %d): %v", base, size, err)
	}
}

func TestMapRounding(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Map(Mapping{Path: "x", Base: 0x1010, Size: 100}); err != nil {
		t.Fatal(err)
	}
	ms := as.Mappings()
	if len(ms) != 1 || ms[0].Base != 0x1000 || ms[0].Size != PageSize {
		t.Fatalf("mapping not page rounded: %+v", ms)
	}
	// Rounded region is fully accessible.
	if err := as.WriteU8(0x1fff, 1); err != nil {
		t.Fatalf("write at end of rounded page: %v", err)
	}
}

func TestMapErrors(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Map(Mapping{Path: "x", Base: 0, Size: 0}); err == nil {
		t.Error("empty mapping accepted")
	}
	if err := as.Map(Mapping{Path: "x", Base: 0xffffe000, Size: 0x3000}); err == nil {
		t.Error("mapping past end of address space accepted")
	}
	mustMap(t, as, 0x10000, 0x2000)
	if err := as.Map(Mapping{Path: "y", Base: 0x11000, Size: 0x1000}); err == nil {
		t.Error("overlapping mapping accepted")
	}
	if err := as.Map(Mapping{Path: "y", Base: 0x12000, Size: 0x1000}); err != nil {
		t.Errorf("adjacent mapping rejected: %v", err)
	}
}

func TestUnmap(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x10000, 0x1000)
	if err := as.WriteU8(0x10000, 42); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(0x10000); err != nil {
		t.Fatal(err)
	}
	if _, err := as.ReadU8(0x10000); err == nil {
		t.Error("read from unmapped region succeeded")
	}
	if err := as.Unmap(0x10000); err == nil {
		t.Error("double unmap succeeded")
	}
	if len(as.Mappings()) != 0 {
		t.Error("mapping table not empty after unmap")
	}
}

func TestFaults(t *testing.T) {
	as := NewAddressSpace()
	_, err := as.ReadUint(0x5000, 8)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want *Fault, got %v", err)
	}
	if f.Addr != 0x5000 || f.Write {
		t.Errorf("fault fields wrong: %+v", f)
	}
	err = as.WriteUint(0x5000, 4, 1)
	if !errors.As(err, &f) || !f.Write {
		t.Errorf("write fault wrong: %v", err)
	}
	if f.Error() == "" {
		t.Error("empty fault message")
	}
}

func TestReadWriteSizes(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x1000, 0x1000)
	for _, size := range []int{1, 2, 4, 8} {
		v := uint64(0x1122334455667788) & (1<<(8*size) - 1)
		if size == 8 {
			v = 0x1122334455667788
		}
		if err := as.WriteUint(0x1100, size, v); err != nil {
			t.Fatal(err)
		}
		got, err := as.ReadUint(0x1100, size)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Errorf("size %d: got %#x want %#x", size, got, v)
		}
	}
	if _, err := as.ReadUint(0x1100, 3); err == nil {
		t.Error("odd size accepted")
	}
	if err := as.WriteUint(0x1100, 5, 0); err == nil {
		t.Error("odd size accepted for write")
	}
}

func TestPageCrossingAccess(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x1000, 0x2000)
	addr := uint32(0x1ffc) // crosses the 0x2000 page boundary for 8-byte access
	want := uint64(0xdeadbeefcafef00d)
	if err := as.WriteUint(addr, 8, want); err != nil {
		t.Fatal(err)
	}
	got, err := as.ReadUint(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("page-crossing round trip: got %#x want %#x", got, want)
	}
	// Crossing into an unmapped page faults.
	as2 := NewAddressSpace()
	mustMap(t, as2, 0x1000, 0x1000)
	if err := as2.WriteUint(0x1ffc, 8, 1); err == nil {
		t.Error("write crossing into unmapped page succeeded")
	}
	if _, err := as2.ReadUint(0x1ffc, 8); err == nil {
		t.Error("read crossing into unmapped page succeeded")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x1000, 0x3000)
	src := make([]byte, 5000) // spans multiple pages
	for i := range src {
		src[i] = byte(i * 7)
	}
	if err := as.WriteBytes(0x1800, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := as.ReadBytes(0x1800, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("bytes round trip mismatch")
	}
	if err := as.WriteBytes(0x3f00, make([]byte, 1000)); err == nil {
		t.Error("WriteBytes past mapping succeeded")
	}
}

func TestMappingAt(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x10000, 0x1000)
	if err := as.Map(Mapping{Path: "lib", Base: 0x20000, Size: 0x2000}); err != nil {
		t.Fatal(err)
	}
	m, ok := as.MappingAt(0x10800)
	if !ok || m.Path != "test" {
		t.Errorf("MappingAt(0x10800) = %+v, %v", m, ok)
	}
	m, ok = as.MappingAt(0x21fff)
	if !ok || m.Path != "lib" {
		t.Errorf("MappingAt(0x21fff) = %+v, %v", m, ok)
	}
	if _, ok := as.MappingAt(0x22000); ok {
		t.Error("MappingAt past end found a mapping")
	}
	if _, ok := as.MappingAt(0x5000); ok {
		t.Error("MappingAt in hole found a mapping")
	}
}

// Property: for any sequence of writes followed by reads at the same
// addresses/sizes inside a mapped region, reads observe the last write.
func TestReadAfterWriteProperty(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x8000, 0x4000)
	f := func(offsets []uint16, vals []uint64) bool {
		n := len(offsets)
		if len(vals) < n {
			n = len(vals)
		}
		type access struct {
			addr uint32
			size int
			val  uint64
		}
		var accs []access
		for i := 0; i < n; i++ {
			size := []int{1, 2, 4, 8}[i%4]
			addr := 0x8000 + uint32(offsets[i])%(0x4000-8)
			val := vals[i] & (1<<(8*size) - 1)
			if size == 8 {
				val = vals[i]
			}
			if err := as.WriteUint(addr, size, val); err != nil {
				return false
			}
			// Evict previously recorded accesses this write overlaps:
			// their bytes are now stale.
			kept := accs[:0]
			for _, a := range accs {
				if !(addr < a.addr+uint32(a.size) && a.addr < addr+uint32(size)) {
					kept = append(kept, a)
				}
			}
			accs = append(kept, access{addr, size, val})
		}
		for _, a := range accs {
			got, err := as.ReadUint(a.addr, a.size)
			if err != nil || got != a.val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func wantResident(t *testing.T, as *AddressSpace, want int, when string) {
	t.Helper()
	if got := as.Resident(); got != want {
		t.Fatalf("Resident() = %d %s, want %d", got, when, want)
	}
}

func wantFault(t *testing.T, err error, want Fault) {
	t.Helper()
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want fault %+v, got %v", want, err)
	}
	if *f != want {
		t.Fatalf("fault = %+v, want %+v", *f, want)
	}
}

// TestDemandZero: mapping and reading cost no page memory; a write
// materialises exactly the pages it touches.
func TestDemandZero(t *testing.T) {
	const base, size = 0x2000_0000, 16 << 20
	as := NewAddressSpace()
	mustMap(t, as, base, size)
	wantResident(t, as, 0, "after Map of 16 MiB")
	if got := as.MappedPages(); got != size/PageSize {
		t.Fatalf("MappedPages() = %d, want %d", got, size/PageSize)
	}

	buf := make([]byte, size)
	if err := as.ReadBytes(base, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, size)) {
		t.Fatal("untouched mapping does not read as zeros")
	}
	for _, sz := range []int{1, 2, 4, 8} {
		if v, err := as.ReadUint(base+0x5000-4, sz); err != nil || v != 0 {
			t.Fatalf("ReadUint size %d of untouched memory = %#x, %v", sz, v, err)
		}
	}
	wantResident(t, as, 0, "after reading every byte")

	if err := as.WriteU8(base+0x3010, 7); err != nil {
		t.Fatal(err)
	}
	wantResident(t, as, 1, "after one WriteU8")
	// Out of the page just written into the untouched one above it.
	if err := as.WriteUint(base+0x4000-4, 8, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	wantResident(t, as, 2, "after a page-crossing WriteUint")
	if v, _ := as.ReadUint(base+0x4000-4, 8); v != 0x1122334455667788 {
		t.Fatalf("page-crossing write read back %#x", v)
	}
	if err := as.WriteBytes(base+0x10_0000-1, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	wantResident(t, as, 4, "after a 2-byte WriteBytes across a page boundary")
}

// TestPageCrossingWriteFaultsWhole: a store whose second page is unmapped
// faults on that page's first byte and leaves the first page as it was —
// unwritten and unmaterialised.
func TestPageCrossingWriteFaultsWhole(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x1000, 0x1000)
	err := as.WriteUint(0x1ffc, 8, ^uint64(0))
	wantFault(t, err, Fault{Addr: 0x2000, Size: 1, Write: true})
	wantResident(t, as, 0, "after a faulting page-crossing write")
	if v, err := as.ReadUint(0x1ffc, 4); err != nil || v != 0 {
		t.Fatalf("faulting store left %#x behind (err %v)", v, err)
	}
	_, err = as.ReadUint(0x1ffc, 8)
	wantFault(t, err, Fault{Addr: 0x2000, Size: 1})
	// First page unmapped, second mapped: the fault names the access.
	err = as.WriteUint(0xffc, 8, 1)
	wantFault(t, err, Fault{Addr: 0xffc, Size: 8, Write: true})
	wantResident(t, as, 0, "after both faults")
}

// TestZeroPageNeverWritable: reading an untouched page and then writing it
// must give the page memory of its own — a write that landed in the shared
// zero page would show up in every other untouched page.
func TestZeroPageNeverWritable(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x10000, 0x4000)
	if v, err := as.ReadU8(0x10008); err != nil || v != 0 {
		t.Fatalf("read of untouched page: %d, %v", v, err)
	}
	if err := as.WriteU8(0x10008, 0xAA); err != nil { // same page as the read just cached
		t.Fatal(err)
	}
	wantResident(t, as, 1, "after read-then-write of one page")
	if v, _ := as.ReadU8(0x10008); v != 0xAA {
		t.Fatalf("write lost: read back %#x", v)
	}
	for _, addr := range []uint32{0x11008, 0x12008, 0x13008} {
		if v, err := as.ReadU8(addr); err != nil || v != 0 {
			t.Errorf("write leaked into untouched page: [%#x] = %#x, %v", addr, v, err)
		}
	}
	other := NewAddressSpace()
	mustMap(t, other, 0x10000, 0x1000)
	if v, _ := other.ReadU8(0x10008); v != 0 {
		t.Errorf("write leaked into another address space: %#x", v)
	}
	if zeroPage != (page{}) {
		t.Fatal("the shared zero page was written")
	}
}

// TestUnmapDropsPages: Unmap releases residency and the one-entry cache,
// and a fresh mapping of the same range reads zeros again.
func TestUnmapDropsPages(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x40_0000-0x2000, 0x4000) // straddles a leaf boundary
	mustMap(t, as, 0x80_0000, 0x1000)
	for _, addr := range []uint32{0x40_0000 - 0x2000, 0x40_0000 - 1, 0x40_0000, 0x40_1fff, 0x80_0000} {
		if err := as.WriteU8(addr, 0x55); err != nil {
			t.Fatal(err)
		}
	}
	wantResident(t, as, 5, "after five writes")
	if err := as.WriteU8(0x40_0000, 0x66); err != nil { // leaves this page in the cache
		t.Fatal(err)
	}
	if err := as.Unmap(0x40_0000 - 0x2000); err != nil {
		t.Fatal(err)
	}
	wantResident(t, as, 1, "after Unmap")
	_, err := as.ReadU8(0x40_0000)
	wantFault(t, err, Fault{Addr: 0x40_0000, Size: 1})
	wantFault(t, as.WriteU8(0x40_0000, 1), Fault{Addr: 0x40_0000, Size: 1, Write: true})
	wantResident(t, as, 1, "after faulting on the unmapped range")
	mustMap(t, as, 0x40_0000-0x2000, 0x4000)
	for _, addr := range []uint32{0x40_0000 - 0x2000, 0x40_0000 - 1, 0x40_0000, 0x40_1fff} {
		if v, err := as.ReadU8(addr); err != nil || v != 0 {
			t.Errorf("re-mapped [%#x] = %#x, %v; want 0", addr, v, err)
		}
	}
	if v, _ := as.ReadU8(0x80_0000); v != 0x55 {
		t.Errorf("Unmap disturbed a neighbouring mapping: %#x", v)
	}
}

// TestTopOfAddressSpace: a mapping may end exactly at 2^32, and nothing
// may wrap around it to address 0.
func TestTopOfAddressSpace(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0xFFFF_0000, 0x1_0000)
	if err := as.WriteU8(0xFFFF_FFFF, 0x9C); err != nil {
		t.Fatalf("write of the last byte: %v", err)
	}
	if v, err := as.ReadU8(0xFFFF_FFFF); err != nil || v != 0x9C {
		t.Fatalf("read of the last byte: %#x, %v", v, err)
	}
	m, ok := as.MappingAt(0xFFFF_FFFF)
	if !ok || m.Base != 0xFFFF_0000 || m.Size != 0x1_0000 {
		t.Fatalf("MappingAt(0xFFFFFFFF) = %+v, %v", m, ok)
	}
	if err := as.Map(Mapping{Path: "over", Base: 0xFFFF_8000, Size: 0x1000}); err == nil {
		t.Error("mapping overlapping the top 64 KiB accepted")
	}
	if err := as.Map(Mapping{Path: "below", Base: 0xFFFE_F000, Size: 0x1000}); err != nil {
		t.Errorf("mapping adjacent below the top 64 KiB rejected: %v", err)
	}

	// With page 0 mapped, an access running off the top must still fault
	// rather than continue at address 0.
	mustMap(t, as, 0, 0x1000)
	resident := as.Resident()
	_, err := as.ReadUint(0xFFFF_FFFC, 8)
	wantFault(t, err, Fault{Addr: 0, Size: 1})
	wantFault(t, as.WriteUint(0xFFFF_FFFC, 8, ^uint64(0)), Fault{Addr: 0, Size: 1, Write: true})
	if v, _ := as.ReadUint(0xFFFF_FFFC, 4); v != 0x9C00_0000 {
		t.Errorf("faulting store past the top wrote %#x", v)
	}
	if v, _ := as.ReadUint(0, 4); v != 0 {
		t.Errorf("store past the top landed at address 0: %#x", v)
	}
	wantFault(t, as.ReadBytes(0xFFFF_FFFE, make([]byte, 4)), Fault{Addr: 0, Size: 2})
	wantFault(t, as.WriteBytes(0xFFFF_FFFE, []byte{1, 2, 3, 4}), Fault{Addr: 0, Size: 2, Write: true})
	if as.Resident() != resident {
		t.Errorf("faulting accesses changed residency: %d -> %d", resident, as.Resident())
	}
	if err := as.Unmap(0xFFFF_0000); err != nil {
		t.Fatal(err)
	}
	if _, ok := as.MappingAt(0xFFFF_FFFF); ok {
		t.Error("top mapping survives Unmap")
	}
}

// TestWriteMapping: the streamed image of a mapping is what ReadBytes
// returns, untouched pages included, and streaming materialises nothing.
func TestWriteMapping(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0xFFFF_C000, 0x4000) // ends at 2^32
	if err := as.WriteBytes(0xFFFF_D800, bytes.Repeat([]byte{0xEE}, 0x1000)); err != nil {
		t.Fatal(err)
	}
	m := as.Mappings()[0]
	var got bytes.Buffer
	if err := as.WriteMapping(&got, m); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, m.Size)
	if err := as.ReadBytes(m.Base, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("streamed mapping differs from ReadBytes")
	}
	wantResident(t, as, 2, "after streaming")
	if err := as.WriteMapping(&got, Mapping{Base: 0x1000, Size: 0x1000}); err == nil {
		t.Error("streaming an unmapped range succeeded")
	}
}

// eagerSpace is the trivially eager reference model: every page of a
// mapping is allocated when it is mapped and found through a hash map.
type eagerSpace struct {
	pages map[uint32]*[PageSize]byte
	maps  map[uint32]uint32 // base -> size
}

func (e *eagerSpace) mapAt(base, size uint32) bool {
	end := uint64(base) + uint64(size)
	if size == 0 || end > 1<<32 {
		return false
	}
	for p := uint64(base); p < end; p += PageSize {
		if e.pages[uint32(p>>pageShift)] != nil {
			return false
		}
	}
	for p := uint64(base); p < end; p += PageSize {
		e.pages[uint32(p>>pageShift)] = new([PageSize]byte)
	}
	e.maps[base] = size
	return true
}

func (e *eagerSpace) unmap(base uint32) bool {
	size, ok := e.maps[base]
	if !ok {
		return false
	}
	for p := uint64(base); p < uint64(base)+uint64(size); p += PageSize {
		delete(e.pages, uint32(p>>pageShift))
	}
	delete(e.maps, base)
	return true
}

// firstBad returns the first address in [addr, addr+n) that is not mapped
// (or lies past the top of the address space), or -1.
func (e *eagerSpace) firstBad(addr uint32, n int) int64 {
	for i := 0; i < n; i++ {
		a := uint64(addr) + uint64(i)
		if a >= 1<<32 || e.pages[uint32(a>>pageShift)] == nil {
			return int64(a)
		}
	}
	return -1
}

func (e *eagerSpace) byteAt(a uint32) *byte { return &e.pages[a>>pageShift][a&(PageSize-1)] }

// TestAgainstEagerModel drives the address space and the reference model
// with the same random map/unmap/read/write sequence and demands the same
// bytes and the same faults from both.
func TestAgainstEagerModel(t *testing.T) {
	// A small arena with page 0, a leaf boundary and the top of the
	// address space in it, so wrap-around and table edges get exercised.
	arenas := []uint32{0, 0x40_0000 - 0x4000, 0xFFFF_8000}
	const arenaSize = 0x8000
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		as := NewAddressSpace()
		ref := &eagerSpace{pages: map[uint32]*[PageSize]byte{}, maps: map[uint32]uint32{}}
		pick := func() uint32 { // an address in or just around an arena
			return arenas[rng.Intn(len(arenas))] + uint32(rng.Intn(arenaSize+16)) - 8
		}
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(100); {
			case op < 8:
				base := arenas[rng.Intn(len(arenas))] + uint32(rng.Intn(arenaSize/PageSize))*PageSize
				size := uint32(1+rng.Intn(4)) * PageSize
				err := as.Map(Mapping{Path: "m", Base: base, Size: size})
				if ok := ref.mapAt(base, size); ok != (err == nil) {
					t.Fatalf("seed %d step %d: Map(%#x,%#x) err %v, model accepted=%v", seed, step, base, size, err, ok)
				}
			case op < 14:
				base := arenas[rng.Intn(len(arenas))] + uint32(rng.Intn(arenaSize/PageSize))*PageSize
				err := as.Unmap(base)
				if ok := ref.unmap(base); ok != (err == nil) {
					t.Fatalf("seed %d step %d: Unmap(%#x) err %v, model accepted=%v", seed, step, base, err, ok)
				}
			case op < 45:
				addr, size := pick(), []int{1, 2, 4, 8}[rng.Intn(4)]
				got, err := as.ReadUint(addr, size)
				checkAccess(t, ref, "ReadUint", addr, size, false, err)
				if err == nil {
					var want uint64
					for i := 0; i < size; i++ {
						want |= uint64(*ref.byteAt(addr + uint32(i))) << (8 * i)
					}
					if got != want {
						t.Fatalf("seed %d step %d: ReadUint(%#x,%d) = %#x, model %#x", seed, step, addr, size, got, want)
					}
				}
			case op < 80:
				addr, size, v := pick(), []int{1, 2, 4, 8}[rng.Intn(4)], rng.Uint64()
				err := as.WriteUint(addr, size, v)
				checkAccess(t, ref, "WriteUint", addr, size, true, err)
				if err == nil {
					for i := 0; i < size; i++ {
						*ref.byteAt(addr + uint32(i)) = byte(v >> (8 * i))
					}
				}
			case op < 90:
				addr, buf := pick(), make([]byte, rng.Intn(3*PageSize))
				err := as.ReadBytes(addr, buf)
				if bad := ref.firstBad(addr, len(buf)); bad >= 0 {
					// The fault names the page where the copy stopped.
					at := uint32(bad)
					if at != addr {
						at &^= PageSize - 1
					}
					wantFault(t, err, Fault{Addr: at, Size: len(buf) - int(at-addr)})
				} else if err != nil {
					t.Fatalf("seed %d step %d: ReadBytes(%#x,%d): %v", seed, step, addr, len(buf), err)
				} else {
					for i, b := range buf {
						if want := *ref.byteAt(addr + uint32(i)); b != want {
							t.Fatalf("seed %d step %d: ReadBytes(%#x)[%d] = %#x, model %#x", seed, step, addr, i, b, want)
						}
					}
				}
			default:
				addr, buf := pick(), make([]byte, rng.Intn(3*PageSize))
				rng.Read(buf)
				err := as.WriteBytes(addr, buf)
				n := len(buf)
				if bad := ref.firstBad(addr, len(buf)); bad >= 0 {
					at := uint32(bad)
					if at != addr {
						at &^= PageSize - 1
					}
					wantFault(t, err, Fault{Addr: at, Size: len(buf) - int(at-addr), Write: true})
					n = int(at - addr) // the pages before the fault were written
				} else if err != nil {
					t.Fatalf("seed %d step %d: WriteBytes(%#x,%d): %v", seed, step, addr, len(buf), err)
				}
				for i := 0; i < n; i++ {
					*ref.byteAt(addr + uint32(i)) = buf[i]
				}
			}
		}
		// Final sweep: every page of every arena agrees, mapped or not.
		touched := 0
		for _, arena := range arenas {
			for off := uint32(0); off < arenaSize; off += PageSize {
				var got [PageSize]byte
				err := as.ReadBytes(arena+off, got[:])
				want := ref.pages[(arena+off)>>pageShift]
				if (want == nil) != (err != nil) {
					t.Fatalf("seed %d: page %#x mapped in model=%v, ReadBytes err %v", seed, arena+off, want != nil, err)
				}
				if want != nil && got != *want {
					t.Fatalf("seed %d: page %#x differs from the model", seed, arena+off)
				}
				if want != nil && *want != (page{}) {
					touched++
				}
			}
		}
		if as.Resident() < touched || as.Resident() > as.MappedPages() {
			t.Fatalf("seed %d: Resident() = %d with %d non-zero pages of %d mapped", seed, as.Resident(), touched, as.MappedPages())
		}
		if len(as.Mappings()) != len(ref.maps) {
			t.Fatalf("seed %d: %d mappings, model has %d", seed, len(as.Mappings()), len(ref.maps))
		}
	}
}

// checkAccess checks the error of a ReadUint/WriteUint against the model:
// an access whose first byte is unmapped faults as a whole; one that runs
// into an unmapped (or nonexistent) second page faults on that page's
// first byte, one byte wide.
func checkAccess(t *testing.T, ref *eagerSpace, what string, addr uint32, size int, write bool, err error) {
	t.Helper()
	bad := ref.firstBad(addr, size)
	switch {
	case bad < 0:
		if err != nil {
			t.Fatalf("%s(%#x,%d): %v, model has it mapped", what, addr, size, err)
		}
	case uint32(bad) == addr:
		wantFault(t, err, Fault{Addr: addr, Size: size, Write: write})
	default:
		wantFault(t, err, Fault{Addr: uint32(bad), Size: 1, Write: write})
	}
}
