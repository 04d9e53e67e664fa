// Package loader implements the VR64 dynamic loader: it maps an executable
// and its transitively needed shared libraries into a guest address space,
// assigns base addresses, applies dynamic relocations, and records the
// relocation sites so the VM can attribute position-dependence to translated
// traces (internal/vm) and the persistent cache manager can validate or
// rebase them (internal/core).
//
// Base-address assignment is deterministic by default, which is what makes
// same-input persistent caches reusable run to run ("libraries may load at
// different addresses across executions, as a result of changes in program
// behavior or host environment" — we model that with PlaceASLR/ASLRSeed).
// PlaceHashed places each library at a slot derived from its name, so
// applications sharing a library tend to map it at the same address — the
// precondition the paper states for inter-application reuse of library
// translations.
package loader

import (
	"fmt"
	"hash/fnv"
	"sort"

	"persistcc/internal/mem"
	"persistcc/internal/obj"
)

// Placement selects the library base-address policy.
type Placement uint8

const (
	// PlaceSequential packs libraries one after another from LibBase in
	// load order. Deterministic for a fixed dependency set.
	PlaceSequential Placement = iota
	// PlaceHashed derives each library's preferred slot from its name
	// (with linear probing on collision), so different applications map
	// shared libraries at the same base when possible.
	PlaceHashed
	// PlaceASLR jitters sequential placement with a seeded PRNG; different
	// seeds model different host environments across executions.
	PlaceASLR
)

// Default address-space geometry.
const (
	DefaultExecBase  = 0x0040_0000
	DefaultLibBase   = 0x4000_0000
	DefaultHeapBase  = 0x2000_0000
	DefaultHeapSize  = 16 << 20
	DefaultStackTop  = 0xF000_0000
	DefaultStackSize = 1 << 20
	DefaultInputBase = 0x0800_0000
	DefaultInputSize = 64 << 10

	hashSlot = 1 << 20 // PlaceHashed slot granularity
)

// Config controls a load operation. The zero value selects all defaults.
type Config struct {
	ExecBase  uint32
	LibBase   uint32
	HeapBase  uint32
	HeapSize  uint32
	StackTop  uint32
	StackSize uint32
	InputBase uint32
	InputSize uint32

	Placement Placement
	ASLRSeed  uint64 // used by PlaceASLR

	// Resolve maps a needed-library name to its file and modification
	// time. Required when the executable has dependencies.
	Resolve func(name string) (*obj.File, int64, error)

	// MTime is the executable's modification timestamp (persistence key
	// material).
	MTime int64
}

func (c *Config) fillDefaults() {
	if c.ExecBase == 0 {
		c.ExecBase = DefaultExecBase
	}
	if c.LibBase == 0 {
		c.LibBase = DefaultLibBase
	}
	if c.HeapBase == 0 {
		c.HeapBase = DefaultHeapBase
	}
	if c.HeapSize == 0 {
		c.HeapSize = DefaultHeapSize
	}
	if c.StackTop == 0 {
		c.StackTop = DefaultStackTop
	}
	if c.StackSize == 0 {
		c.StackSize = DefaultStackSize
	}
	if c.InputBase == 0 {
		c.InputBase = DefaultInputBase
	}
	if c.InputSize == 0 {
		c.InputSize = DefaultInputSize
	}
}

// RelocSite is a dynamic-relocation site after resolution: a patched field
// at Off (module-relative) whose value depends on the base address of
// Target (a module index) — and, for pc-relative sites, on the containing
// module's own base. The VM copies overlapping sites into traces as
// relocation notes; the persistent cache manager uses them for validation
// and for the relocatable-translation extension.
type RelocSite struct {
	Off       uint32 // module-relative offset of the patched field
	Type      obj.RelocType
	Target    int    // index into Process.Modules
	TargetOff uint32 // module-relative offset of the target value
	InText    bool
}

// LoadedModule is one mapped executable or library.
type LoadedModule struct {
	File   *obj.File
	Base   uint32
	MTime  int64
	Digest [32]byte    // File.Digest(), computed once at load
	Sites  []RelocSite // sorted by Off
}

// Contains reports whether addr falls inside the module image.
func (m *LoadedModule) Contains(addr uint32) bool {
	return addr >= m.Base && addr-m.Base < m.File.ImageSize()
}

// Process is a loaded guest program, ready for execution by internal/vm.
type Process struct {
	AS      *mem.AddressSpace
	Modules []*LoadedModule // Modules[0] is the executable
	Entry   uint32          // absolute entry address
	SP      uint32          // initial stack pointer
	GP      uint32          // initial global pointer (executable's data)

	HeapBase  uint32
	HeapSize  uint32
	InputBase uint32
	InputSize uint32
}

// ModuleLayout is the placement fact of one loaded module — the part of a
// load that can differ across executions (base randomization, changed
// binaries) and therefore must be captured by the record-and-replay layer
// and re-verified at replay time.
type ModuleLayout struct {
	Name   string
	Base   uint32
	Size   uint32
	MTime  int64
	Digest [32]byte
}

// Layout returns the process's module placement in load order: everything
// a replay needs to check that the same binaries were mapped at the same
// addresses before re-executing a recording.
func (p *Process) Layout() []ModuleLayout {
	out := make([]ModuleLayout, 0, len(p.Modules))
	for _, m := range p.Modules {
		out = append(out, ModuleLayout{
			Name:   m.File.Name,
			Base:   m.Base,
			Size:   m.File.ImageSize(),
			MTime:  m.MTime,
			Digest: m.Digest,
		})
	}
	return out
}

// ModuleAt returns the index of the module containing addr, or -1.
func (p *Process) ModuleAt(addr uint32) int {
	for i, m := range p.Modules {
		if m.Contains(addr) {
			return i
		}
	}
	return -1
}

// Load maps exe and its dependencies and prepares a runnable process.
func Load(exe *obj.File, cfg Config) (*Process, error) {
	cfg.fillDefaults()
	if exe.Kind != obj.KindExec {
		return nil, fmt.Errorf("loader: %s is a %s, not an executable", exe.Name, exe.Kind)
	}

	// Gather modules breadth-first: executable first, then needed
	// libraries in first-mention order.
	type pending struct {
		file  *obj.File
		mtime int64
	}
	loaded := []pending{{exe, cfg.MTime}}
	seen := map[string]bool{exe.Name: true}
	for i := 0; i < len(loaded); i++ {
		for _, need := range loaded[i].file.Needed {
			if seen[need] {
				continue
			}
			seen[need] = true
			if cfg.Resolve == nil {
				return nil, fmt.Errorf("loader: %s needs %s but no resolver configured", loaded[i].file.Name, need)
			}
			f, mtime, err := cfg.Resolve(need)
			if err != nil {
				return nil, fmt.Errorf("loader: resolving %s: %w", need, err)
			}
			if f.Kind != obj.KindLib {
				return nil, fmt.Errorf("loader: %s resolved to a %s, not a library", need, f.Kind)
			}
			if f.Name != need {
				return nil, fmt.Errorf("loader: asked for %s, resolver returned %s", need, f.Name)
			}
			loaded = append(loaded, pending{f, mtime})
		}
	}

	p := &Process{
		AS:        mem.NewAddressSpace(),
		HeapBase:  cfg.HeapBase,
		HeapSize:  cfg.HeapSize,
		InputBase: cfg.InputBase,
		InputSize: cfg.InputSize,
	}

	// Assign bases and map images.
	rng := cfg.ASLRSeed
	nextSeq := cfg.LibBase
	for i, pend := range loaded {
		f := pend.file
		size := f.ImageSize()
		var base uint32
		if i == 0 {
			base = cfg.ExecBase
		} else {
			switch cfg.Placement {
			case PlaceSequential:
				base = nextSeq
			case PlaceASLR:
				rng = splitmix64(rng)
				jitter := uint32(rng%256) * mem.PageSize
				base = nextSeq + jitter
			case PlaceHashed:
				base = hashedBase(p, f.Name, size, cfg.LibBase)
			default:
				return nil, fmt.Errorf("loader: unknown placement %d", cfg.Placement)
			}
		}
		m := &LoadedModule{File: f, Base: base, MTime: pend.mtime, Digest: f.Digest()}
		if err := p.AS.Map(mem.Mapping{
			Path:       f.Name,
			Base:       base,
			Size:       size,
			MTime:      pend.mtime,
			Digest:     m.Digest,
			FileBacked: true,
		}); err != nil {
			return nil, fmt.Errorf("loader: mapping %s: %w", f.Name, err)
		}
		// Text and data go straight into guest memory; the padding between
		// them and the bss are never written and so read as zeros.
		if err := p.AS.WriteBytes(base, f.Text); err != nil {
			return nil, err
		}
		if err := p.AS.WriteBytes(base+f.DataOff(), f.Data); err != nil {
			return nil, err
		}
		p.Modules = append(p.Modules, m)
		if base+size > nextSeq {
			nextSeq = alignUp(base+size, hashSlot/4)
		}
	}

	// Build the global export table: symbol -> (module, offset); first
	// definition wins, searching in load order.
	type export struct {
		mod int
		off uint32
	}
	nexp := 0
	for _, m := range p.Modules {
		nexp += len(m.File.Exports)
	}
	exports := make(map[string]export, nexp)
	for mi, m := range p.Modules {
		for _, e := range m.File.Exports {
			if _, ok := exports[e.Name]; !ok {
				exports[e.Name] = export{mi, e.Off}
			}
		}
	}

	// Apply dynamic relocations and record sites.
	for mi, m := range p.Modules {
		if len(m.File.DynRelocs) > 0 {
			m.Sites = make([]RelocSite, 0, len(m.File.DynRelocs))
		}
		for _, d := range m.File.DynRelocs {
			site := RelocSite{Off: d.Off, Type: d.Type, InText: d.InText}
			var targetAbs int64
			if d.SymName == "" {
				site.Target = mi
				site.TargetOff = uint32(d.Addend)
				targetAbs = int64(m.Base) + d.Addend
			} else {
				e, ok := exports[d.SymName]
				if !ok {
					return nil, fmt.Errorf("loader: %s: undefined dynamic symbol %q", m.File.Name, d.SymName)
				}
				site.Target = e.mod
				site.TargetOff = uint32(int64(e.off) + d.Addend)
				targetAbs = int64(p.Modules[e.mod].Base) + int64(e.off) + d.Addend
			}
			var value int64
			switch d.Type {
			case obj.RelAbs32, obj.RelAbs64:
				value = targetAbs
			case obj.RelPC32:
				// Field at P+4; P is the instruction address.
				value = targetAbs - (int64(m.Base) + int64(d.Off) - 4)
			default:
				return nil, fmt.Errorf("loader: %s: bad dynreloc type %d", m.File.Name, d.Type)
			}
			if err := p.AS.WriteUint(m.Base+d.Off, d.Type.Size(), uint64(value)); err != nil {
				return nil, err
			}
			m.Sites = append(m.Sites, site)
		}
		sortSites(m.Sites)
	}

	// Stack, heap and input block.
	stackBase := cfg.StackTop - cfg.StackSize
	for _, anon := range []mem.Mapping{
		{Path: "[stack]", Base: stackBase, Size: cfg.StackSize},
		{Path: "[heap]", Base: cfg.HeapBase, Size: cfg.HeapSize},
		{Path: "[input]", Base: cfg.InputBase, Size: cfg.InputSize},
	} {
		if err := p.AS.Map(anon); err != nil {
			return nil, fmt.Errorf("loader: %w", err)
		}
	}
	p.SP = cfg.StackTop - 64 // small red zone below the top
	p.Entry = p.Modules[0].Base + exe.Entry
	p.GP = p.Modules[0].Base + exe.DataOff()
	return p, nil
}

// hashedBase picks a deterministic, name-derived base with linear probing
// against already-placed modules.
func hashedBase(p *Process, name string, size, libBase uint32) uint32 {
	h := fnv.New32a()
	h.Write([]byte(name))
	const slots = (0xE000_0000 - DefaultLibBase) / hashSlot
	cand := libBase + (h.Sum32()%slots)*hashSlot
	for probes := uint32(0); probes <= slots; probes++ {
		ok := true
		for _, m := range p.Modules {
			if cand < m.Base+m.File.ImageSize() && m.Base < cand+size {
				ok = false
				break
			}
		}
		if ok && cand+size > cand { // no wraparound
			return cand
		}
		cand += hashSlot
		if cand >= 0xE000_0000 {
			cand = libBase
		}
	}
	// Address space exhausted; fall back to the (also occupied) preferred
	// slot and let the mapping overlap check report the real error.
	return libBase + (h.Sum32()%slots)*hashSlot
}

func sortSites(sites []RelocSite) {
	// Insertion sort: site lists are short and mostly ordered.
	for i := 1; i < len(sites); i++ {
		for j := i; j > 0 && sites[j-1].Off > sites[j].Off; j-- {
			sites[j-1], sites[j] = sites[j], sites[j-1]
		}
	}
}

// SitesIn returns the module's relocation sites overlapping [lo, hi)
// (module-relative offsets).
func (m *LoadedModule) SitesIn(lo, hi uint32) []RelocSite {
	// No site is wider than 8 bytes, so none that starts more than 7
	// bytes below lo can reach into the range.
	var from uint32
	if lo > 7 {
		from = lo - 7
	}
	first := sort.Search(len(m.Sites), func(i int) bool { return m.Sites[i].Off >= from })
	var out []RelocSite
	for _, s := range m.Sites[first:] {
		if s.Off >= hi {
			break
		}
		if s.Off+uint32(s.Type.Size()) > lo {
			out = append(out, s)
		}
	}
	return out
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func alignUp(v, a uint32) uint32 { return (v + a - 1) &^ (a - 1) }
