package vm

import (
	"fmt"
	"unsafe"

	"persistcc/internal/isa"
	tracelog "persistcc/internal/metrics/trace"
	"persistcc/internal/obj"
)

// MaxTraceInsts is the default trace-length limit ("a linear sequence of
// instructions fetched from a starting address until a fixed instruction
// count is reached or an unconditional branch instruction is encountered").
const MaxTraceInsts = 32

// ExitKind classifies how control leaves a trace.
type ExitKind uint8

const (
	ExitCond     ExitKind = iota + 1 // taken side of a conditional branch
	ExitDirect                       // unconditional direct jump/call (jal)
	ExitIndirect                     // register-indirect jump/call (jalr)
	ExitSyscall                      // control returns to the VM's emulation unit
	ExitHalt                         // guest machine stop
	ExitFall                         // trace-length limit reached; fall through
)

func (k ExitKind) String() string {
	switch k {
	case ExitCond:
		return "cond"
	case ExitDirect:
		return "direct"
	case ExitIndirect:
		return "indirect"
	case ExitSyscall:
		return "syscall"
	case ExitHalt:
		return "halt"
	case ExitFall:
		return "fall"
	}
	return fmt.Sprintf("exit(%d)", uint8(k))
}

// Exit describes one static exit of a trace. Index is the instruction index
// the exit belongs to (len(Insts) for ExitFall). Target is the static guest
// target address where known (ExitCond taken-target, ExitDirect, ExitFall,
// and the resume address for ExitSyscall).
type Exit struct {
	Kind   ExitKind
	Index  uint16
	Target uint32
}

// RelocNote records that an instruction inside the trace was patched by the
// dynamic loader: its immediate holds an address (or displacement to an
// address) inside the Target module. The persisted translation is therefore
// only valid while both the containing and the target module keep the base
// addresses they had at translation time — unless the relocatable-
// translation extension rewrites the immediate (internal/core).
type RelocNote struct {
	InstIdx   uint16
	Type      obj.RelocType
	Target    int32  // module index at translation time
	TargetOff uint32 // module-relative target offset
}

// Trace is a translated code-cache unit: a linear instruction sequence with
// side exits, injected analysis ops, per-instruction liveness (on demand,
// see Liveness), and the metadata that makes it persistable.
type Trace struct {
	Start  uint32 // guest address of the head; entry only at the head
	Module int32  // index into the process module table; -1 if not file-backed
	ModOff uint32 // Start - module base (valid when Module >= 0)

	Insts   []isa.Inst
	Exits   []Exit
	Ops     []AnalysisOp  // sorted by Pos
	LiveIn  []isa.RegMask // live registers immediately before each instruction; nil until Liveness runs
	LiveOut []isa.RegMask // live registers immediately after each instruction; likewise
	Notes   []RelocNote

	// Translation-time optimization (internal/guestopt). OptLevel 0 is an
	// unoptimized trace; otherwise SrcIdx maps each optimized instruction to
	// its index in the original fetched sequence (so pc-dependent semantics
	// — ldpc, link values, branch displacements — stay anchored to the guest
	// addresses the instructions were fetched from) and OrigLen is the
	// original instruction count (the fall-through exit and the page span
	// still cover the full fetched region).
	OptLevel uint8
	OrigLen  uint16
	SrcIdx   []uint16

	Persisted bool // installed from a persistent cache (not re-translated)

	// Addr is the content address of the store blob the trace was decoded
	// from, for as long as re-encoding the trace would give that blob back:
	// whoever changes the encoded state (a rebase) clears it. Nil for a
	// trace translated in this process. A commit writes such a trace by
	// address instead of encoding and hashing it again.
	Addr *[32]byte

	// Runtime state (never persisted).
	links []*Trace // per-instruction taken-target links; links[len(Insts)] is the fall-through link
	execs uint64
}

// CodeBytes returns the modeled size of the trace in the code pool:
// re-encoded instructions, exit stubs and inline analysis-op thunks.
func (t *Trace) CodeBytes() uint64 {
	return uint64(len(t.Insts))*isa.InstSize + uint64(len(t.Exits))*16 + uint64(len(t.Ops))*8
}

// DataBytes returns the modeled size of the trace's supporting data
// structures: the translation-map entry, incoming/outgoing link records,
// liveness vectors, the source map and relocation notes. As in the paper's
// Figure 9, this regularly exceeds CodeBytes.
func (t *Trace) DataBytes() uint64 {
	return 48 +
		uint64(len(t.Exits))*24 +
		uint64(len(t.Insts))*(4+8) + // liveness + source map
		uint64(len(t.Notes))*16 +
		uint64(len(t.Ops))*8
}

// Execs returns how many times the trace has run in this VM instance.
func (t *Trace) Execs() uint64 { return t.execs }

// SrcOff returns the byte offset from Start of instruction i's original
// fetch address. Identity for unoptimized traces; optimized traces map
// through SrcIdx.
//
//pcc:hotpath
func (t *Trace) SrcOff(i int) uint32 {
	if t.SrcIdx != nil {
		return uint32(t.SrcIdx[i]) * isa.InstSize
	}
	return uint32(i) * isa.InstSize
}

// PC returns the guest address instruction i was fetched from — the pc all
// pc-dependent semantics (ldpc, link values, branch displacements, syscall
// resume) evaluate against.
//
//pcc:hotpath
func (t *Trace) PC(i int) uint32 { return t.Start + t.SrcOff(i) }

// OrigInsts returns the original fetched instruction count (equal to
// len(Insts) for unoptimized traces).
func (t *Trace) OrigInsts() int {
	if t.OrigLen > 0 {
		return int(t.OrigLen)
	}
	return len(t.Insts)
}

// CheckOptMeta validates decoded optimization metadata before it is trusted
// by the persistence layer: an optimized trace needs a strictly increasing
// source map covering every instruction inside the original fetch region.
// Unoptimized metadata must be entirely absent.
func CheckOptMeta(level uint8, origLen uint16, srcIdx []uint16, insts int) error {
	if level == 0 {
		if origLen != 0 || srcIdx != nil {
			return fmt.Errorf("vm: unoptimized trace carries optimization metadata")
		}
		return nil
	}
	if len(srcIdx) != insts {
		return fmt.Errorf("vm: source map covers %d of %d instructions", len(srcIdx), insts)
	}
	if int(origLen) < insts {
		return fmt.Errorf("vm: optimized trace has %d instructions but original length %d", insts, origLen)
	}
	for i, s := range srcIdx {
		if s >= origLen {
			return fmt.Errorf("vm: source index %d maps outside original length %d", s, origLen)
		}
		if i > 0 && s <= srcIdx[i-1] {
			return fmt.Errorf("vm: source map not strictly increasing at %d", i)
		}
	}
	return nil
}

// RecomputeStatic derives the trace's static exits from Insts and Start. It
// is called after translation, after the optimizer rewrote the instructions,
// when the persistence layer decodes a trace, and when it rebases one under
// the relocatable-translation extension (rebasing changes Start and
// pc-relative immediates, and therefore every static exit target). Liveness
// derived from an earlier instruction sequence is dropped; Liveness computes
// it again when somebody asks.
func (t *Trace) RecomputeStatic() {
	t.LiveIn, t.LiveOut = nil, nil
	n := 0
	for _, in := range t.Insts {
		n += ExitsOf(in)
	}
	fall := !t.Insts[len(t.Insts)-1].IsTerminator()
	if fall {
		n++
	}
	if cap(t.Exits) < n {
		t.Exits = make([]Exit, 0, n)
	}
	t.Exits = t.Exits[:0]
	for i, in := range t.Insts {
		if ExitsOf(in) == 0 {
			continue
		}
		pc := t.PC(i)
		idx := uint16(i)
		if in.IsCondBranch() {
			t.Exits = append(t.Exits, Exit{Kind: ExitCond, Index: idx, Target: pc + uint32(in.Imm)})
		}
		if in.IsTerminator() {
			switch in.Op {
			case isa.OpJal:
				t.Exits = append(t.Exits, Exit{Kind: ExitDirect, Index: idx, Target: pc + uint32(in.Imm)})
			case isa.OpJalr:
				t.Exits = append(t.Exits, Exit{Kind: ExitIndirect, Index: idx})
			case isa.OpSys:
				t.Exits = append(t.Exits, Exit{Kind: ExitSyscall, Index: idx, Target: pc + isa.InstSize})
			case isa.OpHalt:
				t.Exits = append(t.Exits, Exit{Kind: ExitHalt, Index: idx})
			}
		}
	}
	if fall {
		// Fall through past the original fetched region: an optimized trace
		// resumes where the unoptimized one would have.
		t.Exits = append(t.Exits, Exit{
			Kind: ExitFall, Index: uint16(len(t.Insts)),
			Target: t.Start + uint32(t.OrigInsts())*isa.InstSize,
		})
	}
}

// ExitsOf returns how many static exits instruction in gives its trace: one
// for a conditional branch (its taken side) and one for each of the four
// terminators. A trace whose last instruction is not a terminator has one
// more, its fall-through. A decoder that counts exits as it goes can cut
// Exits to size, and RecomputeStatic then fills it without allocating.
func ExitsOf(in isa.Inst) int { return int(exitsByOp[in.Op]) }

// exitsByOp is ExitsOf by opcode byte, so that counting exits costs a load
// per instruction rather than a classification.
var exitsByOp = func() (n [256]uint8) {
	for op := range n {
		if in := (isa.Inst{Op: isa.Op(op)}); in.IsCondBranch() || in.IsTerminator() {
			n[op] = 1
		}
	}
	return n
}()

// Liveness returns the per-instruction live-register vectors, running the
// backward dataflow pass the first time it is asked after the instructions
// last changed. Only instrumentation reads them (TraceContext.ScratchRegs),
// so a trace nobody instruments — a persisted one, or a translation without
// a tool — never pays for the pass. Live-out at the trace end is
// conservatively all-registers (successor traces are unknown).
func (t *Trace) Liveness() (liveIn, liveOut []isa.RegMask) {
	if t.LiveIn != nil {
		return t.LiveIn, t.LiveOut
	}
	n := len(t.Insts)
	t.LiveIn = make([]isa.RegMask, n)
	t.LiveOut = make([]isa.RegMask, n)
	live := isa.RegMask(0xFFFFFFFE) // everything but r0
	for i := n - 1; i >= 0; i-- {
		t.LiveOut[i] = live
		in := t.Insts[i]
		live = (live &^ in.Defs()) | in.Uses()
		// A potential side exit makes everything live-out again on the
		// taken path; merge it in so scratch decisions stay safe.
		if in.IsCondBranch() {
			live = 0xFFFFFFFE
		}
		t.LiveIn[i] = live
	}
	return t.LiveIn, t.LiveOut
}

// CodeCache is the software code cache plus translation map: translated
// traces indexed by original start address, with a byte budget split evenly
// between the code pool and the data-structure pool (as the paper divides
// its reserved memory). Exceeding either pool triggers a full flush.
type CodeCache struct {
	limit     uint64 // total budget; each pool gets limit/2
	codeBytes uint64
	dataBytes uint64
	byAddr    map[uint32]*Trace
	all       []*Trace
	flushes   int
	// codePages counts, per guest page, how many traces were fetched from
	// it — the write-monitor index for self-modifying-code detection.
	codePages map[uint32]int
	// indirect is a direct-mapped window onto byAddr for indirect branches
	// (returns, mostly), so a repeated jalr target costs a compare rather
	// than a hash. A slot only ever holds the trace byAddr maps its own
	// Start to: lookupIndirect fills it, Insert overwrites it when it
	// replaces that trace, Flush clears the table.
	indirect [indirectSlots]*Trace
	// links is the slab every inserted trace's link slots are cut from.
	links Slab[*Trace]
}

// indirectSlots × 8 bytes = 2 KB per cache. On the SPEC models 256 slots
// hit as often as 512 (≥ 99.7 % of indirect branches, 97.5 % on 176.gcc);
// 128 start to conflict (253.perlbmk 95 %).
const indirectSlots = 256

func indirectSlot(addr uint32) uint32 { return addr / isa.InstSize % indirectSlots }

// NewCodeCache returns a cache with the given total byte budget.
func NewCodeCache(limit uint64) *CodeCache {
	return &CodeCache{limit: limit, byAddr: make(map[uint32]*Trace), codePages: make(map[uint32]int)}
}

// Reserve readies the cache for traces about to be installed together, as
// a prime's are: an empty cache's translation map and trace list are sized
// for all of them, so neither grows a doubling at a time, and their link
// slots are cut from one chunk.
func (c *CodeCache) Reserve(traces []*Trace) {
	if len(c.all) == 0 {
		c.byAddr = make(map[uint32]*Trace, len(traces))
		c.all = make([]*Trace, 0, len(traces))
	}
	slots := 0
	for _, t := range traces {
		slots += len(t.Insts) + 1
	}
	c.links.Reserve(slots)
}

// PageHasCode reports whether any cached trace was fetched from the guest
// page containing addr.
func (c *CodeCache) PageHasCode(addr uint32) bool {
	return c.codePages[addr>>12] > 0
}

func (c *CodeCache) trackPages(t *Trace, delta int) {
	// The write monitor covers the original fetched span: a store into a
	// region an optimized trace elided code from still invalidates it.
	end := t.Start + uint32(t.OrigInsts())*isa.InstSize - 1
	for p := t.Start >> 12; p <= end>>12; p++ {
		c.codePages[p] += delta
		if c.codePages[p] <= 0 {
			delete(c.codePages, p)
		}
	}
}

// Lookup consults the translation map.
//
//pcc:hotpath
func (c *CodeCache) Lookup(addr uint32) (*Trace, bool) {
	t, ok := c.byAddr[addr]
	return t, ok
}

// lookupIndirect is Lookup through the indirect-branch table.
//
//pcc:hotpath
func (c *CodeCache) lookupIndirect(addr uint32) (*Trace, bool) {
	slot := &c.indirect[indirectSlot(addr)]
	if t := *slot; t != nil && t.Start == addr {
		return t, true
	}
	t, ok := c.byAddr[addr]
	if ok {
		*slot = t
	}
	return t, ok
}

// WouldOverflow reports whether adding the trace would exceed either pool.
func (c *CodeCache) WouldOverflow(t *Trace) bool {
	half := c.limit / 2
	return c.codeBytes+t.CodeBytes() > half || c.dataBytes+t.DataBytes() > half
}

// Insert adds a trace to the cache and translation map. The caller is
// responsible for flushing first if WouldOverflow reports true.
//
//pcc:hotpath
func (c *CodeCache) Insert(t *Trace) {
	if old, ok := c.byAddr[t.Start]; ok {
		// Re-translation of a flushed-and-reinstalled address: replace.
		c.codeBytes -= old.CodeBytes()
		c.dataBytes -= old.DataBytes()
		c.trackPages(old, -1)
		for i := range c.all {
			if c.all[i] == old {
				c.all[i] = c.all[len(c.all)-1]
				c.all = c.all[:len(c.all)-1]
				break
			}
		}
		c.indirect[indirectSlot(t.Start)] = t
	}
	t.links = c.links.Take(len(t.Insts) + 1)
	c.byAddr[t.Start] = t
	c.all = append(c.all, t)
	c.codeBytes += t.CodeBytes()
	c.dataBytes += t.DataBytes()
	c.trackPages(t, 1)
}

// Flush discards all translated code and data structures. Dropped traces'
// link slots are cleared in place so a trace still executing on the Go stack
// cannot chain into stale translations: its next exit falls back to the
// dispatcher.
func (c *CodeCache) Flush() {
	for _, t := range c.all {
		clear(t.links)
	}
	c.byAddr = make(map[uint32]*Trace)
	c.indirect = [indirectSlots]*Trace{}
	c.all = nil
	c.codePages = make(map[uint32]int)
	c.codeBytes, c.dataBytes = 0, 0
	c.flushes++
}

// Traces returns the cache contents (shared slice; do not mutate).
func (c *CodeCache) Traces() []*Trace { return c.all }

// CodeBytes returns the code pool occupancy.
func (c *CodeCache) CodeBytes() uint64 { return c.codeBytes }

// DataBytes returns the data-structure pool occupancy.
func (c *CodeCache) DataBytes() uint64 { return c.dataBytes }

// Flushes returns how many times the cache has been flushed.
func (c *CodeCache) Flushes() int { return c.flushes }

// Slab cuts exactly-sized slices out of shared chunks: a translation or a
// prime makes hundreds of ten-instruction traces, and one allocation per
// chunk is cheaper than one per trace. The slices do not overlap and cannot
// grow into each other (capacity is capped at length); a chunk lives as long
// as any slice cut from it does, which for traces installed together is the
// life of the code cache. Chunks start at slabFirst bytes and double up to
// slabMax, so a slab that cuts a few slices allocates little and one that
// cuts thousands allocates once per slabMax. What a slab wastes is the
// unused end of its last chunk, which slabMax bounds: a gftp launch cuts
// ~100 KB of link slots, and 16 KB chunks wasted more of it than one
// allocation per trace loses to size classes. Reserve sizes the next chunk
// to what a caller knows it is about to cut, and wastes nothing.
type Slab[T any] struct {
	free  []T
	chunk int // bytes in the last chunk Take allocated
}

const (
	slabFirst = 1 << 10
	slabMax   = 4 << 10
)

// Take cuts the next n elements; nil for none, as an empty section decodes.
func (s *Slab[T]) Take(n int) []T {
	if n == 0 {
		return nil
	}
	if n > len(s.free) {
		s.refill(n)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// refill replaces the chunk with one that holds at least n elements.
func (s *Slab[T]) refill(n int) {
	var zero T
	s.chunk = min(max(2*s.chunk, slabFirst), slabMax)
	s.free = make([]T, max(n, s.chunk/max(1, int(unsafe.Sizeof(zero)))))
}

// Reserve makes sure the next n elements Take cuts come from one chunk.
func (s *Slab[T]) Reserve(n int) {
	if n > len(s.free) {
		s.free = make([]T, n)
	}
}

// translate fetches and compiles the trace starting at pc, charging
// translation cost and recording the translation-request timeline event.
func (v *VM) translate(pc uint32) (*Trace, error) {
	t := &v.traces.Take(1)[0]
	t.Start, t.Module = pc, -1
	if v.proc != nil {
		if mi := v.proc.ModuleAt(pc); mi >= 0 {
			t.Module = int32(mi)
			t.ModOff = pc - v.proc.Modules[mi].Base
		}
	}
	var buf [isa.InstSize]byte
	fetched := v.fetched[:0]
	cur := pc
	for len(fetched) < v.maxTrace {
		if err := v.as.ReadBytes(cur, buf[:]); err != nil {
			return nil, fmt.Errorf("vm: fetch at %#x: %w", cur, err)
		}
		in, err := isa.Decode(buf[:])
		if err != nil {
			return nil, fmt.Errorf("vm: decode at %#x: %w", cur, err)
		}
		fetched = append(fetched, in)
		if in.IsTerminator() {
			break
		}
		cur += isa.InstSize
	}
	v.fetched = fetched
	t.Insts = v.insts.Take(len(fetched))
	copy(t.Insts, fetched)
	v.prepareTrace(t)

	// Cost accounting and bookkeeping. Fetch/decode (and the optimizer's
	// analysis, when attached) are priced on the original instruction count;
	// an optimized trace still cost the full translation work.
	orig := uint64(t.OrigInsts())
	ticks := v.cost.TransFixed +
		(v.cost.TransFetch+v.cost.TransPerInst)*orig +
		v.cost.TransPerOp*uint64(len(t.Ops))
	if v.opt != nil {
		ticks += v.cost.OptPerInst * orig
	}
	v.clock += ticks
	v.stats.TransTicks += ticks
	v.stats.TracesTranslated++
	v.stats.InstsTranslated += orig
	if v.recordTimeline {
		v.stats.Timeline = append(v.stats.Timeline, TransEvent{Tick: v.clock, PC: pc, Insts: len(t.Insts)})
	}
	v.events.Record(tracelog.Event{
		Kind: tracelog.KindTranslate, Tick: v.clock, PC: pc, Insts: len(t.Insts),
	})
	v.recordCoverage(t)
	v.installTrace(t)
	return t, nil
}

// prepareTrace derives everything a decoded trace needs before install:
// static exits, relocation notes, and tool instrumentation. Instrumentation
// runs here, in translation order, because tools may be stateful.
func (v *VM) prepareTrace(t *Trace) {
	t.RecomputeStatic()

	// Relocation notes: which instructions contain loader-patched fields.
	if t.Module >= 0 && v.proc != nil {
		m := v.proc.Modules[t.Module]
		hi := t.ModOff + uint32(len(t.Insts))*isa.InstSize
		for _, s := range m.SitesIn(t.ModOff, hi) {
			if !s.InText {
				continue
			}
			t.Notes = append(t.Notes, RelocNote{
				InstIdx:   uint16((s.Off - t.ModOff) / isa.InstSize),
				Type:      s.Type,
				Target:    int32(s.Target),
				TargetOff: s.TargetOff,
			})
		}
	}

	// Translation-time optimization: after the notes exist (note-bearing
	// instructions are pinned) and before instrumentation (tools observe
	// the instruction sequence that will actually run).
	if v.opt != nil {
		v.optimizeTrace(t)
	}

	// Instrumentation.
	if v.tool != nil {
		tc := &TraceContext{vmCost: &v.cost, trace: t}
		v.tool.Instrument(tc)
		t.Ops = tc.ops
		sortOps(t.Ops)
	}
}

// installTrace inserts a prepared trace into the code cache, flushing first
// when either pool would overflow.
//
//pcc:hotpath
func (v *VM) installTrace(t *Trace) {
	if v.cache.WouldOverflow(t) {
		v.cache.Flush()
		v.stats.Flushes++
	}
	v.cache.Insert(t)
}

func sortOps(ops []AnalysisOp) {
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j-1].Pos > ops[j].Pos; j-- {
			ops[j-1], ops[j] = ops[j], ops[j-1]
		}
	}
}
