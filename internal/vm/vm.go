// Package vm implements the run-time compilation system the persistence
// layer (internal/core) extends: a Pin-like virtual machine with a
// compilation unit that translates guest code into traces, a software code
// cache with a translation map and trace linking, a dispatcher for indirect
// control flow, and an emulation unit for system calls.
//
// Two execution modes are provided. RunNative interprets the program
// directly ("original program execution", the baseline every figure
// normalizes against). Run executes under the run-time compiler: all code
// is translated into the code cache first, translation being charged the
// deterministic costs in CostModel — the "VM overhead" the paper measures
// and persistent code caching eliminates.
package vm

import (
	"bytes"
	"fmt"
	"io"

	"persistcc/internal/isa"
	"persistcc/internal/loader"
	"persistcc/internal/mem"
	"persistcc/internal/metrics"
	tracelog "persistcc/internal/metrics/trace"
)

// Version is the VM implementation version. It feeds the persistence "Pin
// key": caches written by one version are invalid under another.
const Version = "vr64-vm/1.0"

// TransEvent is one entry in the translation-request timeline (Figure 2(a)).
type TransEvent struct {
	Tick  uint64
	PC    uint32
	Insts int
}

// Mark is a guest-reported phase marker (the mark syscall), e.g. "GUI ready
// for user interaction".
type Mark struct {
	Tick uint64
	ID   uint64
}

// Stats is the cycle and event accounting of one run.
type Stats struct {
	Ticks uint64 // total virtual ticks

	// Tick breakdown. TransTicks is the paper's "VM overhead": the cost
	// of dynamically generating application code.
	TransTicks    uint64
	DispatchTicks uint64
	IndirectTicks uint64
	LinkTicks     uint64
	ExecTicks     uint64
	EmulTicks     uint64
	OpTicks       uint64
	PersistTicks  uint64

	InstsExecuted    uint64
	SMCFlushes       int
	InstsTranslated  uint64
	TracesTranslated uint64
	TracesReused     uint64 // installed from a persistent cache
	TraceExecs       uint64

	// Shared cache-server interaction (recorded by the cacheserver client).
	RemoteLookups   uint64 // lookup/fetch round trips attempted
	RemoteHits      uint64 // traces installed from a remotely served cache
	RemoteFallbacks uint64 // operations that fell back to the local database
	Dispatches      uint64
	IndirectHits    uint64
	IndirectMisses  uint64
	LinksPatched    uint64
	Flushes         int

	// Translation-time optimizer accounting (zero without WithOptimizer).
	TracesOptimized uint64 // traces installed in optimized form
	OptInstsRemoved uint64 // instructions the optimizer eliminated
	OptRejects      uint64 // rewrites the equivalence checker refused

	Syscalls map[uint64]uint64
	Timeline []TransEvent
	Marks    []Mark

	// Tool analysis state (written by built-in analysis ops).
	Counters   map[uint64]uint64
	MemRefs    uint64
	MemRefHash uint64
	OpcodeMix  [isa.NumOps]uint64
}

// TranslatedTicks returns the time attributed to running the application
// under the VM excluding VM overhead: translated-code execution plus
// dispatch, linking and emulation.
func (s *Stats) TranslatedTicks() uint64 {
	return s.ExecTicks + s.DispatchTicks + s.IndirectTicks + s.LinkTicks + s.EmulTicks + s.OpTicks
}

// Result is the outcome of one run.
type Result struct {
	ExitCode uint64
	Output   []byte
	Stats    Stats
}

// Seconds returns the run's total virtual seconds.
func (r *Result) Seconds() float64 { return Seconds(r.Stats.Ticks) }

// VM is one guest execution. A VM runs exactly once (Run or RunNative).
type VM struct {
	as   *mem.AddressSpace
	proc *loader.Process
	cost CostModel

	cache     *CodeCache
	tool      Tool
	opHandler OpHandler
	opt       Optimizer
	maxTrace  int
	maxInsts  uint64

	// fetched is the buffer translate fetches a trace into; traces and
	// insts are the slabs each translated trace and its instructions are
	// cut from.
	fetched []isa.Inst
	traces  Slab[Trace]
	insts   Slab[isa.Inst]

	regs  [isa.NumRegs]uint64
	pc    uint32
	clock uint64
	brk   uint32
	pid   uint64

	out      bytes.Buffer
	input    []uint64
	stats    Stats
	halted   bool
	exitCode uint64
	ran      bool

	recordTimeline bool
	nativeMode     bool
	smcDetect      bool
	nativeDecoded  map[uint32]map[uint32]isa.Inst // interpreter decode cache, per page
	coverage       map[uint64]struct{}

	execLog      io.Writer
	execLogLimit uint64
	execLogged   uint64

	metrics  *metrics.Registry
	m        *vmMetrics
	events   *tracelog.Log
	boundary Boundary
}

// Option configures a VM.
type Option func(*VM)

// WithCostModel overrides the default cost model.
func WithCostModel(cm CostModel) Option { return func(v *VM) { v.cost = cm } }

// WithTool attaches an instrumentation tool.
func WithTool(t Tool) Option {
	return func(v *VM) {
		v.tool = t
		v.opHandler, _ = t.(OpHandler)
	}
}

// WithCacheLimit sets the code cache's total byte budget (split evenly
// between the code pool and the data-structure pool).
func WithCacheLimit(n uint64) Option { return func(v *VM) { v.cache = NewCodeCache(n) } }

// WithInput fills the run's input block (read by the guest via the input
// syscall or directly from the input mapping).
func WithInput(words []uint64) Option { return func(v *VM) { v.input = words } }

// WithMaxInsts bounds the run's executed-instruction budget; exceeding it
// is an error (runaway-guest protection).
func WithMaxInsts(n uint64) Option { return func(v *VM) { v.maxInsts = n } }

// WithMaxTrace overrides the trace instruction-count limit.
func WithMaxTrace(n int) Option { return func(v *VM) { v.maxTrace = n } }

// WithTimeline records every translation request with its timestamp.
func WithTimeline() Option { return func(v *VM) { v.recordTimeline = true } }

// WithCoverage records the static code footprint (module-relative
// addresses of every translated instruction).
func WithCoverage() Option { return func(v *VM) { v.coverage = make(map[uint64]struct{}) } }

// WithPID sets the guest-visible process id.
func WithPID(pid uint64) Option { return func(v *VM) { v.pid = pid } }

// WithSMCDetection enables self-modifying-code coherence: guest stores
// that hit a page holding translated code flush the code cache, so the
// rewritten code is re-translated before its next execution. Off by
// default (the paper assumes binaries are unmodified during a run);
// dynamically generated code still executes correctly either way as long
// as it is not rewritten in place.
func WithSMCDetection() Option { return func(v *VM) { v.smcDetect = true } }

// WithExecLog streams a disassembly line for each of the first maxLines
// executed instructions to w — the debugging view of what the guest (and
// the translator) actually did.
func WithExecLog(w io.Writer, maxLines uint64) Option {
	return func(v *VM) {
		v.execLog = w
		v.execLogLimit = maxLines
	}
}

// DefaultCacheLimit is the default code-cache budget (the paper reserves
// 512MB; our traces are small, so 64MB is effectively unbounded and the
// experiments never flush, matching the paper's observation).
const DefaultCacheLimit = 64 << 20

// New prepares a VM for the loaded process.
func New(p *loader.Process, opts ...Option) *VM {
	v := &VM{
		as:       p.AS,
		proc:     p,
		cost:     DefaultCostModel(),
		maxTrace: MaxTraceInsts,
		maxInsts: 200_000_000,
		brk:      p.HeapBase,
		pid:      1,
	}
	for _, o := range opts {
		o(v)
	}
	if v.cache == nil {
		v.cache = NewCodeCache(DefaultCacheLimit)
	}
	if v.metrics == nil {
		v.metrics = metrics.NewRegistry()
	}
	v.m = newVMMetrics(v.metrics)
	if b, ok := v.opt.(metricBinder); ok {
		b.BindMetrics(v.metrics)
	}
	return v
}

// Process returns the loaded process.
func (v *VM) Process() *loader.Process { return v.proc }

// Cost returns the active cost model.
func (v *VM) Cost() CostModel { return v.cost }

// Tool returns the attached instrumentation tool, if any.
func (v *VM) AttachedTool() Tool { return v.tool }

// Cache exposes the code cache (used by the persistence manager and tests).
func (v *VM) Cache() *CodeCache { return v.cache }

// MaxTrace returns the trace-length limit (persistence key material: caches
// built with a different limit contain differently shaped traces).
func (v *VM) MaxTrace() int { return v.maxTrace }

// Reg returns the current value of a guest register.
func (v *VM) Reg(r uint8) uint64 { return v.regs[r] }

// Clock returns the current virtual tick count.
func (v *VM) Clock() uint64 { return v.clock }

// Coverage returns the recorded static footprint as a set of
// (module index << 32 | module-relative offset) keys; anonymous code uses
// module index 0xFFFFFFFF with absolute addresses. Nil unless WithCoverage.
func (v *VM) Coverage() map[uint64]struct{} { return v.coverage }

func (v *VM) recordCoverage(t *Trace) {
	if v.coverage == nil {
		return
	}
	for i := range t.Insts {
		var key uint64
		if t.Module >= 0 {
			key = uint64(uint32(t.Module))<<32 | uint64(t.ModOff+t.SrcOff(i))
		} else {
			key = uint64(0xFFFFFFFF)<<32 | uint64(t.PC(i))
		}
		v.coverage[key] = struct{}{}
	}
}

// InstallPersisted installs a trace recovered from a persistent cache into
// the code cache, charging the (cheap) install cost instead of translation.
// The persistence manager is responsible for having validated the trace.
//
//pcc:hotpath
func (v *VM) InstallPersisted(t *Trace) {
	t.Persisted = true
	if v.cache.WouldOverflow(t) {
		v.cache.Flush()
		v.stats.Flushes++
	}
	v.cache.Insert(t)
	v.clock += v.cost.PersistInstall
	v.stats.PersistTicks += v.cost.PersistInstall
	v.stats.TracesReused++
	v.events.Record(tracelog.Event{
		Kind: tracelog.KindInstall, Tick: v.clock, PC: t.Start, Insts: len(t.Insts),
	})
}

// ChargePersist adds persistence-machinery ticks (cache file load,
// key verification, save) to the run.
func (v *VM) ChargePersist(ticks uint64) {
	v.clock += ticks
	v.stats.PersistTicks += ticks
}

// RecordRemote accounts one shared-cache-server interaction: a lookup
// round trip, the traces it installed, and whether the operation had to
// fall back to the local database.
func (v *VM) RecordRemote(lookups, hits, fallbacks uint64) {
	v.stats.RemoteLookups += lookups
	v.stats.RemoteHits += hits
	v.stats.RemoteFallbacks += fallbacks
}

// Stats returns a copy of the run's accounting so far.
func (v *VM) Stats() Stats {
	v.syncMetrics()
	return v.stats
}

// Output returns the bytes the guest wrote to fds 1 and 2 so far.
func (v *VM) Output() []byte { return v.out.Bytes() }

func (v *VM) finish() (*Result, error) {
	v.stats.Ticks = v.clock
	v.stats.Flushes = v.cache.flushes
	v.syncMetrics()
	return &Result{
		ExitCode: v.exitCode,
		Output:   append([]byte(nil), v.out.Bytes()...),
		Stats:    v.stats,
	}, nil
}

func (v *VM) start() error {
	if v.ran {
		return fmt.Errorf("vm: VM already ran; create a new one")
	}
	v.ran = true
	v.regs[isa.RegSP] = uint64(v.proc.SP)
	v.regs[isa.RegGP] = uint64(v.proc.GP)
	v.pc = v.proc.Entry
	// Materialize the input block.
	for i, w := range v.input {
		addr := v.proc.InputBase + uint32(i)*8
		if addr+8 > v.proc.InputBase+v.proc.InputSize {
			return fmt.Errorf("vm: input block overflow (%d words)", len(v.input))
		}
		if err := v.as.WriteUint(addr, 8, w); err != nil {
			return err
		}
	}
	return nil
}
