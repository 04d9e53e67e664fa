package vm

import (
	"fmt"

	"persistcc/internal/isa"
)

// OpKind identifies the semantic of an analysis op injected by a tool.
// Built-in kinds execute inside the VM's dispatch loop; OpKindCustom is
// forwarded to the tool. Kinds and arguments are persisted inside cache
// files (the instrumented code is what Pin persists), and are re-bound to
// tool state at load time — which is why the tool key must change whenever
// instrumentation semantics change.
type OpKind uint16

const (
	// OpKindCount increments Result.Counters[Arg].
	OpKindCount OpKind = iota + 1
	// OpKindMemRef records one memory reference: it increments
	// Result.MemRefs and folds the effective address into
	// Result.MemRefHash (the analysis work of a memory-tracing tool).
	OpKindMemRef
	// OpKindOpcodeMix increments Result.OpcodeMix for the annotated
	// instruction's opcode.
	OpKindOpcodeMix
	// OpKindCustom is dispatched to the tool's HandleOp method.
	OpKindCustom
)

func (k OpKind) String() string {
	switch k {
	case OpKindCount:
		return "count"
	case OpKindMemRef:
		return "memref"
	case OpKindOpcodeMix:
		return "opcodemix"
	case OpKindCustom:
		return "custom"
	}
	return fmt.Sprintf("opkind(%d)", uint16(k))
}

// AnalysisOp is one piece of injected instrumentation, scheduled immediately
// before the trace instruction at index Pos (Pos == len(Insts) schedules it
// after the last instruction).
type AnalysisOp struct {
	Pos     uint16
	Kind    OpKind
	Arg     uint64
	Cost    uint32 // per-execution tick cost (excluding spill penalty)
	Spilled bool   // no dead register was available at the insertion point
}

// Tool is the instrumentation client interface (the analog of a Pintool).
// Instrument is called once per trace at translation time; the ops it
// inserts execute every time the trace runs.
type Tool interface {
	// Name and Version identify the tool in the persistence tool key.
	Name() string
	Version() string
	// ConfigHash must cover everything that changes the instrumentation
	// semantics: two runs with equal (Name, Version, ConfigHash) must
	// instrument identically, because persisted instrumented traces are
	// reused across them.
	ConfigHash() uint64
	// Instrument inspects the trace and inserts analysis ops.
	Instrument(tc *TraceContext)
}

// OpHandler is implemented by tools that inject OpKindCustom ops.
type OpHandler interface {
	// HandleOp executes a custom analysis op. vm gives access to guest
	// architectural state; instIdx is the index of the instruction the
	// op precedes within the trace.
	HandleOp(vm *VM, t *Trace, op AnalysisOp, instIdx int)
}

// TraceContext is the tool's view of a trace during instrumentation.
type TraceContext struct {
	vmCost *CostModel
	trace  *Trace
	ops    []AnalysisOp
}

// Insts returns the trace's original instructions.
func (tc *TraceContext) Insts() []isa.Inst { return tc.trace.Insts }

// Start returns the guest address of the trace head.
func (tc *TraceContext) Start() uint32 { return tc.trace.Start }

// PCOf returns the guest address instruction idx was fetched from; in an
// optimized trace that is not Start + idx*8 once an instruction before it
// was elided.
func (tc *TraceContext) PCOf(idx int) uint32 { return tc.trace.PC(idx) }

// Module returns the index of the file-backed module the trace was fetched
// from, or -1 for dynamically generated code.
func (tc *TraceContext) Module() int32 { return tc.trace.Module }

// ModOff returns the trace head's offset within its module (valid when
// Module() >= 0). Module-relative coordinates are stable across runs even
// under address-space randomization, which is what coverage tools want.
func (tc *TraceContext) ModOff() uint32 { return tc.trace.ModOff }

// ScratchRegs returns the number of dead architectural registers available
// immediately before instruction idx — registers the injected analysis code
// may use without spilling. It is derived from the trace's liveness
// analysis (the paper's "register liveness analysis and register bindings"),
// which runs when the first tool asks.
func (tc *TraceContext) ScratchRegs(idx int) int {
	liveIn, _ := tc.trace.Liveness()
	if idx < 0 || idx >= len(liveIn) {
		return 0
	}
	return isa.NumRegs - 1 - liveIn[idx].Count() // r0 excluded
}

// InsertBefore schedules an analysis op immediately before instruction idx
// (idx == len(Insts) means after the last instruction). cost is the op's
// per-execution tick cost; if no scratch register is free at the insertion
// point a spill penalty is added automatically.
func (tc *TraceContext) InsertBefore(idx int, kind OpKind, arg uint64, cost uint32) {
	op := AnalysisOp{Pos: uint16(idx), Kind: kind, Arg: arg, Cost: cost}
	if idx < len(tc.trace.Insts) && tc.ScratchRegs(idx) == 0 {
		op.Spilled = true
	}
	tc.ops = append(tc.ops, op)
}
