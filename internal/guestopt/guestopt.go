// Package guestopt is the translation-time optimizer: a static dataflow
// analysis framework over decoded guest traces (vm.Trace) that proves its
// own rewrites.
//
// The optimizer runs inside trace preparation, between relocation-note
// discovery and tool instrumentation, and applies four passes over the
// linear instruction sequence:
//
//   - constant folding: forward constant/copy propagation, materializing
//     fully known values as movi, converting register-register ALU forms
//     to immediate forms, and applying algebraic identities (x^x -> 0,
//     x+0 -> x, ...);
//   - redundant-load removal: a second load of the same (base, offset)
//     with no intervening store is rewritten into a register copy of the
//     first load's result (the first load is kept, so the fault behavior
//     of the original sequence is preserved);
//   - dead-code elimination: pure ALU instructions whose results are never
//     observed before being overwritten (liveness is conservative: every
//     side exit sees all registers live);
//   - dead-flag elimination: the same, restricted to the slt/sltu compare
//     family — the ISA's "flag materializing" instructions, which guest
//     compilers emit speculatively and which frequently die.
//
// Every optimized sequence must pass an independent static equivalence
// checker (check.go) before it is installed: a symbolic re-execution of
// the original and optimized IR that compares stores, side-exit states,
// fault sets and final register state. A rewrite the checker cannot prove
// is discarded — the trace is installed unoptimized and
// pcc_guestopt_reject_total is incremented. The checker is deliberately a
// separate implementation from the rewrite engine (in the style of
// internal/core/verify's re-derivation approach): a bug in a pass shows up
// as a disagreement, not as a shared blind spot.
//
// Instructions carrying relocation notes are pinned: they are never
// removed or rewritten and their results are treated as opaque, because
// the relocatable-translation extension rewrites their immediates when a
// trace is rebased. ldpc results and link values are likewise modeled as
// position-dependent addresses, never as foldable constants.
//
// Optimized traces persist in their optimized form (store blobs carry the
// source-index map; see internal/store), so warm runs — local,
// store-tiered or fleet-served — start both pre-translated and
// pre-optimized.
package guestopt

import (
	"fmt"
	"math"

	"persistcc/internal/isa"
	"persistcc/internal/metrics"
	"persistcc/internal/vm"
)

// Config selects the optimization passes. The forward dataflow analysis
// always runs (it is the substrate every pass reads); each toggle gates
// only the rewrites that pass may make, so ablations isolate per-pass
// contributions against identical analysis results.
type Config struct {
	ConstFold bool // constant/copy propagation, movi materialization, imm forms, identities
	DeadCode  bool // dead pure-ALU elimination (loads are never dead-code-eliminated)
	DeadFlag  bool // dead compare (slt family) elimination
	LoadElim  bool // redundant-load -> register-copy rewriting

	// Mutate, when non-nil, corrupts the rewritten sequence before the
	// equivalence checker sees it. Test-only: it exists so the test suite
	// can prove the checker rejects a miscompiled trace.
	Mutate func([]isa.Inst)
}

// All returns the configuration with every pass enabled.
func All() Config {
	return Config{ConstFold: true, DeadCode: true, DeadFlag: true, LoadElim: true}
}

// Enabled reports whether any pass may rewrite anything.
func (c Config) Enabled() bool { return c.ConstFold || c.DeadCode || c.DeadFlag || c.LoadElim }

// Optimizer implements vm.Optimizer. One Optimizer serves many traces, one
// at a time: it owns the scratch both the engine and the checker work in,
// so it belongs to one VM (every construction site makes one per VM) and
// must not be shared between goroutines.
type Optimizer struct {
	cfg Config
	m   *Metrics
	sc  scratch
}

// scratch is an Optimizer's working memory: every buffer the engine and the
// checker need for one trace, reset — never reallocated — for the next.
// The two sides share these buffers' storage and the pinned set's contents;
// they share no code and no derived fact.
type scratch struct {
	pinned bitset // source indices of note-bearing instructions

	w      []workInst // engine
	fs     fstate
	insts  []isa.Inst
	srcIdx []uint16

	it       interner // checker
	evA, evB []symEvent
}

// bitset is a set of source indices, sized from the trace length.
type bitset []uint64

func (b bitset) has(i int) bool { return i>>6 < len(b) && b[i>>6]>>(i&63)&1 != 0 }

// resetPinned empties the pinned set for a trace of n instructions.
func (sc *scratch) resetPinned(n int) {
	sc.pinned = sc.pinned[:0]
	for i := 0; i < (n+63)>>6; i++ {
		sc.pinned = append(sc.pinned, 0)
	}
}

// pin marks source index i. An index beyond the trace grows the set; no
// source map can cover it, so the checker rejects any rewrite of the trace.
func (sc *scratch) pin(i int) {
	for i>>6 >= len(sc.pinned) {
		sc.pinned = append(sc.pinned, 0)
	}
	sc.pinned[i>>6] |= 1 << (i & 63)
}

// New returns an optimizer for the given pass configuration.
func New(cfg Config) *Optimizer { return &Optimizer{cfg: cfg} }

// Signature identifies the pass configuration for persistence keying: a
// cache of optimized traces must only prime VMs running the same passes.
func (o *Optimizer) Signature() string {
	return fmt.Sprintf("guestopt/1:cf=%t,dc=%t,df=%t,le=%t",
		o.cfg.ConstFold, o.cfg.DeadCode, o.cfg.DeadFlag, o.cfg.LoadElim)
}

// BindMetrics registers the pcc_guestopt_* families in reg. The VM calls
// this at construction when the optimizer is attached, so the run's shared
// registry sees optimizer outcomes alongside the VM's own counters.
func (o *Optimizer) BindMetrics(reg *metrics.Registry) { o.m = NewMetrics(reg) }

// maxInsts is the longest trace the optimizer takes on: SrcIdx entries and
// OrigLen are uint16. A longer one (vm.WithMaxTrace allows it) is declined
// like any trace with nothing to improve.
const maxInsts = math.MaxUint16

// Optimize rewrites a freshly decoded trace in place when every rewrite
// can be proven equivalent, and reports the outcome. Traces that arrive
// already optimized (primed from a persistent cache) pass through
// untouched: the VM never re-optimizes persisted code. The early-return
// prefix runs on every translation and every persisted-trace install, so
// the frame follows the hotpath discipline. A trace left unchanged
// allocates nothing; an optimized one allocates its exact-size Insts and
// SrcIdx and nothing else.
//
//pcc:hotpath
func (o *Optimizer) Optimize(t *vm.Trace) vm.OptOutcome {
	if t.OptLevel != 0 || len(t.Insts) == 0 || !o.cfg.Enabled() {
		return vm.OptOutcome{}
	}
	if len(t.Insts) > maxInsts {
		o.m.observe(outUnchanged, nil)
		return vm.OptOutcome{}
	}
	o.sc.resetPinned(len(t.Insts))
	for _, n := range t.Notes {
		o.sc.pin(int(n.InstIdx))
	}
	res := o.rewrite(t.Insts)
	if !res.changed {
		o.m.observe(outUnchanged, nil)
		return vm.OptOutcome{}
	}
	if o.cfg.Mutate != nil {
		o.cfg.Mutate(res.insts)
	}
	if err := o.sc.checkEquivalent(t.Insts, res.insts, res.srcIdx); err != nil {
		o.m.observe(outRejected, nil)
		return vm.OptOutcome{Rejected: true}
	}
	orig := len(t.Insts)
	t.OrigLen = uint16(orig)
	t.Insts = make([]isa.Inst, len(res.insts))
	copy(t.Insts, res.insts)
	t.SrcIdx = make([]uint16, len(res.srcIdx))
	copy(t.SrcIdx, res.srcIdx)
	t.OptLevel = 1
	remapNotes(t)
	o.m.observe(outOptimized, &res.removedBy)
	return vm.OptOutcome{Level: 1, Removed: orig - len(res.insts)}
}

// remapNotes rewrites relocation-note instruction indices from original to
// optimized positions. Pinned instructions are never removed, so every
// note's target survives the rewrite. SrcIdx ascends and notes normally do
// too, so one cursor serves them all; a note out of order restarts it.
//
//pcc:hotpath
func remapNotes(t *vm.Trace) {
	k := 0
	for i := range t.Notes {
		s := t.Notes[i].InstIdx
		if t.SrcIdx[k] > s {
			k = 0
		}
		for k < len(t.SrcIdx)-1 && t.SrcIdx[k] < s {
			k++
		}
		t.Notes[i].InstIdx = uint16(k)
	}
}
