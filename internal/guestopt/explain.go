package guestopt

import "persistcc/internal/isa"

// PassNote records what the optimizer did to one source instruction — the
// per-pass annotation pcc-objdump -opt renders next to the disassembly.
type PassNote struct {
	Src     int      // index in the original sequence
	Pass    string   // "" = untouched; otherwise the responsible pass
	Removed bool     // instruction eliminated
	Orig    isa.Inst // original form
	New     isa.Inst // rewritten form (valid when !Removed)
}

// Report is a dry-run optimization of one instruction sequence: the
// optimized form, its source map, per-instruction pass attribution and the
// checker's verdict. Explain never mutates its input and is independent of
// any VM — cmd/pcc-objdump uses it to show what translation would do.
type Report struct {
	Orig    []isa.Inst
	Insts   []isa.Inst // optimized sequence (equals Orig when !Changed)
	SrcIdx  []uint16
	Changed bool
	Err     error // non-nil: the equivalence checker rejected the rewrite
	Notes   []PassNote
}

// Explain runs the passes and the checker over one decoded sequence.
// pinned marks source indices of loader-patched instructions (may be nil).
// The report owns its slices: one Optimizer can explain a whole module.
func (o *Optimizer) Explain(insts []isa.Inst, pinned map[uint16]bool) *Report {
	rep := &Report{Orig: insts, Insts: insts}
	if len(insts) == 0 || len(insts) > maxInsts || !o.cfg.Enabled() {
		return rep
	}
	o.sc.pinFrom(len(insts), pinned)
	res := o.rewrite(insts)
	rep.Notes = make([]PassNote, len(res.work))
	for i := range res.work {
		w := &res.work[i]
		n := PassNote{Src: i, Orig: insts[i], New: w.in}
		if !w.alive {
			n.Pass, n.Removed = w.gone.String(), true
		} else if w.in != insts[i] {
			n.Pass = w.pass.String()
		}
		rep.Notes[i] = n
	}
	if !res.changed {
		return rep
	}
	rep.Changed = true
	rep.Insts = append([]isa.Inst(nil), res.insts...)
	rep.SrcIdx = append([]uint16(nil), res.srcIdx...)
	rep.Err = o.sc.checkEquivalent(insts, rep.Insts, rep.SrcIdx)
	return rep
}

// pinFrom is the map-to-bitset conversion at the package boundary.
func (sc *scratch) pinFrom(n int, pinned map[uint16]bool) {
	sc.resetPinned(n)
	for s, on := range pinned {
		if on {
			sc.pin(int(s))
		}
	}
}
