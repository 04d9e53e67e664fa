package guestopt

import "persistcc/internal/isa"

// CheckEquivalent exposes the prover alone to the external golden and fuzz
// tests: the verdict on an arbitrary (orig, opt, srcIdx) triple, not only on
// one the engine produced.
func (o *Optimizer) CheckEquivalent(orig, opt []isa.Inst, srcIdx []uint16, pinned map[uint16]bool) error {
	o.sc.pinFrom(len(orig), pinned)
	return o.sc.checkEquivalent(orig, opt, srcIdx)
}
