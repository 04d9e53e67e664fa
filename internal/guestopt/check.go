// The static equivalence checker: a symbolic re-execution of the original
// and optimized instruction sequences, compared event by event. It is an
// independent implementation from the rewrite engine (in the spirit of
// internal/core/verify, which re-derives every structure it checks): the
// engine proposes, the checker disposes, and a bug in either shows up as a
// rejected trace rather than a silent miscompile.
//
// The checker proves, for every run of the trace from any initial state:
//
//   - the same stores happen, in the same order, with the same addresses,
//     values and widths;
//   - every side exit (conditional branch, terminator, fall-through) is
//     taken under the same condition, to the same target, with the same
//     full register state;
//   - the final register state on the fall-through path is identical;
//   - the set of loaded addresses per store generation is identical, so
//     the optimized trace faults exactly when the original would (loads
//     may be collapsed into copies, never added, dropped or moved across
//     stores);
//   - position-dependent values (ldpc results, link values) and
//     loader-patched instructions are modeled symbolically, never as
//     constants, so a rewrite that baked one in — valid today, wrong
//     after a rebase — is rejected.
package guestopt

import (
	"fmt"
	"math/bits"

	"persistcc/internal/isa"
)

type exprKind uint8

const (
	kConst exprKind = iota + 1 // val: the constant
	kInit                      // val: register number; its value at trace entry
	kAddr                      // val: byte delta from trace start (pc-relative value)
	kPin                       // val: source index of a loader-patched instruction
	kOp                        // op over a (and b)
	kLoad                      // memory value: op (width/sign), a (address), val (store generation)
)

// expr is a node in the interned symbolic-value DAG, named by its index in
// the interner's arena. Two values are equal iff their ids are equal.
type expr struct {
	kind exprKind
	op   isa.Op
	seen uint8  // kLoad: the sides (sideOrig | sideOpt) that performed this load
	a, b uint32 // child ids; 0 where the kind has none
	val  uint64
}

const (
	sideOrig uint8 = 1 << iota
	sideOpt
)

// The first nSeeded ids mean the same thing in every trace and are never
// hashed: id 0 is the constant 0 (what r0 reads), id r the value register r
// held at trace entry. A symbolic register file therefore starts as 0..31.
const nSeeded = isa.NumRegs

// interner owns the arena and the open-addressed id table that makes
// structurally equal nodes one node. Both outlive the trace: reset clears
// them, growth is the only allocation.
type interner struct {
	exprs []expr
	table []uint32 // slot: expr id, 0 = empty (seeded ids are never stored)
	mask  uint32
}

// reset empties the arena for a check over n instructions, both sides
// counted. An instruction interns at most three nodes (its immediate, a
// negated or masked constant, its result), so 8n slots stay under half full.
func (it *interner) reset(n int) {
	size := 64
	for size < 8*n {
		size <<= 1
	}
	if len(it.table) < size {
		it.table = make([]uint32, size)
	}
	clear(it.table[:size])
	it.mask = uint32(size - 1)
	if it.exprs == nil {
		it.exprs = make([]expr, nSeeded, 256)
		it.exprs[0] = expr{kind: kConst}
		for r := 1; r < nSeeded; r++ {
			it.exprs[r] = expr{kind: kInit, val: uint64(r)}
		}
	}
	it.exprs = it.exprs[:nSeeded]
}

// intern returns the id of the node with these fields, new or not.
//
//pcc:hotpath
func (it *interner) intern(kind exprKind, op isa.Op, a, b uint32, val uint64) uint32 {
	h := (uint64(kind)<<40 ^ uint64(op)<<32 ^ uint64(a)<<16 ^ uint64(b) ^ val*0x9e3779b97f4a7c15) * 0xff51afd7ed558ccd
	for i := uint32(h>>32) & it.mask; ; i = (i + 1) & it.mask {
		id := it.table[i]
		if id == 0 {
			id = uint32(len(it.exprs))
			it.exprs = append(it.exprs, expr{kind: kind, op: op, a: a, b: b, val: val})
			it.table[i] = id
			return id
		}
		if e := &it.exprs[id]; e.kind == kind && e.op == op && e.a == a && e.b == b && e.val == val {
			return id
		}
	}
}

func (it *interner) konst(v uint64) uint32 {
	if v == 0 {
		return 0
	}
	return it.intern(kConst, 0, 0, 0, v)
}
func (it *interner) imm(in isa.Inst) uint32  { return it.konst(uint64(int64(in.Imm))) }
func (it *interner) addrVal(d uint32) uint32 { return it.intern(kAddr, 0, 0, 0, uint64(d)) }
func (it *interner) pinVal(s int) uint32     { return it.intern(kPin, 0, 0, 0, uint64(s)) }
func (it *interner) isConst(id uint32) bool  { return it.exprs[id].kind == kConst }
func (it *interner) isOne(id uint32) bool    { return it.isConst(id) && it.exprs[id].val == 1 }

// mkOp builds the canonical expression for a register-register ALU
// operation. Canonicalization mirrors — by independent derivation from the
// ISA semantics, not by sharing code — every shape-changing rewrite the
// engine may apply: constant folding, sub-to-add-negative, shift-amount
// masking, commutative ordering and the algebraic identities. Identical
// values therefore reach identical nodes regardless of which encoding
// computed them.
func (it *interner) mkOp(op isa.Op, a, b uint32) uint32 {
	if it.isConst(a) && it.isConst(b) {
		return it.konst(evalSym(op, it.exprs[a].val, it.exprs[b].val))
	}
	if op == isa.OpSub && it.isConst(b) {
		return it.mkOp(isa.OpAdd, a, it.konst(-it.exprs[b].val))
	}
	if (op == isa.OpSll || op == isa.OpSrl || op == isa.OpSra) && it.isConst(b) {
		b = it.konst(it.exprs[b].val & 63)
	}
	switch op {
	case isa.OpAdd, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor:
		if a > b {
			a, b = b, a
		}
	}
	// The constant 0 is id 0, so "is zero" is a comparison of ids.
	switch op {
	case isa.OpAdd:
		if a == 0 {
			return b
		}
		if b == 0 {
			return a
		}
	case isa.OpSub:
		if a == b {
			return 0
		}
		if b == 0 {
			return a
		}
	case isa.OpXor:
		if a == b {
			return 0
		}
		if a == 0 {
			return b
		}
		if b == 0 {
			return a
		}
	case isa.OpOr:
		if a == b || b == 0 {
			return a
		}
		if a == 0 {
			return b
		}
	case isa.OpAnd:
		if a == b {
			return a
		}
		if a == 0 || b == 0 {
			return 0
		}
	case isa.OpMul:
		if a == 0 || b == 0 {
			return 0
		}
		if it.isOne(a) {
			return b
		}
		if it.isOne(b) {
			return a
		}
	case isa.OpSll, isa.OpSrl, isa.OpSra:
		if b == 0 {
			return a
		}
	case isa.OpSlt, isa.OpSltU:
		if a == b {
			return 0
		}
	}
	return it.intern(kOp, op, a, b, 0)
}

// evalSym evaluates one ALU operation over concrete values with the
// documented ISA semantics (independently of the engine's evaluator):
// division by zero yields zero, remainder by zero yields the dividend,
// the most-negative-dividend corner follows two's-complement wraparound,
// and shift counts use only their low six bits.
func evalSym(op isa.Op, a, b uint64) uint64 {
	sa, sb := int64(a), int64(b)
	boolVal := func(c bool) uint64 {
		if c {
			return 1
		}
		return 0
	}
	switch op {
	case isa.OpAdd:
		return a + b
	case isa.OpSub:
		return a - b
	case isa.OpMul:
		return a * b
	case isa.OpDiv:
		if sb == 0 {
			return 0
		}
		if sb == -1 {
			return uint64(-sa) // covers MinInt64 / -1 == MinInt64 by wraparound
		}
		return uint64(sa / sb)
	case isa.OpDivU:
		return safeDivU(a, b)
	case isa.OpRem:
		if sb == 0 {
			return a
		}
		if sb == -1 {
			return 0
		}
		return uint64(sa % sb)
	case isa.OpRemU:
		if b == 0 {
			return a
		}
		return a % b
	case isa.OpAnd:
		return a & b
	case isa.OpOr:
		return a | b
	case isa.OpXor:
		return a ^ b
	case isa.OpSll:
		return a << (b & 63)
	case isa.OpSrl:
		return a >> (b & 63)
	case isa.OpSra:
		return uint64(sa >> (b & 63))
	case isa.OpSlt:
		return boolVal(sa < sb)
	case isa.OpSltU:
		return boolVal(a < b)
	case isa.OpMovHI:
		return b<<32 | a&0xFFFFFFFF
	}
	return 0
}

func safeDivU(a, b uint64) uint64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// symEvent is one observable effect during symbolic execution: a store, a
// potential side exit (conditional branch), or the trace's terminator /
// fall-through. Exits carry the full register state visible to the rest of
// the program if the exit is taken.
type symEvent struct {
	kind uint8 // evStore | evBranch | evExit
	op   isa.Op
	a, b uint32 // store: address, value; branch: operands; jalr exit: a = target
	off  uint32 // target offset from trace start (branch taken-target, jal target, syscall resume, fall-through)
	snap [isa.NumRegs]uint32
}

const (
	evStore uint8 = iota + 1
	evBranch
	evExit
)

// runSym symbolically executes one instruction sequence as side, appending
// its events to ev. src maps each instruction to its original fetch index
// (nil = identity, the original sequence); origLen is the original
// instruction count, fixing the fall-through resume offset for both sides.
// Every load marks its kLoad node with side: the marks are the fault set.
//
//pcc:hotpath
func (it *interner) runSym(ev []symEvent, side uint8, insts []isa.Inst, src []uint16, pinned bitset, origLen int) []symEvent {
	var regs [isa.NumRegs]uint32
	for r := range regs {
		regs[r] = uint32(r)
	}
	gen := uint64(0)
	for k, in := range insts {
		s := k
		if src != nil {
			s = int(src[k])
		}
		off := uint32(s) * isa.InstSize
		switch isa.Classify(in.Op) {
		case isa.ClassALU:
			switch {
			case in.Op == isa.OpNop:
				continue
			case pinned.has(s):
				// Loader-patched result: opaque, identified by source position.
				regs[in.Rd] = it.pinVal(s)
			case in.Op == isa.OpMovI:
				regs[in.Rd] = it.imm(in)
			case in.Op == isa.OpMovHI:
				regs[in.Rd] = it.mkOp(isa.OpMovHI, regs[in.Rs1], it.konst(uint64(uint32(in.Imm))))
			case in.Op == isa.OpLdPC:
				regs[in.Rd] = it.addrVal(off + uint32(in.Imm))
			case isRegImmALU(in.Op):
				regs[in.Rd] = it.mkOp(regForm(in.Op), regs[in.Rs1], it.imm(in))
			default:
				regs[in.Rd] = it.mkOp(in.Op, regs[in.Rs1], regs[in.Rs2])
			}
		case isa.ClassLoad:
			addr := it.mkOp(isa.OpAdd, regs[in.Rs1], it.imm(in))
			ld := it.intern(kLoad, in.Op, addr, 0, gen)
			it.exprs[ld].seen |= side
			regs[in.Rd] = ld
		case isa.ClassStore:
			addr := it.mkOp(isa.OpAdd, regs[in.Rs1], it.imm(in))
			ev = append(ev, symEvent{kind: evStore, op: in.Op, a: addr, b: regs[in.Rs2]})
			gen++
		case isa.ClassBranch:
			ev = append(ev, symEvent{
				kind: evBranch, op: in.Op, a: regs[in.Rs1], b: regs[in.Rs2],
				off: off + uint32(in.Imm), snap: regs,
			})
		case isa.ClassJump:
			e := symEvent{kind: evExit, op: in.Op, off: off + uint32(in.Imm)}
			if in.Op == isa.OpJalr {
				e.a, e.off = it.mkOp(isa.OpAdd, regs[in.Rs1], it.imm(in)), 0 // read before the link write
			}
			regs[in.Rd] = it.addrVal(off + isa.InstSize)
			regs[0] = 0
			e.snap = regs
			ev = append(ev, e)
		case isa.ClassSys:
			ev = append(ev, symEvent{kind: evExit, op: in.Op, off: off + isa.InstSize, snap: regs})
		case isa.ClassHalt:
			ev = append(ev, symEvent{kind: evExit, op: in.Op, snap: regs})
		}
		regs[0] = 0 // whatever the instruction wrote there
	}
	if last := insts[len(insts)-1]; !last.IsTerminator() {
		ev = append(ev, symEvent{
			kind: evExit, op: isa.OpNop, off: uint32(origLen) * isa.InstSize, snap: regs,
		})
	}
	return ev
}

// checkEquivalent proves the optimized sequence equivalent to the original
// for all initial states, or explains why it cannot. pinned is read, never
// written: the engine's view of which instructions are loader-patched is
// the one input the two sides share.
//
//pcc:hotpath
func (sc *scratch) checkEquivalent(orig, opt []isa.Inst, srcIdx []uint16) error {
	n, m := len(orig), len(opt)
	if m == 0 || m > n {
		return fmt.Errorf("guestopt: bad length %d (orig %d)", m, n)
	}
	if len(srcIdx) != m {
		return fmt.Errorf("guestopt: source map length %d != %d", len(srcIdx), m)
	}
	prev := -1
	for _, s := range srcIdx {
		if int(s) <= prev || int(s) >= n {
			return fmt.Errorf("guestopt: source map not strictly increasing within bounds")
		}
		prev = int(s)
	}
	for k, in := range opt {
		if in.IsTerminator() && k != m-1 {
			return fmt.Errorf("guestopt: terminator %s at %d before sequence end", in.Op, k)
		}
	}
	if orig[n-1].IsTerminator() && (int(srcIdx[m-1]) != n-1 || opt[m-1] != orig[n-1]) {
		return fmt.Errorf("guestopt: terminator not preserved")
	}
	// Every pinned source index must survive verbatim. Both the set bits and
	// srcIdx ascend, so one cursor walks the source map.
	k := 0
	for wi, word := range sc.pinned {
		for ; word != 0; word &= word - 1 {
			s := wi<<6 + bits.TrailingZeros64(word)
			for k < m && int(srcIdx[k]) < s {
				k++
			}
			if k == m || int(srcIdx[k]) != s || opt[k] != orig[s] {
				return fmt.Errorf("guestopt: loader-patched instruction %d not kept verbatim", s)
			}
		}
	}

	it := &sc.it
	it.reset(n + m)
	sc.evA = it.runSym(sc.evA[:0], sideOrig, orig, nil, sc.pinned, n)
	sc.evB = it.runSym(sc.evB[:0], sideOpt, opt, srcIdx, sc.pinned, n)

	if len(sc.evA) != len(sc.evB) {
		return fmt.Errorf("guestopt: event count %d != %d", len(sc.evB), len(sc.evA))
	}
	for i := range sc.evA {
		x, y := &sc.evA[i], &sc.evB[i]
		if x.kind != y.kind || x.op != y.op || x.a != y.a || x.b != y.b || x.off != y.off {
			return fmt.Errorf("guestopt: event %d diverges (%s)", i, x.op)
		}
		if x.kind != evStore && x.snap != y.snap {
			for r := 1; r < isa.NumRegs; r++ {
				if x.snap[r] != y.snap[r] {
					return fmt.Errorf("guestopt: r%d differs at exit event %d", r, i)
				}
			}
		}
	}
	for i := nSeeded; i < len(it.exprs); i++ {
		switch e := &it.exprs[i]; {
		case e.kind != kLoad || e.seen == sideOrig|sideOpt:
		case e.seen == sideOrig:
			return fmt.Errorf("guestopt: load dropped (fault set shrank)")
		default:
			return fmt.Errorf("guestopt: load introduced (fault set grew)")
		}
	}
	return nil
}
