package guestopt

import (
	"math"

	"persistcc/internal/isa"
)

// passID names the pass responsible for a rewrite or a removal.
type passID uint8

const (
	passNone passID = iota // verbatim
	passConstFold
	passLoadElim
	passDeadCode
	passDeadFlag
	nPasses
)

var passNames = [nPasses]string{"", "constfold", "loadelim", "deadcode", "deadflag"}

func (p passID) String() string { return passNames[p] }

// workInst is one original instruction flowing through the passes; its
// index in the work list is its index in the original fetched sequence.
type workInst struct {
	in     isa.Inst
	pinned bool // carries a relocation note: never rewritten or removed
	alive  bool
	pass   passID // last pass that rewrote it
	gone   passID // pass that removed it
}

// rewriteResult is the engine's output: the optimized sequence, its
// source-index map, and per-pass attribution for metrics and objdump. The
// slices are the scratch's: valid until the Optimizer's next trace.
type rewriteResult struct {
	insts     []isa.Inst
	srcIdx    []uint16
	changed   bool
	removedBy [nPasses]int
	work      []workInst // full per-source record (Explain / objdump -opt)
}

// rewrite runs the passes to a fixpoint over one trace's instructions.
// The forward dataflow analysis always runs; each Config toggle gates only
// the rewrites its pass makes.
//
//pcc:hotpath
func (o *Optimizer) rewrite(insts []isa.Inst) rewriteResult {
	sc := &o.sc
	w := sc.w[:0]
	for i := range insts {
		w = append(w, workInst{in: insts[i], pinned: sc.pinned.has(i), alive: true})
	}
	sc.w = w
	// Each iteration is monotone (instructions only get simpler or die);
	// a handful of rounds reaches the fixpoint on 32-instruction traces.
	for iter := 0; iter < 4; iter++ {
		c1 := o.forwardPass(w)
		c2 := o.dcePass(w)
		if !c1 && !c2 {
			break
		}
	}
	alive := 0
	for i := range w {
		if w[i].alive {
			alive++
		}
	}
	if alive == 0 {
		// Every instruction was dead (a trace of nops / r0 writes). Keep the
		// first so the trace has a body; its effect is nil by construction.
		w[0].alive = true
		w[0].gone = passNone
	}
	res := rewriteResult{work: w, insts: sc.insts[:0], srcIdx: sc.srcIdx[:0]}
	for i := range w {
		if !w[i].alive {
			res.removedBy[w[i].gone]++
			res.changed = true
			continue
		}
		if w[i].in != insts[i] {
			res.changed = true
			if w[i].pass == passNone {
				w[i].pass = passConstFold
			}
		}
		res.insts = append(res.insts, w[i].in)
		res.srcIdx = append(res.srcIdx, uint16(i))
	}
	sc.insts, sc.srcIdx = res.insts, res.srcIdx
	return res
}

// fstate is the forward-pass lattice: per-register known constants, copy
// equalities, and the available-load table. The zero value (with avail
// emptied) is the state at trace entry.
type fstate struct {
	cv [32]uint64 // known constant value
	ck [32]bool   // cv valid
	cp [32]uint8  // register this one is a copy of (copyNone = not a copy)
	// avail holds the loads of the current store generation whose result is
	// still in a register: at most one per load in the trace, scanned
	// linearly, emptied by every store.
	avail []availLoad
}

// copyNone is r0: a copy of r0 is a constant, never recorded as a copy.
const copyNone = isa.RegZero

type availLoad struct {
	op   isa.Op
	base uint8
	hold uint8 // register holding the loaded value
	imm  int32
}

// find returns the index in avail of the load (op, base, imm), or -1.
func (s *fstate) find(op isa.Op, base uint8, imm int32) int {
	for i := range s.avail {
		if e := &s.avail[i]; e.op == op && e.base == base && e.imm == imm {
			return i
		}
	}
	return -1
}

// resolve returns the canonical register currently holding r's value.
func (s *fstate) resolve(r uint8) uint8 {
	if r != isa.RegZero && s.cp[r] != copyNone {
		return s.cp[r]
	}
	return r
}

// constOf returns r's known constant value. r0 is always the constant 0.
func (s *fstate) constOf(r uint8) (uint64, bool) {
	if r == isa.RegZero {
		return 0, true
	}
	return s.cv[r], s.ck[r]
}

// kill invalidates every fact involving register r (r was redefined).
func (s *fstate) kill(r uint8) {
	if r == isa.RegZero {
		return
	}
	s.ck[r] = false
	s.cp[r] = copyNone
	for x := 1; x < isa.NumRegs; x++ {
		if s.cp[x] == r {
			s.cp[x] = copyNone
		}
	}
	n := 0
	for _, e := range s.avail {
		if e.base != r && e.hold != r {
			s.avail[n] = e
			n++
		}
	}
	s.avail = s.avail[:n]
}

func (s *fstate) killDefs(in isa.Inst) {
	d := in.Defs()
	for r := uint8(1); r < isa.NumRegs; r++ {
		if d.Has(r) {
			s.kill(r)
		}
	}
}

// forwardPass walks the live instructions once, propagating constants and
// copies, materializing known values, converting to immediate forms,
// applying algebraic identities and collapsing redundant loads. It reports
// whether anything changed.
//
//pcc:hotpath
func (o *Optimizer) forwardPass(w []workInst) bool {
	s := &o.sc.fs
	*s = fstate{avail: s.avail[:0]}
	changed := false
	for i := range w {
		if !w[i].alive {
			continue
		}
		in := w[i].in
		if w[i].pinned {
			// Loader-patched instructions execute verbatim and their results
			// stay opaque: a rebase rewrites their immediates, so nothing
			// derived from them may be baked into other instructions.
			if isa.Classify(in.Op) == isa.ClassStore {
				s.avail = s.avail[:0]
			}
			s.killDefs(in)
			continue
		}
		switch isa.Classify(in.Op) {
		case isa.ClassALU:
			changed = o.aluStep(s, &w[i]) || changed
		case isa.ClassLoad:
			changed = o.loadStep(s, &w[i]) || changed
		case isa.ClassStore:
			nin := in
			if o.cfg.ConstFold {
				nin.Rs1, nin.Rs2 = s.resolve(nin.Rs1), s.resolve(nin.Rs2)
			}
			changed = w[i].update(nin, passConstFold) || changed
			s.avail = s.avail[:0]
		case isa.ClassBranch:
			nin := in
			if o.cfg.ConstFold {
				nin.Rs1, nin.Rs2 = s.resolve(nin.Rs1), s.resolve(nin.Rs2)
			}
			changed = w[i].update(nin, passConstFold) || changed
			// The lattice survives the (fall-through) branch: register state
			// is unchanged on this path.
		case isa.ClassJump:
			nin := in
			if in.Op == isa.OpJalr && o.cfg.ConstFold {
				nin.Rs1 = s.resolve(nin.Rs1)
			}
			changed = w[i].update(nin, passConstFold) || changed
			s.killDefs(nin)
		default: // sys, halt: trace terminators
			s.killDefs(in)
		}
	}
	return changed
}

// update installs a rewritten instruction, recording the pass label.
func (wi *workInst) update(nin isa.Inst, pass passID) bool {
	if nin == wi.in {
		return false
	}
	wi.in = nin
	wi.pass = pass
	return true
}

// aluStep handles one pure ALU instruction: copy-propagate operands,
// evaluate constants, convert to immediate forms, apply identities, and
// update the lattice from the final form.
func (o *Optimizer) aluStep(s *fstate, wi *workInst) bool {
	in := wi.in
	if in.Op == isa.OpNop {
		return false // no def; dcePass removes it
	}
	if o.cfg.ConstFold {
		switch {
		case in.Op == isa.OpMovI || in.Op == isa.OpLdPC:
			// no register sources
		case in.Op == isa.OpMovHI || isRegImmALU(in.Op):
			in.Rs1 = s.resolve(in.Rs1)
		default: // register-register
			in.Rs1, in.Rs2 = s.resolve(in.Rs1), s.resolve(in.Rs2)
		}
		if v, ok := s.eval(in); ok && fitsImm32(v) {
			mov := isa.Inst{Op: isa.OpMovI, Rd: in.Rd, Imm: int32(v)}
			if in != mov {
				in = mov
			}
		} else if !ok {
			in = s.immConvert(in)
			in = s.identity(in)
		}
	}
	// Lattice update from the final form. A self-copy (rd := rd, value
	// unchanged) leaves the lattice intact and the instruction removable.
	if in.Op == isa.OpAddI && in.Imm == 0 && s.resolve(in.Rs1) == in.Rd && in.Rd != isa.RegZero {
		if o.cfg.ConstFold && !wi.pinned {
			wi.alive = false
			wi.gone = passConstFold
			return true
		}
		return wi.update(in, passConstFold)
	}
	v, isConst := s.eval(in)
	copySrc := uint8(copyNone)
	if in.Op == isa.OpAddI && in.Imm == 0 {
		copySrc = s.resolve(in.Rs1)
	}
	s.kill(in.Rd)
	if in.Rd != isa.RegZero {
		switch {
		case isConst:
			s.cv[in.Rd], s.ck[in.Rd] = v, true
		case copySrc != copyNone:
			s.cp[in.Rd] = copySrc
		}
	}
	return wi.update(in, passConstFold)
}

// loadStep handles one load: propagate the base register, collapse a
// redundant load into a copy of the earlier result (the first load of an
// address is always kept, preserving fault behavior), and record the
// loaded value as available.
func (o *Optimizer) loadStep(s *fstate, wi *workInst) bool {
	in := wi.in
	base := s.resolve(in.Rs1)
	if at := s.find(in.Op, base, in.Imm); at >= 0 && o.cfg.LoadElim {
		hold := s.avail[at].hold
		if hold == in.Rd {
			// rd already holds this value: the reload is a no-op.
			wi.alive = false
			wi.gone = passLoadElim
			return true
		}
		nin := isa.Inst{Op: isa.OpAddI, Rd: in.Rd, Rs1: hold}
		s.kill(in.Rd)
		s.cp[in.Rd] = hold
		return wi.update(nin, passLoadElim)
	}
	if o.cfg.ConstFold {
		in.Rs1 = base
	}
	s.kill(in.Rd)
	if in.Rd != isa.RegZero && in.Rd != base {
		if at := s.find(in.Op, base, in.Imm); at >= 0 {
			s.avail[at].hold = in.Rd
		} else {
			s.avail = append(s.avail, availLoad{op: in.Op, base: base, hold: in.Rd, imm: in.Imm})
		}
	}
	return wi.update(in, passConstFold)
}

// eval computes the instruction's result when all source operands are
// known constants. ldpc never evaluates: its result is position-dependent
// and must not be baked into a persisted (rebas-able) trace.
func (s *fstate) eval(in isa.Inst) (uint64, bool) {
	switch {
	case in.Op == isa.OpMovI:
		return uint64(int64(in.Imm)), true
	case in.Op == isa.OpLdPC:
		return 0, false
	case in.Op == isa.OpMovHI:
		if c, ok := s.constOf(in.Rs1); ok {
			return uint64(uint32(in.Imm))<<32 | c&0xFFFFFFFF, true
		}
	case isRegImmALU(in.Op):
		if c, ok := s.constOf(in.Rs1); ok {
			return evalALU(regForm(in.Op), c, uint64(int64(in.Imm))), true
		}
	case in.Op != isa.OpNop:
		c1, ok1 := s.constOf(in.Rs1)
		c2, ok2 := s.constOf(in.Rs2)
		if ok1 && ok2 {
			return evalALU(in.Op, c1, c2), true
		}
	}
	return 0, false
}

// immConvert rewrites a register-register ALU instruction whose second (or,
// for commutative ops, first) operand is a known constant into the
// equivalent immediate form, freeing the constant-holding register.
func (s *fstate) immConvert(in isa.Inst) isa.Inst {
	immOp, commutative := immForm(in.Op)
	if immOp == isa.OpNop {
		return in
	}
	if c, ok := s.constOf(in.Rs2); ok {
		switch {
		case in.Op == isa.OpSll || in.Op == isa.OpSrl || in.Op == isa.OpSra:
			return isa.Inst{Op: immOp, Rd: in.Rd, Rs1: in.Rs1, Imm: int32(c & 63)}
		case in.Op == isa.OpSub:
			if neg := -c; fitsImm32(neg) {
				return isa.Inst{Op: isa.OpAddI, Rd: in.Rd, Rs1: in.Rs1, Imm: int32(neg)}
			}
		case fitsImm32(c):
			return isa.Inst{Op: immOp, Rd: in.Rd, Rs1: in.Rs1, Imm: int32(c)}
		}
		return in
	}
	if c, ok := s.constOf(in.Rs1); ok && commutative && fitsImm32(c) {
		return isa.Inst{Op: immOp, Rd: in.Rd, Rs1: in.Rs2, Imm: int32(c)}
	}
	return in
}

// identity applies value-preserving algebraic simplifications, rewriting
// to a canonical register copy (addi rd, rs, 0) or a constant.
func (s *fstate) identity(in isa.Inst) isa.Inst {
	cp := func(r uint8) isa.Inst { return isa.Inst{Op: isa.OpAddI, Rd: in.Rd, Rs1: r} }
	zero := isa.Inst{Op: isa.OpMovI, Rd: in.Rd}
	isZero := func(r uint8) bool { c, ok := s.constOf(r); return ok && c == 0 }
	isOne := func(r uint8) bool { c, ok := s.constOf(r); return ok && c == 1 }
	switch in.Op {
	case isa.OpAdd:
		if isZero(in.Rs2) {
			return cp(in.Rs1)
		}
		if isZero(in.Rs1) {
			return cp(in.Rs2)
		}
	case isa.OpAddI:
		if in.Imm == 0 {
			return cp(in.Rs1)
		}
	case isa.OpSub:
		if in.Rs1 == in.Rs2 {
			return zero
		}
		if isZero(in.Rs2) {
			return cp(in.Rs1)
		}
	case isa.OpXor:
		if in.Rs1 == in.Rs2 {
			return zero
		}
		if isZero(in.Rs2) {
			return cp(in.Rs1)
		}
		if isZero(in.Rs1) {
			return cp(in.Rs2)
		}
	case isa.OpXorI, isa.OpOrI:
		if in.Imm == 0 {
			return cp(in.Rs1)
		}
	case isa.OpOr:
		if in.Rs1 == in.Rs2 || isZero(in.Rs2) {
			return cp(in.Rs1)
		}
		if isZero(in.Rs1) {
			return cp(in.Rs2)
		}
	case isa.OpAnd:
		if in.Rs1 == in.Rs2 {
			return cp(in.Rs1)
		}
		if isZero(in.Rs1) || isZero(in.Rs2) {
			return zero
		}
	case isa.OpAndI:
		if in.Imm == 0 {
			return zero
		}
	case isa.OpMul:
		if isZero(in.Rs1) || isZero(in.Rs2) {
			return zero
		}
		if isOne(in.Rs2) {
			return cp(in.Rs1)
		}
		if isOne(in.Rs1) {
			return cp(in.Rs2)
		}
	case isa.OpMulI:
		if in.Imm == 0 {
			return zero
		}
		if in.Imm == 1 {
			return cp(in.Rs1)
		}
	case isa.OpSllI, isa.OpSrlI, isa.OpSraI:
		if in.Imm&63 == 0 {
			return cp(in.Rs1)
		}
	case isa.OpSlt, isa.OpSltU:
		if in.Rs1 == in.Rs2 {
			return zero
		}
	}
	return in
}

// dcePass removes pure ALU instructions whose results die before any
// observation point. Liveness is conservative exactly as the trace
// compiler's: all registers are live at every side exit and at the trace
// end. Loads are never dead-code-eliminated — removing one would remove a
// potential fault the original sequence had.
//
//pcc:hotpath
func (o *Optimizer) dcePass(w []workInst) bool {
	changed := false
	live := isa.RegMask(0xFFFFFFFE)
	for i := len(w) - 1; i >= 0; i-- {
		if !w[i].alive {
			continue
		}
		in := w[i].in
		if !w[i].pinned && isa.Classify(in.Op) == isa.ClassALU && in.Defs()&live == 0 {
			pass, enabled := passDeadCode, o.cfg.DeadCode
			if isCompare(in.Op) {
				pass, enabled = passDeadFlag, o.cfg.DeadFlag
			}
			if enabled {
				w[i].alive = false
				w[i].gone = pass
				changed = true
				continue
			}
		}
		live = (live &^ in.Defs()) | in.Uses()
		if in.IsCondBranch() {
			live = 0xFFFFFFFE // the taken path sees every register
		}
	}
	return changed
}

// isCompare reports whether op is in the slt family — the ISA's
// flag-materializing instructions, eliminated by the deadflag pass.
func isCompare(op isa.Op) bool {
	switch op {
	case isa.OpSlt, isa.OpSltU, isa.OpSltI, isa.OpSltUI:
		return true
	}
	return false
}

// isRegImmALU reports whether op is a register-immediate ALU form.
func isRegImmALU(op isa.Op) bool {
	switch op {
	case isa.OpAddI, isa.OpMulI, isa.OpAndI, isa.OpOrI, isa.OpXorI,
		isa.OpSllI, isa.OpSrlI, isa.OpSraI, isa.OpSltI, isa.OpSltUI:
		return true
	}
	return false
}

// regForm maps an immediate ALU form to its register-register op.
func regForm(op isa.Op) isa.Op {
	switch op {
	case isa.OpAddI:
		return isa.OpAdd
	case isa.OpMulI:
		return isa.OpMul
	case isa.OpAndI:
		return isa.OpAnd
	case isa.OpOrI:
		return isa.OpOr
	case isa.OpXorI:
		return isa.OpXor
	case isa.OpSllI:
		return isa.OpSll
	case isa.OpSrlI:
		return isa.OpSrl
	case isa.OpSraI:
		return isa.OpSra
	case isa.OpSltI:
		return isa.OpSlt
	case isa.OpSltUI:
		return isa.OpSltU
	}
	return op
}

// immForm maps a register-register ALU op to its immediate form, reporting
// commutativity. OpNop means no immediate form exists.
func immForm(op isa.Op) (isa.Op, bool) {
	switch op {
	case isa.OpAdd:
		return isa.OpAddI, true
	case isa.OpMul:
		return isa.OpMulI, true
	case isa.OpAnd:
		return isa.OpAndI, true
	case isa.OpOr:
		return isa.OpOrI, true
	case isa.OpXor:
		return isa.OpXorI, true
	case isa.OpSub:
		return isa.OpAddI, false // sub rd, rs, c  ->  addi rd, rs, -c
	case isa.OpSll:
		return isa.OpSllI, false
	case isa.OpSrl:
		return isa.OpSrlI, false
	case isa.OpSra:
		return isa.OpSraI, false
	case isa.OpSlt:
		return isa.OpSltI, false
	case isa.OpSltU:
		return isa.OpSltUI, false
	}
	return isa.OpNop, false
}

// fitsImm32 reports whether v round-trips through a sign-extended int32
// immediate (the movi/imm-form encoding).
func fitsImm32(v uint64) bool {
	return int64(v) >= math.MinInt32 && int64(v) <= math.MaxInt32
}

// evalALU evaluates a register-register ALU op with the interpreter's
// exact semantics (internal/vm/run.go): division by zero yields 0 (signed
// and unsigned), remainder by zero yields the dividend, MinInt64/-1
// follows Go's wraparound conventions, shifts mask to 6 bits.
func evalALU(op isa.Op, a, b uint64) uint64 {
	switch op {
	case isa.OpAdd:
		return a + b
	case isa.OpSub:
		return a - b
	case isa.OpMul:
		return a * b
	case isa.OpDiv:
		switch {
		case b == 0:
			return 0
		case int64(a) == math.MinInt64 && int64(b) == -1:
			return a
		}
		return uint64(int64(a) / int64(b))
	case isa.OpDivU:
		if b == 0 {
			return 0
		}
		return a / b
	case isa.OpRem:
		switch {
		case b == 0:
			return a
		case int64(a) == math.MinInt64 && int64(b) == -1:
			return 0
		}
		return uint64(int64(a) % int64(b))
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
		return uint64(int64(a) >> (b & 63))
	case isa.OpSlt:
		if int64(a) < int64(b) {
			return 1
		}
		return 0
	case isa.OpSltU:
		if a < b {
			return 1
		}
		return 0
	}
	return 0
}
