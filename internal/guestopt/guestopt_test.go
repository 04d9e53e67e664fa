package guestopt

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"persistcc/internal/isa"
	"persistcc/internal/metrics"
	"persistcc/internal/vm"
)

// ---------------------------------------------------------------------------
// Differential oracle: a tiny concrete interpreter over instruction
// sequences, independent of both the VM and the symbolic checker. It runs
// the original and optimized forms from identical initial states and
// demands identical stores, exits and final registers.

type concState struct {
	regs   [isa.NumRegs]uint64
	mem    map[uint32]byte
	seed   uint64
	stores []concStore
	// exit
	exitKind string // "fall" | "taken" | "jal" | "jalr" | "sys" | "halt"
	exitPC   uint64
}

type concStore struct {
	addr uint32
	size int
	val  uint64
}

func (s *concState) readMem(addr uint32, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		a := addr + uint32(i)
		b, ok := s.mem[a]
		if !ok {
			// Deterministic pseudo-random backing memory.
			h := (uint64(a) + s.seed) * 0x9e3779b97f4a7c15
			b = byte(h >> 33)
		}
		v |= uint64(b) << (8 * i)
	}
	return v
}

func (s *concState) writeMem(addr uint32, size int, val uint64) {
	for i := 0; i < size; i++ {
		s.mem[addr+uint32(i)] = byte(val >> (8 * i))
	}
	s.stores = append(s.stores, concStore{addr: addr, size: size, val: val & (math.MaxUint64 >> (64 - 8*size))})
}

// concRun interprets one sequence with the VM's documented semantics.
// start is the trace start address; src maps instructions to original
// fetch indices; origLen fixes the fall-through address.
func concRun(insts []isa.Inst, src []uint16, start uint32, origLen int, init [isa.NumRegs]uint64, memSeed uint64) *concState {
	s := &concState{regs: init, mem: make(map[uint32]byte), seed: memSeed}
	s.regs[0] = 0
	setRd := func(r uint8, v uint64) {
		if r != 0 {
			s.regs[r] = v
		}
	}
	for k, in := range insts {
		pc := start + uint32(src[k])*isa.InstSize
		r1, r2 := s.regs[in.Rs1], s.regs[in.Rs2]
		imm := int64(in.Imm)
		switch isa.Classify(in.Op) {
		case isa.ClassALU:
			switch in.Op {
			case isa.OpNop:
			case isa.OpMovI:
				setRd(in.Rd, uint64(imm))
			case isa.OpMovHI:
				setRd(in.Rd, uint64(uint32(in.Imm))<<32|r1&0xFFFFFFFF)
			case isa.OpLdPC:
				setRd(in.Rd, uint64(pc+uint32(in.Imm)))
			default:
				if isRegImmALU(in.Op) {
					setRd(in.Rd, evalALU(regForm(in.Op), r1, uint64(imm)))
				} else {
					setRd(in.Rd, evalALU(in.Op, r1, r2))
				}
			}
		case isa.ClassLoad:
			addr := uint32(r1 + uint64(imm))
			var size int
			switch in.Op {
			case isa.OpLb, isa.OpLbU:
				size = 1
			case isa.OpLh, isa.OpLhU:
				size = 2
			case isa.OpLw, isa.OpLwU:
				size = 4
			default:
				size = 8
			}
			v := s.readMem(addr, size)
			switch in.Op {
			case isa.OpLb:
				v = uint64(int64(int8(v)))
			case isa.OpLh:
				v = uint64(int64(int16(v)))
			case isa.OpLw:
				v = uint64(int64(int32(v)))
			}
			setRd(in.Rd, v)
		case isa.ClassStore:
			addr := uint32(r1 + uint64(imm))
			var size int
			switch in.Op {
			case isa.OpSb:
				size = 1
			case isa.OpSh:
				size = 2
			case isa.OpSw:
				size = 4
			default:
				size = 8
			}
			s.writeMem(addr, size, r2)
		case isa.ClassBranch:
			taken := false
			switch in.Op {
			case isa.OpBeq:
				taken = r1 == r2
			case isa.OpBne:
				taken = r1 != r2
			case isa.OpBlt:
				taken = int64(r1) < int64(r2)
			case isa.OpBge:
				taken = int64(r1) >= int64(r2)
			case isa.OpBltU:
				taken = r1 < r2
			case isa.OpBgeU:
				taken = r1 >= r2
			}
			if taken {
				s.exitKind, s.exitPC = "taken", uint64(pc+uint32(in.Imm))
				return s
			}
		case isa.ClassJump:
			if in.Op == isa.OpJal {
				setRd(in.Rd, uint64(pc+isa.InstSize))
				s.exitKind, s.exitPC = "jal", uint64(pc+uint32(in.Imm))
				return s
			}
			target := uint32(r1 + uint64(imm))
			setRd(in.Rd, uint64(pc+isa.InstSize))
			s.exitKind, s.exitPC = "jalr", uint64(target)
			return s
		case isa.ClassSys:
			s.exitKind, s.exitPC = "sys", uint64(pc+isa.InstSize)
			return s
		case isa.ClassHalt:
			s.exitKind = "halt"
			return s
		}
	}
	s.exitKind, s.exitPC = "fall", uint64(start+uint32(origLen)*isa.InstSize)
	return s
}

func identitySrc(n int) []uint16 {
	src := make([]uint16, n)
	for i := range src {
		src[i] = uint16(i)
	}
	return src
}

// diffCheck optimizes a sequence and replays both forms from several
// initial states, failing on any observable divergence.
func diffCheck(t *testing.T, o *Optimizer, insts []isa.Inst, pinned map[uint16]bool, seed int64) *Report {
	t.Helper()
	rep := o.Explain(insts, pinned)
	if !rep.Changed {
		return rep
	}
	if rep.Err != nil {
		t.Fatalf("checker rejected an engine rewrite: %v\norig: %v\nopt:  %v", rep.Err, insts, rep.Insts)
	}
	rng := rand.New(rand.NewSource(seed))
	const start = 0x40_0000
	for trial := 0; trial < 8; trial++ {
		var init [isa.NumRegs]uint64
		for r := 1; r < isa.NumRegs; r++ {
			switch rng.Intn(4) {
			case 0:
				init[r] = uint64(rng.Intn(4)) // collisions make branches/identities fire
			case 1:
				init[r] = uint64(0x0800_0000 + rng.Intn(1<<16)) // plausible address
			default:
				init[r] = rng.Uint64()
			}
		}
		memSeed := rng.Uint64()
		a := concRun(insts, identitySrc(len(insts)), start, len(insts), init, memSeed)
		b := concRun(rep.Insts, rep.SrcIdx, start, len(insts), init, memSeed)
		if a.exitKind != b.exitKind || a.exitPC != b.exitPC {
			t.Fatalf("trial %d: exit %s@%#x != %s@%#x\norig: %v\nopt:  %v",
				trial, a.exitKind, a.exitPC, b.exitKind, b.exitPC, insts, rep.Insts)
		}
		if len(a.stores) != len(b.stores) {
			t.Fatalf("trial %d: %d stores != %d\norig: %v\nopt:  %v", trial, len(a.stores), len(b.stores), insts, rep.Insts)
		}
		for i := range a.stores {
			if a.stores[i] != b.stores[i] {
				t.Fatalf("trial %d: store %d %+v != %+v\norig: %v\nopt:  %v", trial, i, a.stores[i], b.stores[i], insts, rep.Insts)
			}
		}
		for r := 1; r < isa.NumRegs; r++ {
			if a.regs[r] != b.regs[r] {
				t.Fatalf("trial %d: r%d %#x != %#x\norig: %v\nopt:  %v", trial, r, a.regs[r], b.regs[r], insts, rep.Insts)
			}
		}
	}
	return rep
}

// ---------------------------------------------------------------------------
// Pass unit tests.

const (
	t0 = isa.RegT0
	t1 = isa.RegT0 + 1
	t2 = isa.RegT0 + 2
	t3 = isa.RegT0 + 3
	sp = isa.RegSP
)

func ins(op isa.Op, rd, rs1, rs2 uint8, imm int32) isa.Inst {
	return isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm}
}

func TestConstFoldAndDCE(t *testing.T) {
	seq := []isa.Inst{
		ins(isa.OpMovI, t0, 0, 0, 5),
		ins(isa.OpMovI, t1, 0, 0, 7),
		ins(isa.OpAdd, t2, t0, t1, 0), // folds to movi t2, 12
		ins(isa.OpSub, t0, t2, t1, 0), // folds to movi t0, 5; first movi t0 now dead
		ins(isa.OpSd, 0, sp, t2, 0),
		ins(isa.OpHalt, 0, 0, 0, 0),
	}
	rep := diffCheck(t, New(All()), seq, nil, 1)
	if !rep.Changed {
		t.Fatal("no rewrite on a foldable sequence")
	}
	if len(rep.Insts) >= len(seq) {
		t.Fatalf("no shrink: %d -> %d", len(seq), len(rep.Insts))
	}
	foundFold := false
	for _, in := range rep.Insts {
		if in.Op == isa.OpMovI && in.Rd == t2 && in.Imm == 12 {
			foundFold = true
		}
	}
	if !foundFold {
		t.Fatalf("add not folded to movi t2, 12: %v", rep.Insts)
	}
}

func TestDeadFlagElimination(t *testing.T) {
	seq := []isa.Inst{
		ins(isa.OpSlt, t3, isa.RegA0, isa.RegA1, 0), // dead: t3 redefined below
		ins(isa.OpSltU, t3, isa.RegA1, isa.RegA0, 0),
		ins(isa.OpHalt, 0, 0, 0, 0),
	}
	rep := diffCheck(t, New(Config{DeadFlag: true}), seq, nil, 2)
	if len(rep.Insts) != 2 {
		t.Fatalf("dead compare kept: %v", rep.Insts)
	}
	var n PassNote
	for _, note := range rep.Notes {
		if note.Removed {
			n = note
		}
	}
	if n.Pass != "deadflag" || n.Src != 0 {
		t.Fatalf("wrong attribution: %+v", rep.Notes)
	}
	// With only DeadCode enabled the compare must survive.
	rep = New(Config{DeadCode: true}).Explain(seq, nil)
	if rep.Changed {
		t.Fatalf("deadcode pass removed a compare: %v", rep.Insts)
	}
}

func TestRedundantLoadElimination(t *testing.T) {
	seq := []isa.Inst{
		ins(isa.OpLd, t0, sp, 0, 8),
		ins(isa.OpLd, t1, sp, 0, 8), // same address, no intervening store
		ins(isa.OpAdd, t2, t0, t1, 0),
		ins(isa.OpSd, 0, sp, t2, 16),
		ins(isa.OpHalt, 0, 0, 0, 0),
	}
	rep := diffCheck(t, New(Config{LoadElim: true}), seq, nil, 3)
	loads := 0
	for _, in := range rep.Insts {
		if isa.Classify(in.Op) == isa.ClassLoad {
			loads++
		}
	}
	if loads != 1 {
		t.Fatalf("want 1 load after elimination, got %d: %v", loads, rep.Insts)
	}

	// An intervening store invalidates the available load.
	blocked := []isa.Inst{
		ins(isa.OpLd, t0, sp, 0, 8),
		ins(isa.OpSd, 0, sp, t0, 8),
		ins(isa.OpLd, t1, sp, 0, 8),
		ins(isa.OpAdd, t2, t0, t1, 0),
		ins(isa.OpSd, 0, sp, t2, 16),
		ins(isa.OpHalt, 0, 0, 0, 0),
	}
	rep = New(Config{LoadElim: true}).Explain(blocked, nil)
	loads = 0
	for _, in := range rep.Insts {
		if isa.Classify(in.Op) == isa.ClassLoad {
			loads++
		}
	}
	if loads != 2 {
		t.Fatalf("load collapsed across a store: %v", rep.Insts)
	}
}

func TestLoadsNeverDeadCodeEliminated(t *testing.T) {
	seq := []isa.Inst{
		ins(isa.OpLd, t0, sp, 0, 8), // result dead — but the fault must be kept
		ins(isa.OpMovI, t0, 0, 0, 1),
		ins(isa.OpHalt, 0, 0, 0, 0),
	}
	rep := diffCheck(t, New(All()), seq, nil, 4)
	loads := 0
	for _, in := range rep.Insts {
		if isa.Classify(in.Op) == isa.ClassLoad {
			loads++
		}
	}
	if loads != 1 {
		t.Fatalf("dead load eliminated (fault behavior changed): %v", rep.Insts)
	}
}

func TestPinnedInstructionsUntouched(t *testing.T) {
	// movi with a relocation note (an absolute address the loader patched):
	// must stay verbatim even though it looks like a foldable constant.
	seq := []isa.Inst{
		ins(isa.OpMovI, t0, 0, 0, 0x1000),
		ins(isa.OpAddI, t1, t0, 0, 8), // must not fold t0's "constant"
		ins(isa.OpLd, t2, t1, 0, 0),
		ins(isa.OpSd, 0, sp, t2, 0),
		ins(isa.OpHalt, 0, 0, 0, 0),
	}
	pinned := map[uint16]bool{0: true}
	rep := diffCheck(t, New(All()), seq, pinned, 5)
	for k, in := range rep.Insts {
		if rep.SrcIdx != nil && rep.SrcIdx[k] == 0 || !rep.Changed && k == 0 {
			if in != seq[0] {
				t.Fatalf("pinned instruction rewritten: %v", in)
			}
		}
		if in.Op == isa.OpAddI && in.Rd == t1 && in.Rs1 == 0 {
			t.Fatalf("constant from a pinned movi was propagated: %v", rep.Insts)
		}
		if in.Op == isa.OpMovI && in.Rd == t1 {
			t.Fatalf("pinned constant folded into movi t1: %v", rep.Insts)
		}
	}
}

func TestLdPCNeverFolded(t *testing.T) {
	seq := []isa.Inst{
		ins(isa.OpLdPC, t0, 0, 0, 64),
		ins(isa.OpAddI, t1, t0, 0, 0), // copy, fine — but no constant may appear
		ins(isa.OpSd, 0, sp, t1, 0),
		ins(isa.OpHalt, 0, 0, 0, 0),
	}
	rep := diffCheck(t, New(All()), seq, nil, 6)
	for _, in := range rep.Insts {
		if in.Op == isa.OpMovI && (in.Rd == t0 || in.Rd == t1) {
			t.Fatalf("position-dependent ldpc folded to a constant: %v", rep.Insts)
		}
	}
}

func TestCheckerRejectsMiscompiledTrace(t *testing.T) {
	cfg := All()
	// Deliberate miscompile: corrupt the first surviving ALU immediate.
	cfg.Mutate = func(insts []isa.Inst) {
		for i := range insts {
			if insts[i].Op == isa.OpMovI {
				insts[i].Imm++
				return
			}
		}
	}
	tr := &vm.Trace{Start: 0x40_0000, Module: -1, Insts: []isa.Inst{
		ins(isa.OpMovI, t0, 0, 0, 5),
		ins(isa.OpMovI, t1, 0, 0, 7),
		ins(isa.OpAdd, t2, t0, t1, 0),
		ins(isa.OpSub, t0, t2, t1, 0),
		ins(isa.OpSd, 0, sp, t2, 0),
		ins(isa.OpHalt, 0, 0, 0, 0),
	}}
	orig := append([]isa.Inst(nil), tr.Insts...)
	reg := metrics.NewRegistry()
	o := New(cfg)
	o.BindMetrics(reg)
	out := o.Optimize(tr)
	if !out.Rejected || out.Level != 0 {
		t.Fatalf("miscompile accepted: %+v", out)
	}
	if tr.OptLevel != 0 || tr.SrcIdx != nil || len(tr.Insts) != len(orig) {
		t.Fatalf("rejected trace was mutated: %+v", tr)
	}
	for i := range orig {
		if tr.Insts[i] != orig[i] {
			t.Fatalf("rejected trace instruction %d changed", i)
		}
	}
	snap := reg.Snapshot()
	if got, ok := snap.Value("pcc_guestopt_reject_total"); !ok || got != 1 {
		t.Fatalf("pcc_guestopt_reject_total = %v (ok=%v), want 1", got, ok)
	}
}

func TestOptimizeSetsTraceMetadata(t *testing.T) {
	tr := &vm.Trace{Start: 0x40_0000, Module: -1, Insts: []isa.Inst{
		ins(isa.OpMovI, t0, 0, 0, 5),
		ins(isa.OpMovI, t0, 0, 0, 6), // first movi dead
		ins(isa.OpSd, 0, sp, t0, 0),
		ins(isa.OpHalt, 0, 0, 0, 0),
	}}
	o := New(All())
	out := o.Optimize(tr)
	if out.Level != 1 || out.Removed != 1 || out.Rejected {
		t.Fatalf("outcome %+v", out)
	}
	if tr.OptLevel != 1 || tr.OrigLen != 4 || len(tr.Insts) != 3 {
		t.Fatalf("metadata %d/%d/%d", tr.OptLevel, tr.OrigLen, len(tr.Insts))
	}
	if len(tr.SrcIdx) != 3 || tr.SrcIdx[0] != 1 || tr.SrcIdx[2] != 3 {
		t.Fatalf("source map %v", tr.SrcIdx)
	}
	if tr.PC(0) != tr.Start+8 || tr.OrigInsts() != 4 {
		t.Fatalf("PC/OrigInsts wrong: %#x %d", tr.PC(0), tr.OrigInsts())
	}
	// Idempotence: a persisted optimized trace passes through untouched.
	if out := o.Optimize(tr); out.Level != 0 || out.Rejected {
		t.Fatalf("re-optimized a persisted trace: %+v", out)
	}
}

func TestNoteRemapping(t *testing.T) {
	tr := &vm.Trace{Start: 0x40_0000, Module: 0, Insts: []isa.Inst{
		ins(isa.OpMovI, t0, 0, 0, 1), // dead (redefined)
		ins(isa.OpMovI, t0, 0, 0, 2),
		ins(isa.OpMovI, t3, 0, 0, 0x8000), // pinned: loader-patched absolute
		ins(isa.OpLd, t1, t3, 0, 0),
		ins(isa.OpSd, 0, sp, t1, 0),
		ins(isa.OpSd, 0, sp, t0, 8),
		ins(isa.OpHalt, 0, 0, 0, 0),
	}, Notes: []vm.RelocNote{{InstIdx: 2}}}
	out := New(All()).Optimize(tr)
	if out.Level != 1 {
		t.Fatalf("outcome %+v", out)
	}
	idx := tr.Notes[0].InstIdx
	if tr.SrcIdx[idx] != 2 || tr.Insts[idx] != ins(isa.OpMovI, t3, 0, 0, 0x8000) {
		t.Fatalf("note remap wrong: note at %d, srcIdx %v", idx, tr.SrcIdx)
	}
}

// ---------------------------------------------------------------------------
// Randomized differential property: every engine rewrite over arbitrary
// well-formed sequences is accepted by the checker and observably
// equivalent under concrete execution.

func randSeq(rng *rand.Rand) []isa.Inst { return randSeqN(rng, 4+rng.Intn(24)) }

// randSeqN generates a well-formed sequence with an n-instruction body.
func randSeqN(rng *rand.Rand, n int) []isa.Inst {
	regs := []uint8{0, t0, t1, t2, t3, isa.RegA0, isa.RegA1, sp}
	alu := []isa.Op{
		isa.OpMovI, isa.OpMovHI, isa.OpLdPC, isa.OpAdd, isa.OpSub, isa.OpMul,
		isa.OpDiv, isa.OpDivU, isa.OpRem, isa.OpRemU, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpSlt, isa.OpSltU,
		isa.OpAddI, isa.OpMulI, isa.OpAndI, isa.OpOrI, isa.OpXorI,
		isa.OpSllI, isa.OpSrlI, isa.OpSraI, isa.OpSltI, isa.OpSltUI, isa.OpNop,
	}
	imms := []int32{0, 1, -1, 5, 63, 64, 0x7fff, -0x8000, math.MaxInt32, math.MinInt32}
	var seq []isa.Inst
	pick := func() uint8 { return regs[rng.Intn(len(regs))] }
	for len(seq) < n {
		switch rng.Intn(10) {
		case 0:
			seq = append(seq, ins(isa.OpLd, pick(), pick(), 0, imms[rng.Intn(len(imms))]))
		case 1:
			seq = append(seq, ins(isa.OpSd, 0, pick(), pick(), imms[rng.Intn(len(imms))]))
		case 2:
			ops := []isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBgeU}
			seq = append(seq, ins(ops[rng.Intn(len(ops))], 0, pick(), pick(), int32(8*(1+rng.Intn(8)))))
		default:
			seq = append(seq, ins(alu[rng.Intn(len(alu))], pick(), pick(), pick(), imms[rng.Intn(len(imms))]))
		}
	}
	switch rng.Intn(3) {
	case 0:
		seq = append(seq, ins(isa.OpHalt, 0, 0, 0, 0))
	case 1:
		seq = append(seq, ins(isa.OpJal, isa.RegRA, 0, 0, 256))
	} // case 2: fall-through
	return seq
}

// randTrace draws from the shapes that stress an Optimizer's reused scratch
// differently: ordinary traces, ones far longer than the default limit (the
// arena, the id table and the work list grow), one- to three-instruction
// ones right after (every buffer and bitset is now oversized), heavily
// pinned ones, and ones where every instruction is dead.
func randTrace(rng *rand.Rand) ([]isa.Inst, map[uint16]bool) {
	var pinned map[uint16]bool
	switch rng.Intn(8) {
	case 0:
		return randSeqN(rng, 100+rng.Intn(400)), nil
	case 1:
		return randSeqN(rng, 1+rng.Intn(3)), nil
	case 2:
		seq := randSeq(rng)
		pinned = map[uint16]bool{}
		for i := range seq {
			if rng.Intn(3) == 0 {
				pinned[uint16(i)] = true
			}
		}
		return seq, pinned
	case 3:
		seq := make([]isa.Inst, 1+rng.Intn(40))
		for i := range seq {
			if rng.Intn(2) == 0 {
				seq[i] = ins(isa.OpAddI, 0, t0, 0, int32(i)) // writes r0
			} // else nop
		}
		return seq, nil
	}
	seq := randSeq(rng)
	if rng.Intn(4) == 0 {
		pinned = map[uint16]bool{uint16(rng.Intn(len(seq))): true}
	}
	return seq, pinned
}

func sameReport(a, b *Report) bool {
	return a.Changed == b.Changed && (a.Err == nil) == (b.Err == nil) &&
		slices.Equal(a.Insts, b.Insts) && slices.Equal(a.SrcIdx, b.SrcIdx) && slices.Equal(a.Notes, b.Notes)
}

// TestDifferentialRandomSequences drives ONE Optimizer over every sequence,
// as a VM (Optimize) and pcc-objdump (Explain) do, and then asks a fresh
// Optimizer about each sequence alone: any difference is scratch state
// leaking from one trace into the next — a stale intern slot, an available
// load surviving a reset, a bitset sized for the previous trace.
func TestDifferentialRandomSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC0FFEE))
	shared := New(All())
	changed := 0
	for trial := 0; trial < 600; trial++ {
		seq, pinned := randTrace(rng)
		rep := diffCheck(t, shared, seq, pinned, int64(trial))
		if rep.Changed {
			changed++
		}
		if fresh := New(All()).Explain(seq, pinned); !sameReport(rep, fresh) {
			t.Fatalf("trial %d: the shared optimizer and a fresh one disagree\nseq: %v\nshared: %v %v\nfresh:  %v %v",
				trial, seq, rep.Insts, rep.Err, fresh.Insts, fresh.Err)
		}
		// The same through Optimize, which owns different result slices.
		tr := &vm.Trace{Start: 0x40_0000, Module: -1, Insts: append([]isa.Inst(nil), seq...)}
		for s := range pinned {
			tr.Notes = append(tr.Notes, vm.RelocNote{InstIdx: s})
		}
		out := shared.Optimize(tr)
		if out.Rejected || (out.Level > 0) != rep.Changed || !slices.Equal(tr.Insts, rep.Insts) || !slices.Equal(tr.SrcIdx, rep.SrcIdx) {
			t.Fatalf("trial %d: Optimize %+v %v disagrees with Explain %v", trial, out, tr.Insts, rep.Insts)
		}
		for _, n := range tr.Notes {
			if out.Level > 0 && !pinned[tr.SrcIdx[n.InstIdx]] {
				t.Fatalf("trial %d: note remapped to %d, source %d is not pinned", trial, n.InstIdx, tr.SrcIdx[n.InstIdx])
			}
		}
	}
	if changed < 150 {
		t.Fatalf("optimizer changed only %d/600 random sequences — passes are not firing", changed)
	}
}

// TestTraceLengthLimit: SrcIdx entries and OrigLen are uint16, so 65 535
// instructions is the longest trace the optimizer takes on. One more is
// declined as unchanged — not wrapped, rewritten and then counted as a
// prover rejection.
func TestTraceLengthLimit(t *testing.T) {
	build := func(n int) *vm.Trace {
		insts := make([]isa.Inst, n)
		for i := range insts[:n-1] {
			insts[i] = ins(isa.OpMovI, t0, 0, 0, int32(i)) // all but the last are dead
		}
		insts[n-1] = ins(isa.OpHalt, 0, 0, 0, 0)
		return &vm.Trace{Start: 0x40_0000, Module: -1, Insts: insts}
	}
	reg := metrics.NewRegistry()
	o := New(All())
	o.BindMetrics(reg)

	tr := build(math.MaxUint16)
	if out := o.Optimize(tr); out.Level != 1 || out.Removed != math.MaxUint16-2 {
		t.Fatalf("65535-instruction trace: %+v", out)
	}
	if tr.OrigLen != math.MaxUint16 || len(tr.Insts) != 2 || tr.SrcIdx[0] != math.MaxUint16-2 || tr.SrcIdx[1] != math.MaxUint16-1 {
		t.Fatalf("65535-instruction trace: OrigLen %d, %d instructions, source map %v", tr.OrigLen, len(tr.Insts), tr.SrcIdx)
	}

	tr = build(math.MaxUint16 + 1)
	if out := o.Optimize(tr); out != (vm.OptOutcome{}) || tr.OptLevel != 0 || len(tr.Insts) != math.MaxUint16+1 {
		t.Fatalf("65536-instruction trace not declined: %+v", out)
	}
	if rep := o.Explain(tr.Insts, nil); rep.Changed || rep.Err != nil {
		t.Fatalf("Explain took on a 65536-instruction sequence: changed %v, err %v", rep.Changed, rep.Err)
	}
	snap := reg.Snapshot()
	if got, _ := snap.Value("pcc_guestopt_reject_total"); got != 0 {
		t.Fatalf("pcc_guestopt_reject_total = %v after an over-long trace, want 0", got)
	}
	if got, _ := snap.Value("pcc_guestopt_traces_total", "unchanged"); got != 1 {
		t.Fatalf("pcc_guestopt_traces_total{outcome=unchanged} = %v, want 1", got)
	}

	// The next ordinary trace finds the scratch the long ones grew in order.
	diffCheck(t, o, []isa.Inst{
		ins(isa.OpMovI, t0, 0, 0, 5), ins(isa.OpMovI, t0, 0, 0, 6),
		ins(isa.OpSd, 0, sp, t0, 0), ins(isa.OpHalt, 0, 0, 0, 0),
	}, nil, 9)
}

// ---------------------------------------------------------------------------
// Encode/decode round trip: optimized instructions must still be valid ISA.

func TestOptimizedSequencesStayDecodable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		rep := New(All()).Explain(randSeq(rng), nil)
		for _, in := range rep.Insts {
			var b [8]byte
			in.Encode(b[:])
			got, err := isa.Decode(b[:])
			if err != nil || got != in {
				t.Fatalf("rewritten instruction does not round-trip: %v (%v)", in, err)
			}
			_ = binary.LittleEndian // keep import if Encode changes
		}
	}
}
