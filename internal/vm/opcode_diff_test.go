package vm_test

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"persistcc/internal/isa"
	"persistcc/internal/loader"
	"persistcc/internal/replay"
	"persistcc/internal/testprog"
	"persistcc/internal/vm"
)

// The opcode semantics exist twice: in exec, which only the interpreter
// calls, and inline in execTrace. This file is what keeps the two copies
// honest: for every opcode, at the operands where an implementation is most
// likely to be wrong, the same guest code runs through the interpreter and
// through the trace executor in each of its configurations (plain, analysis
// ops before every instruction, exec log, SMC detection), and everything
// observable must agree.

const (
	heap = loader.DefaultHeapBase // guest scratch memory: 16 pages
	sink = heap + 0xF000          // where programs park results, last heap page
	// Registers the generated programs use by convention.
	rRes  = 29 // result of the instruction under test
	rSink = 30 // sink pointer
	rBase = 20 // address operand
	rVal  = 21 // store operand
	rOp0  = 8  // first of the operand registers r8..r18
)

var (
	edgeVals = []uint64{0, 1, math.MaxUint64, 1 << 63, math.MaxInt64, 2, 63, 64, 65, 0xFFFFFFFF, 0x80000000}
	edgeImms = []int32{0, 1, -1, math.MinInt32, math.MaxInt32, 63, 64, 65}
)

// guest accumulates the instructions of one generated program.
type guest struct {
	insts   []isa.Inst
	sinkOff int32
}

func (g *guest) emit(op isa.Op, rd, rs1, rs2 uint8, imm int32) {
	g.insts = append(g.insts, isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm})
}

// li loads a 64-bit constant.
func (g *guest) li(rd uint8, v uint64) {
	g.emit(isa.OpMovI, rd, 0, 0, int32(uint32(v)))
	g.emit(isa.OpMovHI, rd, rd, 0, int32(uint32(v>>32)))
}

// save parks a register in the next sink slot.
func (g *guest) save(r uint8) {
	g.emit(isa.OpSd, 0, rSink, r, g.sinkOff)
	g.sinkOff += 8
}

// exit ends the program through the exit syscall, with the last result as
// the exit code.
func (g *guest) exit() {
	g.emit(isa.OpAddI, isa.RegA1, rRes, 0, 0)
	g.emit(isa.OpMovI, isa.RegA0, 0, 0, isa.SysExit)
	g.emit(isa.OpSys, 0, 0, 0, 0)
}

func newGuest() *guest {
	g := &guest{}
	g.li(rSink, sink)
	return g
}

// load builds a process whose entry jumps to g's instructions, which live in
// the data segment (raw words: any encodable instruction, not only what the
// assembler has a mnemonic for).
func (g *guest) load(t testing.TB) *loader.Process {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(".text\n.global _start\n_start:\n\tla t0, body\n\tjr t0\n.data\n.align 8\nbody:\n")
	for _, in := range g.insts {
		fmt.Fprintf(&sb, "\t.word64 %d\n", in.EncodeWord())
	}
	exe, libs, err := testprog.Build("opdiff", sb.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := testprog.Load(exe, libs, loader.Config{HeapSize: 64 << 10, StackSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// everyInst plants a counting op before every instruction (keyed by the
// instruction's address), a memory-reference op beside it on loads and
// stores (two ops at one position), and one op after the last instruction.
type everyInst struct{}

const trailingKey = 1 << 40

func (everyInst) Name() string       { return "every-inst" }
func (everyInst) Version() string    { return "1" }
func (everyInst) ConfigHash() uint64 { return 0 }
func (everyInst) Instrument(tc *vm.TraceContext) {
	insts := tc.Insts()
	for i, in := range insts {
		tc.InsertBefore(i, vm.OpKindCount, uint64(tc.PCOf(i)), 1)
		if in.IsMem() {
			tc.InsertBefore(i, vm.OpKindMemRef, 0, 1)
		}
	}
	tc.InsertBefore(len(insts), vm.OpKindCount, trailingKey, 1)
}

// outcome is everything a run leaves behind that the modes must agree on,
// and the VM that left it.
type outcome struct {
	v         *vm.VM
	regs      [isa.NumRegs]uint64
	mem       [32]byte
	exit      uint64
	output    string
	err       string
	insts     uint64
	execTicks uint64
	log       string
	counters  map[uint64]uint64
	memRefs   uint64
}

type diffMode struct {
	name   string
	native bool
	logged bool // exec log attached
	ops    bool // everyInst attached
	opts   []vm.Option
}

var (
	modeNative = diffMode{name: "native", native: true, logged: true}
	modeOps    = diffMode{name: "cached+ops", ops: true, opts: []vm.Option{vm.WithTool(everyInst{})}}
	modeSMC    = diffMode{name: "cached+smc", opts: []vm.Option{vm.WithSMCDetection()}}
	// cachedModes are the executor's configurations, each held to modeNative.
	cachedModes = []diffMode{
		{name: "cached"},
		modeOps,
		{name: "cached+execlog", logged: true},
		modeSMC,
	}
)

func runMode(t testing.TB, g *guest, m diffMode, extra ...vm.Option) outcome {
	t.Helper()
	var log bytes.Buffer
	opts := append(append([]vm.Option(nil), m.opts...), extra...)
	if m.logged {
		opts = append(opts, vm.WithExecLog(&log, math.MaxUint64))
	}
	v := vm.New(g.load(t), opts...)
	var err error
	if m.native {
		_, err = v.RunNative()
	} else {
		_, err = v.Run()
	}
	st := v.Stats()
	o := outcome{
		v: v, mem: replay.MemSum(v), output: string(v.Output()), insts: st.InstsExecuted,
		execTicks: st.ExecTicks, log: log.String(), counters: st.Counters, memRefs: st.MemRefs,
	}
	for i := range o.regs {
		o.regs[i] = v.Reg(uint8(i))
	}
	if err != nil {
		o.err = err.Error()
	} else {
		o.exit = v.Reg(isa.RegA1)
	}
	return o
}

// diffAllModes runs g through every mode and holds each to the interpreter.
func diffAllModes(t *testing.T, g *guest, wantErr string, extra ...vm.Option) outcome {
	t.Helper()
	ref := runMode(t, g, modeNative, extra...)
	if (wantErr == "") != (ref.err == "") || !strings.Contains(ref.err, wantErr) {
		t.Fatalf("native: error %q, want one containing %q", ref.err, wantErr)
	}
	if ref.insts == 0 {
		t.Fatal("native: nothing executed")
	}
	cost := vm.DefaultCostModel()
	if ref.execTicks != ref.insts*cost.NativeExec {
		t.Errorf("native: ExecTicks %d for %d instructions", ref.execTicks, ref.insts)
	}
	// Per-address execution counts, from the interpreter's log. An
	// instruction that faults is logged (and its ops run) but not counted.
	perPC := make(map[uint64]uint64)
	var memInsts uint64
	for _, line := range strings.Split(strings.TrimSuffix(ref.log, "\n"), "\n") {
		pc, err := strconv.ParseUint(line[:8], 16, 32)
		if err != nil {
			t.Fatalf("exec log line %q: %v", line, err)
		}
		perPC[pc]++
		switch mn := strings.Fields(line[8:])[0]; mn[0] {
		case 'l':
			if mn != "ldpc" {
				memInsts++
			}
		case 's':
			if len(mn) == 2 {
				memInsts++
			}
		}
	}
	for _, m := range cachedModes {
		got := runMode(t, g, m, extra...)
		if got.err != ref.err {
			t.Errorf("%s: error %q, native %q", m.name, got.err, ref.err)
		}
		if got.regs != ref.regs {
			for i := range got.regs {
				if got.regs[i] != ref.regs[i] {
					t.Errorf("%s: r%d = %#x, native %#x", m.name, i, got.regs[i], ref.regs[i])
				}
			}
		}
		if got.mem != ref.mem {
			t.Errorf("%s: memory image differs from native", m.name)
		}
		if got.exit != ref.exit || got.output != ref.output {
			t.Errorf("%s: exit %d output %q, native %d %q", m.name, got.exit, got.output, ref.exit, ref.output)
		}
		if got.insts != ref.insts {
			t.Errorf("%s: %d instructions executed, native %d", m.name, got.insts, ref.insts)
		}
		if got.execTicks != got.insts*cost.CacheExec {
			t.Errorf("%s: ExecTicks %d for %d instructions", m.name, got.execTicks, got.insts)
		}
		if m.logged && got.log != ref.log {
			t.Errorf("%s: exec log differs from native\n got: %q\nwant: %q", m.name, got.log, ref.log)
		}
		if m.ops {
			delete(got.counters, trailingKey)
			if len(got.counters) != len(perPC) {
				t.Errorf("%s: ops counted %d addresses, native executed %d", m.name, len(got.counters), len(perPC))
			}
			for pc, n := range perPC {
				if got.counters[pc] != n {
					t.Errorf("%s: op before %#x ran %d times, instruction executed %d times", m.name, pc, got.counters[pc], n)
				}
			}
			if got.memRefs != memInsts {
				t.Errorf("%s: %d memory-reference ops, %d loads and stores executed", m.name, got.memRefs, memInsts)
			}
		}
	}
	return ref
}

// operands loads the edge values into r8.. and returns their registers.
func (g *guest) operands() []uint8 {
	regs := make([]uint8, len(edgeVals))
	for i, v := range edgeVals {
		regs[i] = rOp0 + uint8(i)
		g.li(regs[i], v)
	}
	return regs
}

func TestOpcodeDiffALU(t *testing.T) {
	regReg := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpDivU, isa.OpRem, isa.OpRemU,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpSlt, isa.OpSltU}
	for _, op := range regReg {
		t.Run(op.String(), func(t *testing.T) {
			g := newGuest()
			regs := g.operands()
			for _, a := range regs {
				for _, b := range regs {
					g.emit(op, rRes, a, b, 0)
					g.save(rRes)
				}
			}
			g.li(rRes, 77)
			g.emit(op, 0, regs[1], regs[2], 0) // rd = r0: discarded
			g.save(0)
			g.emit(op, rRes, rRes, rRes, 0) // rd = rs1 = rs2
			g.save(rRes)
			g.exit()
			diffAllModes(t, g, "")
		})
	}
	regImm := []isa.Op{isa.OpAddI, isa.OpMulI, isa.OpAndI, isa.OpOrI, isa.OpXorI,
		isa.OpSllI, isa.OpSrlI, isa.OpSraI, isa.OpSltI, isa.OpSltUI, isa.OpMovHI}
	for _, op := range regImm {
		t.Run(op.String(), func(t *testing.T) {
			g := newGuest()
			regs := g.operands()
			for _, a := range regs {
				for _, imm := range edgeImms {
					g.emit(op, rRes, a, 0, imm)
					g.save(rRes)
				}
			}
			g.emit(op, 0, regs[1], 0, 5)
			g.save(0)
			g.emit(op, rRes, rRes, 0, 3)
			g.save(rRes)
			g.exit()
			diffAllModes(t, g, "")
		})
	}
	t.Run("movi-ldpc-nop", func(t *testing.T) {
		g := newGuest()
		for _, imm := range edgeImms {
			g.emit(isa.OpMovI, rRes, 0, 0, imm)
			g.save(rRes)
			g.emit(isa.OpLdPC, rRes, 0, 0, imm)
			g.save(rRes)
			g.emit(isa.OpNop, rRes, rRes, rRes, imm) // operand fields are ignored
			g.save(rRes)
		}
		g.emit(isa.OpMovI, 0, 0, 0, 9)
		g.emit(isa.OpLdPC, 0, 0, 0, 9)
		g.save(0)
		g.exit()
		diffAllModes(t, g, "")
	})
}

var (
	loadOps  = []isa.Op{isa.OpLb, isa.OpLbU, isa.OpLh, isa.OpLhU, isa.OpLw, isa.OpLwU, isa.OpLd}
	storeOps = []isa.Op{isa.OpSb, isa.OpSh, isa.OpSw, isa.OpSd}
)

// access emits op against addr, reached as base register + displacement
// with the displacement varied.
func (g *guest) access(op isa.Op, addr uint64, k int) {
	imm := []int32{0, 16, -16, 2047}[k%4]
	g.li(rBase, addr-uint64(int64(imm)))
	if isa.Classify(op) == isa.ClassLoad {
		g.emit(op, rRes, rBase, 0, imm)
	} else {
		g.emit(op, 0, rBase, rVal, imm)
	}
}

func TestOpcodeDiffLoads(t *testing.T) {
	// Page 0 and 1 of the heap are written around their boundary, page 2
	// only in its last doubleword, pages 3 and 4 never.
	seed := func(g *guest) {
		for i, v := range []uint64{0x8899AABBCCDDEEFF, 0xF1E2D3C4B5A69788, 0x8091A2B3C4D5E6F7, 0x7F6E5D4C3B2A1908} {
			g.li(rVal, v)
			g.li(rBase, heap+0xFF0+uint64(i)*8)
			g.emit(isa.OpSd, 0, rBase, rVal, 0)
		}
		g.li(rVal, 0xFFEEDDCCBBAA9988)
		g.li(rBase, heap+0x2FF8)
		g.emit(isa.OpSd, 0, rBase, rVal, 0)
	}
	addrs := []uint64{
		heap + 0xFF0, heap + 0xFF8 /* last doubleword of a page */, heap + 0xFF9, /* crosses */
		heap + 0xFFC, heap + 0xFFF /* last byte */, heap + 0x1000, heap + 0x1003, /* unaligned */
		heap + 0x2FFC /* written page into never-written page */, heap + 0x3000, /* never written */
		heap + 0x3FFF /* never-written page into never-written page */, heap + 0x4008,
		1<<32 + heap + 0xFF8, /* the effective address is 32 bits */
	}
	for _, op := range loadOps {
		t.Run(op.String(), func(t *testing.T) {
			g := newGuest()
			seed(g)
			for k, addr := range addrs {
				g.access(op, addr, k)
				g.save(rRes)
			}
			g.li(rBase, heap+0xFF8)
			g.emit(op, 0, rBase, 0, 0) // rd = r0
			g.save(0)
			g.emit(op, rBase, rBase, 0, 0) // rd = rs1
			g.save(rBase)
			g.exit()
			diffAllModes(t, g, "")
		})
	}
	// Faults: unmapped, the top of the address space, and the last mapped
	// bytes running into unmapped memory. State up to the fault must agree
	// and the faulting instruction must not count.
	faults := []uint64{0x1000_0000, 0xFFFF_FFFC, heap + 0xFFFF}
	for _, op := range loadOps {
		for _, addr := range faults {
			if addr == heap+0xFFFF && (op == isa.OpLb || op == isa.OpLbU) {
				continue // one byte there is mapped
			}
			t.Run(fmt.Sprintf("%s-fault-%#x", op, addr), func(t *testing.T) {
				g := newGuest()
				seed(g)
				g.li(rRes, 42)
				g.access(op, addr, 1)
				g.save(rRes)
				g.exit()
				ref := diffAllModes(t, g, "fault")
				if ref.regs[rRes] != 42 {
					t.Errorf("a faulting load wrote its destination: %#x", ref.regs[rRes])
				}
			})
		}
	}
}

func TestOpcodeDiffStores(t *testing.T) {
	for k, op := range storeOps {
		t.Run(op.String(), func(t *testing.T) {
			g := newGuest()
			g.li(rVal, 0x8123456789ABCDEF)
			region := heap + uint64(k)*0x3000 // three pages per opcode, none written yet
			for j, off := range []uint64{0xFF0, 0xFF8, 0xFF9, 0xFFF, 0x1FFD, 0x1FFF, 0x2003} {
				g.access(op, region+off, j)
			}
			g.access(op, 1<<32+region+0x2010, 0)
			// Read back through the other widths.
			g.li(rBase, region+0xFF8)
			for _, ld := range loadOps {
				g.emit(ld, rRes, rBase, 0, 1)
				g.save(rRes)
			}
			g.exit()
			diffAllModes(t, g, "")
		})
	}
	t.Run("into-code", func(t *testing.T) {
		// The program rewrites an instruction of its own that no trace has
		// reached yet: every mode runs the new one, and under SMC detection
		// the store flushes the cache out from under the running trace.
		const ahead = 2*vm.MaxTraceInsts + 3
		g := newGuest()
		g.li(rRes, 0)
		g.li(rVal, isa.Inst{Op: isa.OpAddI, Rd: rRes, Rs1: rRes, Imm: 5}.EncodeWord())
		g.emit(isa.OpLdPC, rBase, 0, 0, 0)
		g.emit(isa.OpSd, 0, rBase, rVal, ahead*isa.InstSize)
		for i := 2; i < ahead; i++ {
			g.emit(isa.OpNop, 0, 0, 0, 0)
		}
		g.emit(isa.OpAddI, rRes, rRes, 0, 1) // replaced before it is fetched
		g.exit()
		ref := diffAllModes(t, g, "")
		if ref.exit != 5 {
			t.Errorf("exit %d, want 5 from the rewritten instruction", ref.exit)
		}
		if smc := runMode(t, g, modeSMC); smc.v.Stats().SMCFlushes != 1 {
			t.Errorf("%d SMC flushes for one store into a code page", smc.v.Stats().SMCFlushes)
		}
	})
	// A store that faults writes nothing, whichever page it faults on.
	faults := []uint64{0x1000_0000, 0xFFFF_FFFC, heap + 0xFFFF}
	for _, op := range storeOps {
		for _, addr := range faults {
			if addr == heap+0xFFFF && op == isa.OpSb {
				continue
			}
			t.Run(fmt.Sprintf("%s-fault-%#x", op, addr), func(t *testing.T) {
				g := newGuest()
				g.li(rVal, 0x8123456789ABCDEF)
				g.li(rBase, heap+0xFFF8)
				g.emit(isa.OpSd, 0, rBase, rVal, 0) // the bytes the crossing store must leave alone
				g.emit(isa.OpXorI, rVal, rVal, 0, -1)
				g.access(op, addr, 2)
				g.exit()
				ref := diffAllModes(t, g, "fault")
				if got, err := ref.v.Process().AS.ReadUint(heap+0xFFF8, 8); err != nil || got != 0x8123456789ABCDEF {
					t.Errorf("after the faulting store the last heap doubleword reads %#x, %v", got, err)
				}
			})
		}
	}
}

func TestOpcodeDiffControl(t *testing.T) {
	branches := []isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltU, isa.OpBgeU}
	for _, op := range branches {
		t.Run(op.String(), func(t *testing.T) {
			g := newGuest()
			regs := g.operands()[:5] // 0, 1, -1, MinInt64, MaxInt64
			g.li(rRes, 0)
			for _, a := range regs {
				for _, b := range regs {
					g.emit(op, 7, a, b, 16) // taken: skip the ori (the rd field means nothing)
					g.emit(isa.OpOrI, rRes, rRes, 0, 1)
					g.emit(isa.OpSllI, rRes, rRes, 0, 1)
				}
			}
			g.save(rRes)
			// Backward: a counted loop.
			g.li(rBase, 5)
			g.emit(isa.OpAddI, rBase, rBase, 0, -1)
			g.emit(isa.OpAddI, rRes, rRes, 0, 3)
			g.emit(isa.OpBne, 0, rBase, 0, -16)
			g.save(rRes)
			g.exit()
			diffAllModes(t, g, "")
		})
	}
	t.Run("jal-jalr", func(t *testing.T) {
		g := newGuest()
		g.li(rRes, 0)
		skipped := func() { g.emit(isa.OpAddI, rRes, rRes, 0, 1000) }
		g.emit(isa.OpJal, isa.RegRA, 0, 0, 16)
		skipped()
		g.save(isa.RegRA)
		g.emit(isa.OpJal, 0, 0, 0, 16) // rd = r0: no link
		skipped()
		g.save(0)
		g.emit(isa.OpLdPC, rBase, 0, 0, 0)
		g.emit(isa.OpJalr, isa.RegRA, rBase, 0, 24) // over the next instruction
		skipped()
		g.save(isa.RegRA)
		g.emit(isa.OpLdPC, rBase, 0, 0, 0)
		g.emit(isa.OpJalr, rBase, rBase, 0, 24) // rd = rs1: the target is read first
		skipped()
		g.save(rBase)
		g.emit(isa.OpLdPC, rBase, 0, 0, 0)
		g.emit(isa.OpMovHI, rBase, rBase, 0, 1) // bits above 32 do not reach the target
		g.emit(isa.OpJalr, 0, rBase, 0, 32)
		skipped()
		g.save(0)
		// The same return target twice, the second time from the table.
		for i := 0; i < 2; i++ {
			g.emit(isa.OpLdPC, rBase, 0, 0, 0)
			g.emit(isa.OpJalr, isa.RegRA, rBase, 0, 24)
			skipped()
		}
		g.exit()
		ref := diffAllModes(t, g, "")
		if ref.regs[rRes] != 0 {
			t.Errorf("a skipped instruction ran: %d", ref.regs[rRes])
		}
	})
	t.Run("jalr-unmapped", func(t *testing.T) {
		g := newGuest()
		g.li(rBase, 0x1000_0000)
		g.emit(isa.OpJalr, isa.RegRA, rBase, 0, 8)
		g.exit()
		diffAllModes(t, g, "fetch")
	})
	t.Run("halt", func(t *testing.T) {
		g := newGuest()
		g.li(rRes, 5)
		g.emit(isa.OpHalt, rRes, rRes, rRes, 7)
		g.emit(isa.OpAddI, rRes, rRes, 0, 1)
		diffAllModes(t, g, "")
	})
	t.Run("fall-through", func(t *testing.T) {
		// Longer than any trace: the executor leaves through the
		// fall-through exit (and runs the trailing op) several times.
		g := newGuest()
		g.li(rRes, 1)
		for i := 0; i < 3*vm.MaxTraceInsts+5; i++ {
			g.emit(isa.OpMulI, rRes, rRes, 0, 3)
		}
		g.save(rRes)
		g.exit()
		diffAllModes(t, g, "")
		// Straight-line code: every trace runs once, and the op after the
		// last instruction runs exactly where a trace ends without a
		// terminator.
		ops := runMode(t, g, modeOps)
		var falls uint64
		for _, tr := range ops.v.Cache().Traces() {
			if !tr.Insts[len(tr.Insts)-1].IsTerminator() {
				falls++
			}
		}
		if got := ops.counters[trailingKey]; got != falls || falls < 3 {
			t.Errorf("the trailing op ran %d times over %d fall-through exits", got, falls)
		}
	})
}

func TestOpcodeDiffSyscalls(t *testing.T) {
	write := func(g *guest, fd, addr, n uint64) {
		g.li(isa.RegA0, isa.SysWrite)
		g.li(isa.RegA1, fd)
		g.li(isa.RegA2, addr)
		g.li(isa.RegA3, n)
		g.emit(isa.OpSys, 0, 0, 0, 0)
		g.save(isa.RegA0)
	}
	hello := func(g *guest) {
		g.li(rVal, 0x0A6F6C6C6568) // "hello\n"
		g.li(rBase, heap+0xFFC)    // across a page boundary
		g.emit(isa.OpSd, 0, rBase, rVal, 0)
	}
	t.Run("write", func(t *testing.T) {
		g := newGuest()
		hello(g)
		write(g, 1, heap+0xFFC, 6)
		write(g, 3, heap+0xFFC, 6) // not a stream the VM keeps
		write(g, 2, heap+0xFFC, 3)
		write(g, 1, heap+0x3000, 2) // never-written memory reads as zeros
		write(g, 1, heap, 0)
		g.exit()
		ref := diffAllModes(t, g, "")
		if want := "hello\nhel\x00\x00"; ref.output != want {
			t.Errorf("output %q, want %q", ref.output, want)
		}
	})
	t.Run("write-fault", func(t *testing.T) {
		// The read runs off the end of the heap: nothing of it is output.
		g := newGuest()
		hello(g)
		write(g, 1, heap+0xFFC, 6)
		write(g, 1, heap+0xFFF0, 32)
		g.exit()
		ref := diffAllModes(t, g, "write syscall")
		if ref.output != "hello\n" {
			t.Errorf("output %q after a faulting write, want %q", ref.output, "hello\n")
		}
	})
	t.Run("unknown", func(t *testing.T) {
		g := newGuest()
		g.li(isa.RegA0, 9999)
		g.emit(isa.OpSys, 0, 0, 0, 0)
		g.exit()
		diffAllModes(t, g, "unknown syscall 9999")
	})
}

// TestOpcodeDiffBudget: the instruction budget is checked per instruction by
// the interpreter and per trace entry by the executor; on a one-instruction
// loop they stop at the same place with the same words.
func TestOpcodeDiffBudget(t *testing.T) {
	g := newGuest()
	g.emit(isa.OpJal, 0, 0, 0, 0)
	ref := diffAllModes(t, g, "instruction budget (100) exceeded", vm.WithMaxInsts(100))
	if ref.insts != 100 {
		t.Errorf("%d instructions executed under a budget of 100", ref.insts)
	}
}

// TestUnimplementedOpcode: no decoder yields an opcode outside the set, but a
// trace installed from outside can carry one; the executor must stop there
// with the instructions before it executed and charged, no more.
func TestUnimplementedOpcode(t *testing.T) {
	g := newGuest()
	g.exit()
	p := g.load(t)
	v := vm.New(p)
	v.Cache().Insert(&vm.Trace{Start: p.Entry, Module: -1, Insts: []isa.Inst{
		{Op: isa.OpMovI, Rd: rRes, Imm: 7},
		{Op: isa.Op(isa.NumOps), Rd: rRes, Imm: 9},
		{Op: isa.OpMovI, Rd: rRes, Imm: 11},
	}})
	_, err := v.Run()
	want := fmt.Sprintf("vm: unimplemented opcode %s at %#x", isa.Op(isa.NumOps), p.Entry+isa.InstSize)
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	st := v.Stats()
	if v.Reg(rRes) != 7 || st.InstsExecuted != 1 || st.ExecTicks != vm.DefaultCostModel().CacheExec {
		t.Errorf("r%d = %d, %d instructions, %d exec ticks; want 7, 1, %d",
			rRes, v.Reg(rRes), st.InstsExecuted, st.ExecTicks, vm.DefaultCostModel().CacheExec)
	}
}

// TestExecLogLimit: the limit can fall in the middle of a trace; both
// engines stop logging at the same line.
func TestExecLogLimit(t *testing.T) {
	g := newGuest()
	g.li(rRes, 1)
	for i := 0; i < 20; i++ {
		g.emit(isa.OpAddI, rRes, rRes, 0, 1)
	}
	g.exit()
	var logs [2]bytes.Buffer
	if _, err := vm.New(g.load(t), vm.WithExecLog(&logs[0], 9)).RunNative(); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.New(g.load(t), vm.WithExecLog(&logs[1], 9)).Run(); err != nil {
		t.Fatal(err)
	}
	if logs[0].String() != logs[1].String() {
		t.Errorf("exec logs differ under a limit\nnative: %q\ncached: %q", logs[0].String(), logs[1].String())
	}
	if n := strings.Count(logs[1].String(), "\n"); n != 10 {
		t.Errorf("%d log lines under a limit of 9 (+ the notice)", n)
	}
}

// TestSysCyclesSeesNoTicksOfItsOwnTrace: the clock a cycles syscall reads has
// the dispatch and translation of its trace on it but none of the trace's
// execution ticks, which are settled after the emulation unit returns; the
// instruction counter is settled before.
func TestSysCyclesSeesNoTicksOfItsOwnTrace(t *testing.T) {
	p := buildProc(t, `
.text
.global _start
_start:
	movi a0, 5          ; cycles
	sys
	mv   a1, a0
	movi a0, 1
	sys
	halt
`, nil)
	res, err := vm.New(p).Run()
	if err != nil {
		t.Fatal(err)
	}
	cm := vm.DefaultCostModel()
	if want := cm.Dispatch + cm.TransFixed + 2*(cm.TransFetch+cm.TransPerInst); res.ExitCode != want {
		t.Errorf("cycles read %d, want dispatch + translation of a two-instruction trace = %d", res.ExitCode, want)
	}
}
