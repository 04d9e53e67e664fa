package vm

import (
	"fmt"
	"math"

	"persistcc/internal/isa"
)

// control outcomes of a single instruction.
type ctl uint8

const (
	ctlNext ctl = iota // fall through to pc+8
	ctlJump            // transfer to target
	ctlSys             // enter the emulation unit, then resume at pc+8
	ctlHalt            // machine stop
)

// exec executes one instruction at pc against the architectural state.
// Jump targets are returned, not applied. It is the interpreter's alone
// (RunNative): cached execution carries its own copy of these semantics in
// execTrace, so the reference the differential tests compare against shares
// no execution code with what it is the oracle for.
//
//pcc:hotpath
func (v *VM) exec(in isa.Inst, pc uint32) (ctl, uint32, error) {
	if v.execLog != nil && v.execLogged < v.execLogLimit {
		v.logExec(pc, in)
	}
	r := &v.regs
	s1 := r[in.Rs1]
	s2 := r[in.Rs2]
	imm := int64(in.Imm)
	var d uint64
	switch in.Op {
	case isa.OpNop:
		return ctlNext, 0, nil
	case isa.OpHalt:
		return ctlHalt, 0, nil
	case isa.OpSys:
		return ctlSys, 0, nil
	case isa.OpMovI:
		d = uint64(imm)
	case isa.OpMovHI:
		d = uint64(uint32(in.Imm))<<32 | s1&0xFFFFFFFF
	case isa.OpLdPC:
		d = uint64(pc + uint32(in.Imm))
	case isa.OpAdd:
		d = s1 + s2
	case isa.OpSub:
		d = s1 - s2
	case isa.OpMul:
		d = s1 * s2
	case isa.OpDiv:
		d = divS(int64(s1), int64(s2))
	case isa.OpDivU:
		if s2 == 0 {
			d = 0
		} else {
			d = s1 / s2
		}
	case isa.OpRem:
		d = remS(int64(s1), int64(s2))
	case isa.OpRemU:
		if s2 == 0 {
			d = s1
		} else {
			d = s1 % s2
		}
	case isa.OpAnd:
		d = s1 & s2
	case isa.OpOr:
		d = s1 | s2
	case isa.OpXor:
		d = s1 ^ s2
	case isa.OpSll:
		d = s1 << (s2 & 63)
	case isa.OpSrl:
		d = s1 >> (s2 & 63)
	case isa.OpSra:
		d = uint64(int64(s1) >> (s2 & 63))
	case isa.OpSlt:
		if int64(s1) < int64(s2) {
			d = 1
		}
	case isa.OpSltU:
		if s1 < s2 {
			d = 1
		}
	case isa.OpAddI:
		d = s1 + uint64(imm)
	case isa.OpMulI:
		d = s1 * uint64(imm)
	case isa.OpAndI:
		d = s1 & uint64(imm)
	case isa.OpOrI:
		d = s1 | uint64(imm)
	case isa.OpXorI:
		d = s1 ^ uint64(imm)
	case isa.OpSllI:
		d = s1 << (uint64(imm) & 63)
	case isa.OpSrlI:
		d = s1 >> (uint64(imm) & 63)
	case isa.OpSraI:
		d = uint64(int64(s1) >> (uint64(imm) & 63))
	case isa.OpSltI:
		if int64(s1) < imm {
			d = 1
		}
	case isa.OpSltUI:
		if s1 < uint64(imm) {
			d = 1
		}
	case isa.OpLb, isa.OpLbU, isa.OpLh, isa.OpLhU, isa.OpLw, isa.OpLwU, isa.OpLd:
		addr := uint32(s1 + uint64(imm))
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
		val, err := v.as.ReadUint(addr, size)
		if err != nil {
			return 0, 0, fmt.Errorf("vm: at pc %#x: %w", pc, err)
		}
		switch in.Op { // sign extension
		case isa.OpLb:
			val = uint64(int64(int8(val)))
		case isa.OpLh:
			val = uint64(int64(int16(val)))
		case isa.OpLw:
			val = uint64(int64(int32(val)))
		}
		d = val
	case isa.OpSb, isa.OpSh, isa.OpSw, isa.OpSd:
		addr := uint32(s1 + uint64(imm))
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
		if err := v.as.WriteUint(addr, size, s2); err != nil {
			return 0, 0, fmt.Errorf("vm: at pc %#x: %w", pc, err)
		}
		// Keep the interpreter's decode cache coherent with guest stores
		// (self-modifying or generated code).
		delete(v.nativeDecoded, addr>>12)
		delete(v.nativeDecoded, (addr+uint32(size)-1)>>12)
		return ctlNext, 0, nil
	case isa.OpJal:
		if in.Rd != isa.RegZero {
			r[in.Rd] = uint64(pc + isa.InstSize)
		}
		return ctlJump, pc + uint32(in.Imm), nil
	case isa.OpJalr:
		target := uint32(s1 + uint64(imm))
		if in.Rd != isa.RegZero {
			r[in.Rd] = uint64(pc + isa.InstSize)
		}
		return ctlJump, target, nil
	case isa.OpBeq:
		if s1 == s2 {
			return ctlJump, pc + uint32(in.Imm), nil
		}
		return ctlNext, 0, nil
	case isa.OpBne:
		if s1 != s2 {
			return ctlJump, pc + uint32(in.Imm), nil
		}
		return ctlNext, 0, nil
	case isa.OpBlt:
		if int64(s1) < int64(s2) {
			return ctlJump, pc + uint32(in.Imm), nil
		}
		return ctlNext, 0, nil
	case isa.OpBge:
		if int64(s1) >= int64(s2) {
			return ctlJump, pc + uint32(in.Imm), nil
		}
		return ctlNext, 0, nil
	case isa.OpBltU:
		if s1 < s2 {
			return ctlJump, pc + uint32(in.Imm), nil
		}
		return ctlNext, 0, nil
	case isa.OpBgeU:
		if s1 >= s2 {
			return ctlJump, pc + uint32(in.Imm), nil
		}
		return ctlNext, 0, nil
	default:
		return 0, 0, fmt.Errorf("vm: unimplemented opcode %s at %#x", in.Op, pc)
	}
	if in.Rd != isa.RegZero {
		r[in.Rd] = d
	}
	return ctlNext, 0, nil
}

// logExec writes one exec-log line; the caller has checked the log is
// attached and under its limit.
func (v *VM) logExec(pc uint32, in isa.Inst) {
	v.execLogged++
	fmt.Fprintf(v.execLog, "%08x  %s\n", pc, in)
	if v.execLogged == v.execLogLimit {
		fmt.Fprintf(v.execLog, "... (execution log limit reached)\n")
	}
}

func divS(a, b int64) uint64 {
	switch {
	case b == 0:
		return 0
	case a == math.MinInt64 && b == -1:
		return uint64(a)
	}
	return uint64(a / b)
}

func remS(a, b int64) uint64 {
	switch {
	case b == 0:
		return uint64(a)
	case a == math.MinInt64 && b == -1:
		return 0
	}
	return uint64(a % b)
}

// checkSMC flushes the code cache when a guest store lands on a page
// holding translated code (the write invalidates those translations).
func (v *VM) checkSMC(addr uint32, size int) {
	hi := addr + uint32(size) - 1
	if v.cache.PageHasCode(addr) || v.cache.PageHasCode(hi) {
		v.cache.Flush()
		v.stats.Flushes++
		v.stats.SMCFlushes++
	}
}

// doSyscall implements the emulation unit. The syscall number is in a0,
// arguments in a1..a5; the result replaces a0.
func (v *VM) doSyscall(pc uint32) error {
	num := v.regs[isa.RegA0]
	a1 := v.regs[isa.RegA1]
	a2 := v.regs[isa.RegA2]
	a3 := v.regs[isa.RegA3]
	cost := v.cost.SyscallBase
	outBefore := v.out.Len()
	if v.stats.Syscalls == nil {
		v.stats.Syscalls = make(map[uint64]uint64)
	}
	v.stats.Syscalls[num]++
	var ret uint64
	switch num {
	case isa.SysExit:
		v.halted = true
		v.exitCode = a1
	case isa.SysWrite:
		n := a3
		if n > 1<<20 {
			n = 1 << 20
		}
		// The guest's bytes are read straight into the output buffer's
		// spare capacity, and kept only if they were read whole and bound
		// for stdout or stderr.
		v.out.Grow(int(n))
		buf := v.out.AvailableBuffer()[:n]
		if err := v.as.ReadBytes(uint32(a2), buf); err != nil {
			return fmt.Errorf("vm: write syscall at %#x: %w", pc, err)
		}
		if a1 == 1 || a1 == 2 {
			v.out.Write(buf)
		}
		cost += n * 2 // copy cost
		ret = n
	case isa.SysRead:
		ret = 0 // EOF; inputs arrive via the input block
	case isa.SysBrk:
		if a1 != 0 && uint32(a1) >= v.proc.HeapBase && uint32(a1) <= v.proc.HeapBase+v.proc.HeapSize {
			v.brk = uint32(a1)
		}
		ret = uint64(v.brk)
	case isa.SysCycles:
		ret = v.clock
	case isa.SysMark:
		v.stats.Marks = append(v.stats.Marks, Mark{Tick: v.clock, ID: a1})
	case isa.SysGetPID:
		ret = v.pid
	case isa.SysSigaction, isa.SysRaise:
		// Signal interception and emulation is expensive for the VM
		// (the paper's File-Roller observation); the native kernel path
		// has no such markup.
		if !v.nativeMode {
			cost += v.cost.SyscallSignal
		}
	case isa.SysInput:
		if a1 < uint64(len(v.input)) {
			ret = v.input[a1]
		}
	default:
		return fmt.Errorf("vm: unknown syscall %d at %#x", num, pc)
	}
	if v.boundary != nil {
		// Record/replay seam: the boundary sees every syscall result before
		// it reaches the guest and may substitute the recorded value for a
		// host-dependent one (cycles, getpid).
		nret, err := v.boundary.Syscall(pc, num, a1, a2, a3, ret, v.out.Len()-outBefore)
		if err != nil {
			return err
		}
		ret = nret
	}
	v.regs[isa.RegA0] = ret
	v.clock += cost
	v.stats.EmulTicks += cost
	return nil
}

// RunNative interprets the program directly: the "original program
// execution" baseline with no translation machinery.
func (v *VM) RunNative() (*Result, error) {
	v.nativeMode = true
	if err := v.start(); err != nil {
		return nil, err
	}
	v.nativeDecoded = make(map[uint32]map[uint32]isa.Inst)
	var buf [isa.InstSize]byte
	for !v.halted {
		if v.stats.InstsExecuted >= v.maxInsts {
			return nil, fmt.Errorf("vm: instruction budget (%d) exceeded at pc %#x", v.maxInsts, v.pc)
		}
		page := v.nativeDecoded[v.pc>>12]
		in, ok := page[v.pc]
		if !ok {
			if err := v.as.ReadBytes(v.pc, buf[:]); err != nil {
				return nil, fmt.Errorf("vm: fetch at %#x: %w", v.pc, err)
			}
			var err error
			in, err = isa.Decode(buf[:])
			if err != nil {
				return nil, fmt.Errorf("vm: decode at %#x: %w", v.pc, err)
			}
			if page == nil {
				page = make(map[uint32]isa.Inst)
				v.nativeDecoded[v.pc>>12] = page
			}
			page[v.pc] = in
		}
		c, target, err := v.exec(in, v.pc)
		if err != nil {
			return nil, err
		}
		v.stats.InstsExecuted++
		v.clock += v.cost.NativeExec
		v.stats.ExecTicks += v.cost.NativeExec
		switch c {
		case ctlNext:
			v.pc += isa.InstSize
		case ctlJump:
			v.pc = target
		case ctlSys:
			if err := v.doSyscall(v.pc); err != nil {
				return nil, err
			}
			v.pc += isa.InstSize
		case ctlHalt:
			v.halted = true
		}
	}
	return v.finish()
}

// Run executes the program under the run-time compiler: all code is
// translated into the code cache and executed from there.
//
//pcc:hotpath
func (v *VM) Run() (*Result, error) {
	if err := v.start(); err != nil {
		return nil, err
	}
	var cur *Trace
	for !v.halted {
		if cur == nil {
			// Full VM dispatch: translation-map lookup, translating on
			// miss.
			v.clock += v.cost.Dispatch
			v.stats.DispatchTicks += v.cost.Dispatch
			v.stats.Dispatches++
			t, ok := v.cache.Lookup(v.pc)
			if !ok {
				var err error
				t, err = v.translate(v.pc)
				if err != nil {
					return nil, err
				}
			}
			cur = t
		}
		next, err := v.execTrace(cur)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return v.finish()
}

// execTrace runs one trace to an exit. It returns the next trace when the
// exit is linked (control stays in the code cache) and nil when control
// must return to the VM (v.pc holds the resume address).
//
// This loop is the whole execution engine for cached code: the opcode
// switch is inline, so an instruction costs a table jump rather than a call.
// What the guest cannot observe mid-trace is not maintained mid-trace: the
// guest pc is computed only by the instructions that read one, and the
// executed-instruction count and execution ticks are settled once, at the
// exit, from the exit's index (retire). Analysis ops and the exec log are
// each behind one test per instruction whose operand was hoisted at entry.
//
//pcc:hotpath
func (v *VM) execTrace(t *Trace) (*Trace, error) {
	t.execs++
	v.stats.TraceExecs++
	base := v.stats.InstsExecuted
	if base >= v.maxInsts {
		return nil, fmt.Errorf("vm: instruction budget (%d) exceeded at pc %#x", v.maxInsts, t.Start)
	}
	var (
		r       = &v.regs
		as      = v.as
		insts   = t.Insts
		opIdx   = 0
		nextOp  = -1 // position of the next analysis op; -1 when none remain
		logging = v.execLog != nil && v.execLogged < v.execLogLimit
	)
	if len(t.Ops) > 0 {
		nextOp = int(t.Ops[0].Pos)
	}
	for i, in := range insts {
		if i == nextOp {
			v.stats.InstsExecuted = base + uint64(i) // an op handler may read Stats
			opIdx, nextOp = v.execOps(t, opIdx, i)
		}
		if logging {
			v.logExec(t.PC(i), in)
			logging = v.execLogged < v.execLogLimit
		}
		s1 := r[in.Rs1%isa.NumRegs]
		s2 := r[in.Rs2%isa.NumRegs]
		imm := int64(in.Imm)
		var d uint64
		switch in.Op {
		case isa.OpNop:
			continue
		case isa.OpHalt:
			v.halted = true
			v.retire(base, i+1)
			return nil, nil
		case isa.OpSys:
			// Control returns to the VM after emulation (as in Pin); the
			// resume address re-enters via the dispatcher. The emulation
			// unit sees this instruction counted but not yet charged.
			pc := t.PC(i)
			v.stats.InstsExecuted = base + uint64(i+1)
			err := v.doSyscall(pc)
			v.retire(base, i+1)
			if err != nil {
				return nil, err
			}
			if !v.halted {
				v.pc = pc + isa.InstSize
			}
			return nil, nil
		case isa.OpMovI:
			d = uint64(imm)
		case isa.OpMovHI:
			d = uint64(uint32(in.Imm))<<32 | s1&0xFFFFFFFF
		case isa.OpLdPC:
			d = uint64(t.PC(i) + uint32(in.Imm))
		case isa.OpAdd:
			d = s1 + s2
		case isa.OpSub:
			d = s1 - s2
		case isa.OpMul:
			d = s1 * s2
		case isa.OpDiv:
			// x/0 == 0; MinInt64 / -1 wraps to MinInt64 in Go as in VR64.
			if s2 != 0 {
				d = uint64(int64(s1) / int64(s2))
			}
		case isa.OpDivU:
			if s2 != 0 {
				d = s1 / s2
			}
		case isa.OpRem:
			d = s1 // x%0 == x
			if s2 != 0 {
				d = uint64(int64(s1) % int64(s2))
			}
		case isa.OpRemU:
			d = s1
			if s2 != 0 {
				d = s1 % s2
			}
		case isa.OpAnd:
			d = s1 & s2
		case isa.OpOr:
			d = s1 | s2
		case isa.OpXor:
			d = s1 ^ s2
		case isa.OpSll:
			d = s1 << (s2 & 63)
		case isa.OpSrl:
			d = s1 >> (s2 & 63)
		case isa.OpSra:
			d = uint64(int64(s1) >> (s2 & 63))
		case isa.OpSlt:
			if int64(s1) < int64(s2) {
				d = 1
			}
		case isa.OpSltU:
			if s1 < s2 {
				d = 1
			}
		case isa.OpAddI:
			d = s1 + uint64(imm)
		case isa.OpMulI:
			d = s1 * uint64(imm)
		case isa.OpAndI:
			d = s1 & uint64(imm)
		case isa.OpOrI:
			d = s1 | uint64(imm)
		case isa.OpXorI:
			d = s1 ^ uint64(imm)
		case isa.OpSllI:
			d = s1 << (uint64(imm) & 63)
		case isa.OpSrlI:
			d = s1 >> (uint64(imm) & 63)
		case isa.OpSraI:
			d = uint64(int64(s1) >> (uint64(imm) & 63))
		case isa.OpSltI:
			if int64(s1) < imm {
				d = 1
			}
		case isa.OpSltUI:
			if s1 < uint64(imm) {
				d = 1
			}
		case isa.OpLd:
			addr := uint32(s1 + uint64(imm))
			val, ok := as.Load64(addr)
			if !ok {
				var err error
				if val, err = as.ReadUint(addr, 8); err != nil {
					return v.fault(t, base, i, err)
				}
			}
			d = val
		case isa.OpLb, isa.OpLbU:
			val, err := as.ReadUint(uint32(s1+uint64(imm)), 1)
			if err != nil {
				return v.fault(t, base, i, err)
			}
			d = val
			if in.Op == isa.OpLb {
				d = uint64(int64(int8(val)))
			}
		case isa.OpLh, isa.OpLhU:
			val, err := as.ReadUint(uint32(s1+uint64(imm)), 2)
			if err != nil {
				return v.fault(t, base, i, err)
			}
			d = val
			if in.Op == isa.OpLh {
				d = uint64(int64(int16(val)))
			}
		case isa.OpLw, isa.OpLwU:
			val, err := as.ReadUint(uint32(s1+uint64(imm)), 4)
			if err != nil {
				return v.fault(t, base, i, err)
			}
			d = val
			if in.Op == isa.OpLw {
				d = uint64(int64(int32(val)))
			}
		case isa.OpSd:
			addr := uint32(s1 + uint64(imm))
			if !as.Store64(addr, s2) {
				if err := as.WriteUint(addr, 8, s2); err != nil {
					return v.fault(t, base, i, err)
				}
			}
			if v.smcDetect {
				v.checkSMC(addr, 8)
			}
			continue
		case isa.OpSb, isa.OpSh, isa.OpSw:
			addr := uint32(s1 + uint64(imm))
			size := 1
			switch in.Op {
			case isa.OpSh:
				size = 2
			case isa.OpSw:
				size = 4
			}
			if err := as.WriteUint(addr, size, s2); err != nil {
				return v.fault(t, base, i, err)
			}
			if v.smcDetect {
				v.checkSMC(addr, size)
			}
			continue
		case isa.OpJal, isa.OpJalr:
			pc := t.PC(i)
			if in.Rd != isa.RegZero {
				r[in.Rd%isa.NumRegs] = uint64(pc + isa.InstSize)
			}
			v.retire(base, i+1)
			if in.Op == isa.OpJalr {
				return v.indirectTransfer(uint32(s1 + uint64(imm)))
			}
			return v.directTransfer(t, i, pc+uint32(in.Imm))
		case isa.OpBeq:
			if s1 == s2 {
				return v.branch(t, base, i)
			}
			continue
		case isa.OpBne:
			if s1 != s2 {
				return v.branch(t, base, i)
			}
			continue
		case isa.OpBlt:
			if int64(s1) < int64(s2) {
				return v.branch(t, base, i)
			}
			continue
		case isa.OpBge:
			if int64(s1) >= int64(s2) {
				return v.branch(t, base, i)
			}
			continue
		case isa.OpBltU:
			if s1 < s2 {
				return v.branch(t, base, i)
			}
			continue
		case isa.OpBgeU:
			if s1 >= s2 {
				return v.branch(t, base, i)
			}
			continue
		default:
			v.retire(base, i)
			return nil, fmt.Errorf("vm: unimplemented opcode %s at %#x", in.Op, t.PC(i))
		}
		if in.Rd != isa.RegZero {
			r[in.Rd%isa.NumRegs] = d
		}
	}
	// Fall-through exit (trace-length limit): trailing ops, then slot n.
	n := len(insts)
	if n == nextOp {
		v.stats.InstsExecuted = base + uint64(n)
		v.execOps(t, opIdx, n)
	}
	v.retire(base, n)
	return v.directTransfer(t, n, t.Start+uint32(t.OrigInsts())*isa.InstSize)
}

// retire settles the account of a trace execution that entered with base
// instructions executed and ran count more: the instruction counter, and
// count × CacheExec on the virtual clock.
func (v *VM) retire(base uint64, count int) {
	v.stats.InstsExecuted = base + uint64(count)
	ticks := uint64(count) * v.cost.CacheExec
	v.clock += ticks
	v.stats.ExecTicks += ticks
}

// branch leaves t through the taken side of the conditional branch at i.
func (v *VM) branch(t *Trace, base uint64, i int) (*Trace, error) {
	v.retire(base, i+1)
	return v.directTransfer(t, i, t.PC(i)+uint32(t.Insts[i].Imm))
}

// fault abandons t at instruction i, whose memory access failed.
func (v *VM) fault(t *Trace, base uint64, i int, err error) (*Trace, error) {
	v.retire(base, i)
	return nil, fmt.Errorf("vm: at pc %#x: %w", t.PC(i), err)
}

// directTransfer follows (or establishes) the link for exit slot `slot`
// of t toward target.
//
//pcc:hotpath
func (v *VM) directTransfer(t *Trace, slot int, target uint32) (*Trace, error) {
	if linked := t.links[slot]; linked != nil {
		return linked, nil // stays in the code cache, no VM involvement
	}
	// First time through this exit: back to the VM, look up or translate
	// the target, then patch the link so subsequent executions of the
	// same code require no VM entry.
	v.clock += v.cost.Dispatch
	v.stats.DispatchTicks += v.cost.Dispatch
	v.stats.Dispatches++
	next, ok := v.cache.Lookup(target)
	if !ok {
		var err error
		next, err = v.translate(target)
		if err != nil {
			return nil, err
		}
	}
	// The translation above may have flushed the cache (and with it t);
	// patching t's link is then pointless but harmless: t is unreachable.
	t.links[slot] = next
	v.clock += v.cost.LinkPatch
	v.stats.LinkTicks += v.cost.LinkPatch
	v.stats.LinksPatched++
	return next, nil
}

// indirectTransfer models the inline indirect-branch lookup: a hit stays in
// the code cache; a miss falls back to the full dispatcher.
//
//pcc:hotpath
func (v *VM) indirectTransfer(target uint32) (*Trace, error) {
	v.clock += v.cost.IndirectLookup
	v.stats.IndirectTicks += v.cost.IndirectLookup
	if next, ok := v.cache.lookupIndirect(target); ok {
		v.stats.IndirectHits++
		return next, nil
	}
	v.stats.IndirectMisses++
	v.clock += v.cost.Dispatch
	v.stats.DispatchTicks += v.cost.Dispatch
	v.stats.Dispatches++
	return v.translate(target)
}

// execOps runs the analysis ops scheduled at position pos, starting at
// t.Ops[opIdx]; it returns the index and position of the first op after them
// (position -1 when none remain). Ops at len(Insts) annotate the last
// instruction.
func (v *VM) execOps(t *Trace, opIdx, pos int) (int, int) {
	instIdx := pos
	if instIdx == len(t.Insts) {
		instIdx--
	}
	for ; opIdx < len(t.Ops); opIdx++ {
		if p := int(t.Ops[opIdx].Pos); p != pos {
			return opIdx, p
		}
		v.execOp(t, t.Ops[opIdx], instIdx)
	}
	return opIdx, -1
}

func (v *VM) execOp(t *Trace, op AnalysisOp, instIdx int) {
	cost := uint64(op.Cost)
	if op.Spilled {
		cost += v.cost.SpillPenalty
	}
	v.clock += cost
	v.stats.OpTicks += cost
	switch op.Kind {
	case OpKindCount:
		if v.stats.Counters == nil {
			v.stats.Counters = make(map[uint64]uint64)
		}
		v.stats.Counters[op.Arg]++
	case OpKindMemRef:
		in := t.Insts[instIdx]
		ea := uint32(v.regs[in.Rs1] + uint64(int64(in.Imm)))
		v.stats.MemRefs++
		v.stats.MemRefHash = v.stats.MemRefHash*0x9E3779B1 + uint64(ea) + 1
	case OpKindOpcodeMix:
		v.stats.OpcodeMix[t.Insts[instIdx].Op]++
	case OpKindCustom:
		if v.opHandler != nil {
			v.opHandler.HandleOp(v, t, op, instIdx)
		}
	}
}
