package isa

// Class is a coarse classification of opcodes used by the trace compiler,
// the liveness analysis and the instrumentation API.
type Class uint8

const (
	ClassALU    Class = iota // arithmetic/logic, including movi/movhi/ldpc/nop
	ClassLoad                // memory read
	ClassStore               // memory write
	ClassBranch              // conditional control transfer
	ClassJump                // unconditional control transfer (jal/jalr)
	ClassSys                 // system call
	ClassHalt                // machine stop
)

// Classify returns the coarse class of the opcode.
func Classify(o Op) Class {
	switch o {
	case OpLb, OpLbU, OpLh, OpLhU, OpLw, OpLwU, OpLd:
		return ClassLoad
	case OpSb, OpSh, OpSw, OpSd:
		return ClassStore
	case OpBeq, OpBne, OpBlt, OpBge, OpBltU, OpBgeU:
		return ClassBranch
	case OpJal, OpJalr:
		return ClassJump
	case OpSys:
		return ClassSys
	case OpHalt:
		return ClassHalt
	}
	return ClassALU
}

// IsTerminator reports whether the instruction unconditionally ends a trace:
// unconditional transfers, system calls and halt. This mirrors Pin's trace
// definition ("a linear sequence of instructions fetched from a starting
// address until a fixed instruction count is reached or an unconditional
// branch instruction is encountered").
func (i Inst) IsTerminator() bool {
	switch i.Op {
	case OpJal, OpJalr, OpSys, OpHalt:
		return true
	}
	return false
}

// IsCondBranch reports whether the instruction is a conditional branch
// (a potential side exit of a trace).
func (i Inst) IsCondBranch() bool { return Classify(i.Op) == ClassBranch }

// IsDirectJump reports whether the instruction is an unconditional transfer
// whose target is known statically (pc-relative).
func (i Inst) IsDirectJump() bool { return i.Op == OpJal }

// IsMem reports whether the instruction accesses memory.
func (i Inst) IsMem() bool {
	c := Classify(i.Op)
	return c == ClassLoad || c == ClassStore
}

// RegMask is a bit set over the 32 architectural registers.
type RegMask uint32

// Has reports whether register r is in the mask.
func (m RegMask) Has(r uint8) bool { return m&(1<<r) != 0 }

// Add returns the mask with register r added. r0 is never added: it is
// hardwired zero and is neither a meaningful use nor a meaningful def.
func (m RegMask) Add(r uint8) RegMask {
	if r == RegZero {
		return m
	}
	return m | 1<<r
}

// Count returns the number of registers in the mask.
func (m RegMask) Count() int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}

// Uses returns the set of registers the instruction reads.
func (i Inst) Uses() RegMask {
	var m RegMask
	switch Classify(i.Op) {
	case ClassALU:
		switch i.Op {
		case OpNop, OpHalt, OpMovI, OpLdPC:
			// no register sources
		case OpMovHI:
			m = m.Add(i.Rs1)
		case OpAddI, OpMulI, OpAndI, OpOrI, OpXorI, OpSllI, OpSrlI, OpSraI, OpSltI, OpSltUI:
			m = m.Add(i.Rs1)
		default: // reg-reg ALU
			m = m.Add(i.Rs1).Add(i.Rs2)
		}
	case ClassLoad:
		m = m.Add(i.Rs1)
	case ClassStore:
		m = m.Add(i.Rs1).Add(i.Rs2)
	case ClassBranch:
		m = m.Add(i.Rs1).Add(i.Rs2)
	case ClassJump:
		if i.Op == OpJalr {
			m = m.Add(i.Rs1)
		}
	case ClassSys:
		// The emulation unit reads a0..a5.
		for r := uint8(RegA0); r <= RegA5; r++ {
			m = m.Add(r)
		}
	}
	return m
}

// Defs returns the set of registers the instruction writes.
func (i Inst) Defs() RegMask {
	var m RegMask
	switch Classify(i.Op) {
	case ClassALU:
		if i.Op != OpNop && i.Op != OpHalt {
			m = m.Add(i.Rd)
		}
	case ClassLoad:
		m = m.Add(i.Rd)
	case ClassJump:
		m = m.Add(i.Rd)
	case ClassSys:
		m = m.Add(RegA0)
	}
	return m
}
