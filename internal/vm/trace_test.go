package vm

import (
	"testing"
	"unsafe"

	"persistcc/internal/isa"
)

func TestLiveness(t *testing.T) {
	// t0 = t1 + t2 ; t3 = t0 + t0 ; beq t3, t4 -> exit ; t0 = 1 ; halt
	tr := &Trace{Insts: []isa.Inst{
		{Op: isa.OpAdd, Rd: 12, Rs1: 13, Rs2: 14},
		{Op: isa.OpAdd, Rd: 15, Rs1: 12, Rs2: 12},
		{Op: isa.OpBeq, Rs1: 15, Rs2: 16, Imm: 16},
		{Op: isa.OpMovI, Rd: 12, Imm: 1},
		{Op: isa.OpHalt},
	}}
	tr.Liveness()
	// Before inst 0: t1, t2 are used before def; t0 is redefined at 0 but
	// also at 3... after the branch everything is live again (side exit),
	// so t0 IS live-in at 3's predecessor region. Check the key facts:
	if !tr.LiveIn[0].Has(13) || !tr.LiveIn[0].Has(14) {
		t.Error("t1/t2 not live-in at 0")
	}
	if !tr.LiveIn[1].Has(12) {
		t.Error("t0 not live-in at 1 (used by inst 1)")
	}
	if !tr.LiveIn[2].Has(15) || !tr.LiveIn[2].Has(16) {
		t.Error("branch operands not live-in at 2")
	}
	// The conditional branch makes everything live at its entry.
	if tr.LiveIn[2] != 0xFFFFFFFE {
		t.Errorf("LiveIn[2] = %x, want all-live", tr.LiveIn[2])
	}
	// r0 is never live.
	for i := range tr.Insts {
		if tr.LiveIn[i].Has(0) || tr.LiveOut[i].Has(0) {
			t.Fatal("r0 tracked as live")
		}
	}
}

func TestLivenessScratchInStraightLine(t *testing.T) {
	// A straight-line trace ending in halt: registers defined before any
	// use are dead at the top.
	tr := &Trace{Insts: []isa.Inst{
		{Op: isa.OpMovI, Rd: 12, Imm: 1}, // defines t0: dead at entry
		{Op: isa.OpMovI, Rd: 13, Imm: 2},
		{Op: isa.OpAdd, Rd: 14, Rs1: 12, Rs2: 13},
		{Op: isa.OpHalt},
	}}
	tr.Liveness()
	if tr.LiveIn[0].Has(12) || tr.LiveIn[0].Has(13) {
		t.Error("t0/t1 live at entry despite being defined first")
	}
	tc := &TraceContext{trace: tr}
	if tc.ScratchRegs(0) < 2 {
		t.Errorf("ScratchRegs(0) = %d, want >= 2", tc.ScratchRegs(0))
	}
}

func TestCodeCacheAccounting(t *testing.T) {
	c := NewCodeCache(10_000)
	t1 := &Trace{Start: 100, Insts: make([]isa.Inst, 10), Exits: make([]Exit, 2)}
	c.Insert(t1)
	if c.CodeBytes() != t1.CodeBytes() || c.DataBytes() != t1.DataBytes() {
		t.Error("pool accounting wrong after insert")
	}
	got, ok := c.Lookup(100)
	if !ok || got != t1 {
		t.Error("lookup failed")
	}
	// Replacing the same address must not double-count.
	t1b := &Trace{Start: 100, Insts: make([]isa.Inst, 4)}
	c.Insert(t1b)
	if c.CodeBytes() != t1b.CodeBytes() {
		t.Errorf("replacement accounting wrong: %d != %d", c.CodeBytes(), t1b.CodeBytes())
	}
	if len(c.Traces()) != 1 {
		t.Errorf("trace list has %d entries", len(c.Traces()))
	}
	c.Flush()
	if c.CodeBytes() != 0 || c.DataBytes() != 0 || c.Flushes() != 1 {
		t.Error("flush did not reset pools")
	}
	if _, ok := c.Lookup(100); ok {
		t.Error("lookup hit after flush")
	}
}

func TestWouldOverflowSplitsPools(t *testing.T) {
	c := NewCodeCache(1000)
	big := &Trace{Start: 1, Insts: make([]isa.Inst, 40)} // code 320, data > 500
	if !c.WouldOverflow(big) {
		t.Errorf("data pool overflow not detected (code %d data %d)", big.CodeBytes(), big.DataBytes())
	}
	small := &Trace{Start: 2, Insts: make([]isa.Inst, 4)}
	if c.WouldOverflow(small) {
		t.Error("small trace reported as overflow")
	}
}

func TestDataBytesExceedCodeBytes(t *testing.T) {
	// The Figure 9 property: supporting data structures outweigh traces.
	tr := &Trace{Insts: make([]isa.Inst, 12), Exits: make([]Exit, 3), Notes: make([]RelocNote, 1)}
	if tr.DataBytes() <= tr.CodeBytes() {
		t.Errorf("DataBytes %d <= CodeBytes %d", tr.DataBytes(), tr.CodeBytes())
	}
}

// TestLinkSlotsFromTheCacheSlab: link slots are cut from the cache's slab —
// the traces a prime reserves for from one chunk, back to back — and Flush
// clears a dropped trace's slots in place, so a trace still running cannot
// chain into a stale translation and no slot is allocated again.
func TestLinkSlotsFromTheCacheSlab(t *testing.T) {
	c := NewCodeCache(DefaultCacheLimit)
	traces := []*Trace{
		{Start: 0x100, Insts: make([]isa.Inst, 3)},
		{Start: 0x200, Insts: make([]isa.Inst, 5)},
		{Start: 0x300, Insts: make([]isa.Inst, 1)},
	}
	c.Reserve(traces)
	for _, tr := range traces {
		c.Insert(tr)
	}
	for i, tr := range traces {
		if len(tr.links) != len(tr.Insts)+1 || cap(tr.links) != len(tr.links) {
			t.Fatalf("trace %d: %d link slots (capacity %d) for %d instructions", i, len(tr.links), cap(tr.links), len(tr.Insts))
		}
		if i > 0 {
			prev := traces[i-1].links
			if end := uintptr(unsafe.Pointer(&prev[0])) + uintptr(len(prev))*unsafe.Sizeof(prev[0]); end != uintptr(unsafe.Pointer(&tr.links[0])) {
				t.Errorf("trace %d's slots do not follow trace %d's in one chunk", i, i-1)
			}
		}
	}
	first := &traces[0].links[0]
	traces[0].links[1] = traces[1]
	traces[1].links[5] = traces[2]
	c.Flush()
	for i, tr := range traces {
		for slot, linked := range tr.links {
			if linked != nil {
				t.Errorf("trace %d slot %d still links %#x after Flush", i, slot, linked.Start)
			}
		}
	}
	if &traces[0].links[0] != first {
		t.Error("Flush allocated new link slots instead of clearing the old ones")
	}
}
