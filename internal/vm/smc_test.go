package vm_test

import (
	"fmt"
	"strings"
	"testing"

	"persistcc/internal/isa"
	"persistcc/internal/vm"
)

// smcSrc generates code at run time, executes it, rewrites it in place and
// executes it again. The two generated versions return 1 and 2; a coherent
// execution exits with 1*10+2 = 12.
func smcSrc(t *testing.T) string {
	t.Helper()
	enc := func(in isa.Inst) string { return fmt.Sprintf("%d", in.EncodeWord()) }
	v1 := enc(isa.Inst{Op: isa.OpMovI, Rd: isa.RegA0, Imm: 1})
	v2 := enc(isa.Inst{Op: isa.OpMovI, Rd: isa.RegA0, Imm: 2})
	ret := enc(isa.Inst{Op: isa.OpJalr, Rd: isa.RegZero, Rs1: isa.RegRA})
	return `
.text
.global _start
_start:
	movi s2, 0x20000000  ; generated-code buffer on the heap
	; emit version 1: movi a0, 1 ; ret
	la   t0, words
	ld   t1, 0(t0)
	sd   t1, 0(s2)
	ld   t1, 16(t0)
	sd   t1, 8(s2)
	callr s2
	muli s1, a0, 10
	; rewrite in place: movi a0, 2 ; ret
	la   t0, words
	ld   t1, 8(t0)
	sd   t1, 0(s2)
	callr s2
	add  s1, s1, a0
	mv   a1, s1
	movi a0, 1
	sys
	halt
.data
words:
	.word64 ` + v1 + `
	.word64 ` + v2 + `
	.word64 ` + ret + `
`
}

func TestSelfModifyingCode(t *testing.T) {
	src := smcSrc(t)

	// The interpreter always reads current memory: coherent by nature.
	nat, err := vm.New(buildProc(t, src, nil)).RunNative()
	if err != nil {
		t.Fatal(err)
	}
	if nat.ExitCode != 12 {
		t.Fatalf("native exit = %d, want 12", nat.ExitCode)
	}

	// Without detection the code cache keeps executing the stale first
	// version: the documented (paper-matching) limitation.
	stale, err := vm.New(buildProc(t, src, nil)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stale.ExitCode != 11 {
		t.Fatalf("without SMC detection: exit = %d, want stale 11", stale.ExitCode)
	}

	// With detection the rewrite flushes the cache and the second call
	// re-translates the new code.
	v := vm.New(buildProc(t, src, nil), vm.WithSMCDetection())
	coherent, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if coherent.ExitCode != 12 {
		t.Fatalf("with SMC detection: exit = %d, want 12", coherent.ExitCode)
	}
	if coherent.Stats.SMCFlushes == 0 {
		t.Error("no SMC flush recorded")
	}
}

func TestSMCDetectionNoFalsePositives(t *testing.T) {
	// Ordinary data traffic (stack, heap away from code, module data)
	// must not trigger flushes.
	p := buildProc(t, fibSrc, nil)
	v := vm.New(p, vm.WithInput([]uint64{200}), vm.WithSMCDetection())
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SMCFlushes != 0 {
		t.Errorf("%d spurious SMC flushes", res.Stats.SMCFlushes)
	}
	if res.ExitCode == 0 {
		t.Error("fib(200) returned 0")
	}
}

func TestSMCFlushKillsStaleLinks(t *testing.T) {
	// A loop whose body rewrites generated code every iteration: with
	// detection, every iteration re-translates; results must match the
	// interpreter exactly.
	enc := func(in isa.Inst) string { return fmt.Sprintf("%d", in.EncodeWord()) }
	ret := enc(isa.Inst{Op: isa.OpJalr, Rd: isa.RegZero, Rs1: isa.RegRA})
	// Template: movi a0, <k>; patched per iteration by the guest itself.
	base := enc(isa.Inst{Op: isa.OpMovI, Rd: isa.RegA0})
	src := `
.text
.global _start
_start:
	movi s2, 0x20000000
	la   t0, tmpl
	ld   t1, 8(t0)
	sd   t1, 8(s2)       ; ret
	movi s0, 6           ; iterations
	movi s1, 0           ; sum
loop:
	; emit "movi a0, s0" by patching the immediate field
	la   t0, tmpl
	ld   t1, 0(t0)
	slli t2, s0, 32      ; imm field occupies the high 4 bytes
	or   t1, t1, t2
	sd   t1, 0(s2)
	callr s2
	add  s1, s1, a0
	addi s0, s0, -1
	bnez s0, loop
	mv   a1, s1
	movi a0, 1
	sys
	halt
.data
tmpl:
	.word64 ` + base + `
	.word64 ` + ret + `
`
	nat, err := vm.New(buildProc(t, src, nil)).RunNative()
	if err != nil {
		t.Fatal(err)
	}
	if nat.ExitCode != 6+5+4+3+2+1 {
		t.Fatalf("native exit = %d", nat.ExitCode)
	}
	v := vm.New(buildProc(t, src, nil), vm.WithSMCDetection())
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != nat.ExitCode {
		t.Fatalf("SMC loop: cached %d != native %d", res.ExitCode, nat.ExitCode)
	}
	if res.Stats.SMCFlushes < 5 {
		t.Errorf("expected a flush per rewrite, got %d", res.Stats.SMCFlushes)
	}
}

// The indirect-branch table in front of the translation map must never
// outlive the map entry it mirrors. Each test below gets a jalr target into
// the table (two calls: the first translates it, the second finds it in the
// map and fills the slot), invalidates the translation one way, and calls
// again: the new translation must run, and the lookup must be accounted the
// way a lookup in the map alone would be (of the six indirect branches in
// each program only the second call hits: every return is to a new address).

// genCallSrc emits "movi a0, 1; ret" into the heap and calls it twice, runs
// `between`, calls it a third time, and exits with the three results as
// decimal digits. `between` may use t0..t2; words holds the two versions of
// the movi and the ret.
func genCallSrc(between string) string {
	enc := func(in isa.Inst) string { return fmt.Sprintf("%d", in.EncodeWord()) }
	return `
.text
.global _start
_start:
	movi s2, 0x20000000
	la   t0, words
	ld   t1, 0(t0)
	sd   t1, 0(s2)
	ld   t1, 16(t0)
	sd   t1, 8(s2)
	callr s2             ; translation-map miss: translated
	muli s1, a0, 100
	callr s2             ; found in the map: fills the table slot
	muli t0, a0, 10
	add  s1, s1, t0
` + between + `
	callr s2
	add  s1, s1, a0
	mv   a1, s1
	movi a0, 1
	sys
	halt
.data
words:
	.word64 ` + enc(isa.Inst{Op: isa.OpMovI, Rd: isa.RegA0, Imm: 1}) + `
	.word64 ` + enc(isa.Inst{Op: isa.OpMovI, Rd: isa.RegA0, Imm: 2}) + `
	.word64 ` + enc(isa.Inst{Op: isa.OpJalr, Rd: isa.RegZero, Rs1: isa.RegRA}) + `
`
}

const rewriteToV2 = `
	la   t0, words
	ld   t1, 8(t0)
	sd   t1, 0(s2)
`

func TestIndirectTableFlushedByOverflow(t *testing.T) {
	// No SMC detection, so the rewrite alone leaves the old translation in
	// place; what removes it is the cache overflowing on the filler. A
	// table that survived the flush would return 1 a third time.
	filler := strings.Repeat("\taddi t2, t2, 1\n", 12*vm.MaxTraceInsts)
	src := genCallSrc(rewriteToV2 + filler)
	nat, err := vm.New(buildProc(t, src, nil)).RunNative()
	if err != nil {
		t.Fatal(err)
	}
	res, err := vm.New(buildProc(t, src, nil), vm.WithCacheLimit(4096)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if nat.ExitCode != 112 || res.ExitCode != 112 {
		t.Fatalf("exit: native %d, cached %d, want 112 (the third call runs the rewritten code)", nat.ExitCode, res.ExitCode)
	}
	st := res.Stats
	if st.Flushes != 3 || st.IndirectHits != 1 || st.IndirectMisses != 5 {
		t.Errorf("flushes %d, indirect hits %d misses %d; want 3, 1, 5", st.Flushes, st.IndirectHits, st.IndirectMisses)
	}
}

func TestIndirectTableFlushedByGuestStore(t *testing.T) {
	res, err := vm.New(buildProc(t, genCallSrc(rewriteToV2), nil), vm.WithSMCDetection()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 112 {
		t.Fatalf("exit %d, want 112", res.ExitCode)
	}
	st := res.Stats
	if st.SMCFlushes != 1 || st.IndirectHits != 1 || st.IndirectMisses != 5 {
		t.Errorf("SMC flushes %d, indirect hits %d misses %d; want 1, 1, 5", st.SMCFlushes, st.IndirectHits, st.IndirectMisses)
	}
}

// replaceAt swaps a different translation in at one address, from inside the
// run, when the marker instruction is reached.
type replaceAt struct{ with *vm.Trace }

func (*replaceAt) Name() string       { return "replace-at" }
func (*replaceAt) Version() string    { return "1" }
func (*replaceAt) ConfigHash() uint64 { return 0 }
func (r *replaceAt) Instrument(tc *vm.TraceContext) {
	for i, in := range tc.Insts() {
		if in.Op == isa.OpXorI && in.Imm == 0x5A {
			tc.InsertBefore(i, vm.OpKindCustom, 0, 1)
		}
	}
}
func (r *replaceAt) HandleOp(v *vm.VM, _ *vm.Trace, _ vm.AnalysisOp, _ int) {
	v.Cache().Insert(r.with)
}

func TestIndirectTableFollowsReinsert(t *testing.T) {
	// Insert over an address that already has a translation replaces it
	// without a flush; the table slot must be replaced with it.
	v2 := &vm.Trace{Start: 0x20000000, Module: -1, Insts: []isa.Inst{
		{Op: isa.OpMovI, Rd: isa.RegA0, Imm: 2},
		{Op: isa.OpJalr, Rd: isa.RegZero, Rs1: isa.RegRA},
	}}
	v2.RecomputeStatic()
	v := vm.New(buildProc(t, genCallSrc("\txori t2, t2, 0x5A\n"), nil), vm.WithTool(&replaceAt{with: v2}))
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 112 {
		t.Fatalf("exit %d, want 112: the third call must run the trace inserted over the first", res.ExitCode)
	}
	st := res.Stats
	if st.Flushes != 0 || st.IndirectHits != 2 || st.IndirectMisses != 4 || v2.Execs() != 1 {
		t.Errorf("flushes %d, indirect hits %d misses %d, replacement ran %d times; want 0, 2, 4, 1",
			st.Flushes, st.IndirectHits, st.IndirectMisses, v2.Execs())
	}
	if got, _ := v.Cache().Lookup(0x20000000); got != v2 || len(v.Cache().Traces()) != int(st.TracesTranslated) {
		t.Errorf("the cache holds %d traces for %d translations, and %p at the replaced address (want %p)",
			len(v.Cache().Traces()), st.TracesTranslated, got, v2)
	}
}
