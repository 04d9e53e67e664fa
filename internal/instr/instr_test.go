package instr_test

import (
	"testing"

	"persistcc/internal/guestopt"
	"persistcc/internal/instr"
	"persistcc/internal/isa"
	"persistcc/internal/loader"
	"persistcc/internal/testprog"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

const loopSrc = `
.text
.global _start
_start:
	movi t0, 10
	la   t1, buf
loop:
	ld   t2, 0(t1)
	addi t2, t2, 1
	sd   t2, 0(t1)
	addi t0, t0, -1
	bnez t0, loop
	movi a0, 1
	mv   a1, t2
	sys
	halt
.bss
buf:	.space 8
`

func run(t *testing.T, tool vm.Tool) *vm.Result {
	t.Helper()
	exe, libs, err := testprog.Build("prog", loopSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := testprog.Load(exe, libs, loader.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts := []vm.Option{}
	if tool != nil {
		opts = append(opts, vm.WithTool(tool))
	}
	res, err := vm.New(p, opts...).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 10 {
		t.Fatalf("exit = %d, want 10", res.ExitCode)
	}
	return res
}

func TestBBCount(t *testing.T) {
	res := run(t, &instr.BBCount{})
	if len(res.Stats.Counters) == 0 {
		t.Fatal("no counters recorded")
	}
	var total uint64
	for _, c := range res.Stats.Counters {
		total += c
	}
	if total != res.Stats.TraceExecs {
		t.Errorf("bb count total %d != trace execs %d", total, res.Stats.TraceExecs)
	}
}

func TestBBCountPerInstruction(t *testing.T) {
	light := run(t, &instr.BBCount{})
	heavy := run(t, &instr.BBCount{PerInstruction: true})
	if heavy.Stats.TransTicks <= light.Stats.TransTicks {
		t.Error("per-instruction instrumentation did not increase VM overhead")
	}
	if heavy.Stats.OpTicks <= light.Stats.OpTicks {
		t.Error("per-instruction instrumentation did not increase analysis time")
	}
	var heavyTotal uint64
	for _, c := range heavy.Stats.Counters {
		heavyTotal += c
	}
	if heavyTotal != heavy.Stats.InstsExecuted {
		t.Errorf("per-inst counters %d != instructions executed %d", heavyTotal, heavy.Stats.InstsExecuted)
	}
}

func TestMemTrace(t *testing.T) {
	res := run(t, &instr.MemTrace{})
	// The loop does 1 ld + 1 sd per iteration, 10 iterations.
	if res.Stats.MemRefs != 20 {
		t.Errorf("MemRefs = %d, want 20", res.Stats.MemRefs)
	}
	if res.Stats.MemRefHash == 0 {
		t.Error("MemRefHash not updated")
	}
	loads := run(t, &instr.MemTrace{LoadsOnly: true})
	if loads.Stats.MemRefs != 10 {
		t.Errorf("LoadsOnly MemRefs = %d, want 10", loads.Stats.MemRefs)
	}
}

func TestOpcodeMix(t *testing.T) {
	res := run(t, &instr.OpcodeMix{})
	mix := res.Stats.OpcodeMix
	if mix[isa.OpLd] != 10 || mix[isa.OpSd] != 10 {
		t.Errorf("ld/sd counts = %d/%d, want 10/10", mix[isa.OpLd], mix[isa.OpSd])
	}
	if mix[isa.OpBne] != 10 {
		t.Errorf("bne count = %d, want 10", mix[isa.OpBne])
	}
	var total uint64
	for _, c := range mix {
		total += c
	}
	if total != res.Stats.InstsExecuted {
		t.Errorf("opcode mix total %d != executed %d", total, res.Stats.InstsExecuted)
	}
}

func TestUninstrumentedBaseline(t *testing.T) {
	plain := run(t, nil)
	instrumented := run(t, &instr.BBCount{})
	if instrumented.Stats.Ticks <= plain.Stats.Ticks {
		t.Error("instrumentation is free; it must cost ticks")
	}
	if plain.Stats.OpTicks != 0 {
		t.Error("uninstrumented run has analysis ticks")
	}
}

func TestToolKeysDiffer(t *testing.T) {
	tools := []vm.Tool{
		&instr.BBCount{}, &instr.BBCount{PerInstruction: true},
		&instr.MemTrace{}, &instr.MemTrace{LoadsOnly: true},
		&instr.OpcodeMix{},
	}
	seen := map[uint64]string{}
	for _, tool := range tools {
		h := tool.ConfigHash()
		if prev, dup := seen[h]; dup {
			t.Errorf("config hash collision: %s vs %s/%v", prev, tool.Name(), tool)
		}
		seen[h] = tool.Name()
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"bbcount", "bbcount-inst", "memtrace", "opcodemix"} {
		if instr.ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if instr.ByName("nope") != nil {
		t.Error("ByName accepted unknown tool")
	}
}

// customTool exercises the OpKindCustom dispatch path.
type customTool struct {
	hits int
}

func (c *customTool) Name() string       { return "custom" }
func (c *customTool) Version() string    { return "0.1" }
func (c *customTool) ConfigHash() uint64 { return 1 }
func (c *customTool) Instrument(tc *vm.TraceContext) {
	tc.InsertBefore(0, vm.OpKindCustom, 7, 3)
}
func (c *customTool) HandleOp(v *vm.VM, t *vm.Trace, op vm.AnalysisOp, instIdx int) {
	if op.Arg == 7 {
		c.hits++
	}
}

func TestCustomTool(t *testing.T) {
	tool := &customTool{}
	res := run(t, tool)
	if uint64(tool.hits) != res.Stats.TraceExecs {
		t.Errorf("custom hits %d != trace execs %d", tool.hits, res.Stats.TraceExecs)
	}
}

// pcProbe records what PCOf answers for every instruction of every trace
// it is shown, keyed by trace start.
type pcProbe struct{ pcs map[uint32][]uint32 }

func (*pcProbe) Name() string       { return "pc-probe" }
func (*pcProbe) Version() string    { return "1" }
func (*pcProbe) ConfigHash() uint64 { return 0 }

func (p *pcProbe) Instrument(tc *vm.TraceContext) {
	pcs := make([]uint32, len(tc.Insts()))
	for i := range pcs {
		pcs[i] = tc.PCOf(i)
	}
	p.pcs[tc.Start()] = pcs
}

// TestPCOfFollowsSourceMap: tools see a trace after the optimizer rewrote
// it, so instruction i of what they see is not the i-th fetched instruction
// once something before it was elided. PCOf must answer with the fetch
// address (Start + SrcIdx[i]*8); it used to answer Start + i*8, so bbcount
// -perinst keyed its counters by addresses of other instructions.
func TestPCOfFollowsSourceMap(t *testing.T) {
	gcc, err := workload.BuildSpecBenchmark("176.gcc")
	if err != nil {
		t.Fatal(err)
	}
	gccRun := func(opts ...vm.Option) (*vm.VM, *vm.Result) {
		t.Helper()
		v, err := gcc.Prog.NewVM(loader.Config{}, gcc.Train[0], opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		return v, res
	}
	optimizer := func() vm.Option { return vm.WithOptimizer(guestopt.New(guestopt.All())) }

	// What the tool was told at instrumentation time, against the source
	// map of the trace that was installed.
	probe := &pcProbe{pcs: make(map[uint32][]uint32)}
	v, _ := gccRun(vm.WithTool(probe), optimizer())
	// surviving[pc] is false once any trace elided the instruction at pc.
	surviving := make(map[uint32]bool)
	shifted := 0
	for _, tr := range v.Cache().Traces() {
		told := probe.pcs[tr.Start]
		if len(told) != len(tr.Insts) {
			t.Fatalf("trace %#x: tool saw %d instructions, %d installed", tr.Start, len(told), len(tr.Insts))
		}
		for i := 0; i < tr.OrigInsts(); i++ {
			pc := tr.Start + uint32(i)*isa.InstSize
			if _, seen := surviving[pc]; !seen {
				surviving[pc] = true
			}
		}
		kept := make(map[uint32]bool, len(tr.Insts))
		for i := range tr.Insts {
			src := i
			if tr.SrcIdx != nil {
				src = int(tr.SrcIdx[i])
			}
			if src != i {
				shifted++
			}
			want := tr.Start + uint32(src)*isa.InstSize
			if told[i] != want {
				t.Fatalf("trace %#x inst %d: PCOf = %#x, fetched from %#x", tr.Start, i, told[i], want)
			}
			kept[want] = true
		}
		for i := 0; i < tr.OrigInsts(); i++ {
			if pc := tr.Start + uint32(i)*isa.InstSize; !kept[pc] {
				surviving[pc] = false
			}
		}
	}
	if shifted == 0 {
		t.Fatal("no instruction follows an elision; the optimized case is untested")
	}

	// End to end: an instruction no trace elided executes exactly as often
	// optimized as not, so bbcount -perinst must report the same count at
	// its address in both runs.
	_, plain := gccRun(vm.WithTool(&instr.BBCount{PerInstruction: true}))
	_, opt := gccRun(vm.WithTool(&instr.BBCount{PerInstruction: true}), optimizer())
	checked := 0
	for pc, ok := range surviving {
		if !ok {
			continue
		}
		checked++
		if got, want := opt.Stats.Counters[uint64(pc)], plain.Stats.Counters[uint64(pc)]; got != want {
			t.Errorf("pc %#x: executed %d times under -optimize, %d times without", pc, got, want)
		}
	}
	for key := range opt.Stats.Counters {
		if _, covered := surviving[uint32(key)]; !covered {
			t.Errorf("counter keyed %#x: no trace fetched an instruction there", key)
		}
	}
	if checked == 0 {
		t.Fatal("no surviving instruction compared")
	}
}
