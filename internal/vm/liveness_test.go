package vm_test

import (
	"testing"

	"persistcc/internal/guestopt"
	"persistcc/internal/isa"
	"persistcc/internal/loader"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

// eagerLiveIn is the backward pass as RecomputeStatic ran it over every
// trace before liveness became on-demand — the reference ScratchRegs is
// held to.
func eagerLiveIn(insts []isa.Inst) []isa.RegMask {
	liveIn := make([]isa.RegMask, len(insts))
	live := isa.RegMask(0xFFFFFFFE)
	for i := len(insts) - 1; i >= 0; i-- {
		in := insts[i]
		live = (live &^ in.Defs()) | in.Uses()
		if in.IsCondBranch() {
			live = 0xFFFFFFFE
		}
		liveIn[i] = live
	}
	return liveIn
}

// scratchProbe is a tool that asks for the scratch registers before every
// instruction of every trace, as the most demanding instrumentation would,
// and plants an op wherever none is free, so Spilled bits are produced.
type scratchProbe struct {
	t               *testing.T
	traces, spilled int
}

func (*scratchProbe) Name() string       { return "scratch-probe" }
func (*scratchProbe) Version() string    { return "1" }
func (*scratchProbe) ConfigHash() uint64 { return 0 }

func (p *scratchProbe) Instrument(tc *vm.TraceContext) {
	insts := tc.Insts()
	want := eagerLiveIn(insts)
	p.traces++
	for i := range insts {
		free := isa.NumRegs - 1 - want[i].Count()
		if got := tc.ScratchRegs(i); got != free {
			p.t.Fatalf("trace %#x inst %d: ScratchRegs = %d, eager liveness says %d", tc.Start(), i, got, free)
		}
		if free == 0 {
			tc.InsertBefore(i, vm.OpKindCount, 0, 1)
			p.spilled++
		}
	}
	if tc.ScratchRegs(-1) != 0 || tc.ScratchRegs(len(insts)) != 0 {
		p.t.Fatalf("trace %#x: ScratchRegs outside the trace is not 0", tc.Start())
	}
}

// TestScratchRegsMatchesEagerLiveness: liveness computed when a tool first
// asks is the liveness that used to be computed for every trace up front —
// for every instruction of every trace of a GUI start-up and of an optimized
// gcc run (where the pass must see the rewritten instructions, not the
// fetched ones) — so the Spilled bits tools persist, and every tick charged
// for them, are what they were. A run with no tool never runs the pass.
func TestScratchRegsMatchesEagerLiveness(t *testing.T) {
	gui, err := workload.BuildGUISuite()
	if err != nil {
		t.Fatal(err)
	}
	gcc, err := workload.BuildSpecBenchmark("176.gcc")
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name string
		prog *workload.Program
		in   workload.Input
		opts []vm.Option
	}{
		{"gui-startup", gui.Apps[0].Prog, gui.Apps[0].Startup, nil},
		{"gcc-optimized", gcc.Prog, gcc.Train[0], []vm.Option{vm.WithOptimizer(guestopt.New(guestopt.All()))}},
	} {
		t.Run(run.name, func(t *testing.T) {
			probe := &scratchProbe{t: t}
			v, err := run.prog.NewVM(loader.Config{}, run.in, append([]vm.Option{vm.WithTool(probe)}, run.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := v.Run()
			if err != nil {
				t.Fatal(err)
			}
			if probe.traces == 0 || uint64(probe.traces) != res.Stats.TracesTranslated {
				t.Fatalf("probe saw %d traces, the run translated %d", probe.traces, res.Stats.TracesTranslated)
			}
			if len(run.opts) > 0 && res.Stats.TracesOptimized == 0 {
				t.Fatal("no trace was optimized; the rewritten-instructions case is untested")
			}
			t.Logf("%d traces, %d spill points", probe.traces, probe.spilled)

			bare, err := run.prog.NewVM(loader.Config{}, run.in, run.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bare.Run(); err != nil {
				t.Fatal(err)
			}
			for _, tr := range bare.Cache().Traces() {
				if tr.LiveIn != nil || tr.LiveOut != nil {
					t.Fatalf("trace %#x of a tool-less run carries liveness nobody asked for", tr.Start)
				}
			}
		})
	}
}
