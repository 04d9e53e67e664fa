package guestopt_test

import (
	"bytes"
	"testing"

	"persistcc/internal/core"
	"persistcc/internal/guestopt"
	"persistcc/internal/isa"
	"persistcc/internal/loader"
	"persistcc/internal/metrics"
	"persistcc/internal/testprog"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

// TestVMEquivalenceWithOptimizer is the whole-program property: random
// terminating guest programs behave identically with and without the
// optimizer attached — same exit code, same output, same final registers.
func TestVMEquivalenceWithOptimizer(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		src := testprog.GenRandom(seed)
		exe, libs, err := testprog.Build("optfuzz", src, nil)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		load := func(opts ...vm.Option) *vm.VM {
			p, err := testprog.Load(exe, libs, loader.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return vm.New(p, append([]vm.Option{vm.WithMaxInsts(5_000_000)}, opts...)...)
		}
		base, err := load().Run()
		if err != nil {
			t.Fatalf("seed %d baseline: %v", seed, err)
		}
		ov := load(vm.WithOptimizer(guestopt.New(guestopt.All())))
		opt, err := ov.Run()
		if err != nil {
			t.Fatalf("seed %d optimized: %v", seed, err)
		}
		if base.ExitCode != opt.ExitCode {
			t.Fatalf("seed %d: exit %d != %d\n%s", seed, base.ExitCode, opt.ExitCode, src)
		}
		if !bytes.Equal(base.Output, opt.Output) {
			t.Fatalf("seed %d: output diverged\n%s", seed, src)
		}
		bv := load()
		if _, err := bv.Run(); err != nil {
			t.Fatal(err)
		}
		for r := uint8(1); r < isa.NumRegs; r++ {
			if bv.Reg(r) != ov.Reg(r) {
				t.Fatalf("seed %d: final r%d %#x != %#x\n%s", seed, r, bv.Reg(r), ov.Reg(r), src)
			}
		}
		if opt.Stats.OptRejects != 0 {
			t.Fatalf("seed %d: checker rejected %d engine rewrites", seed, opt.Stats.OptRejects)
		}
	}
}

// redundantSrc is a loop whose body carries every kind of slack the passes
// target: a foldable constant chain, a dead compare, and a duplicated load.
const redundantSrc = `
.text
.global _start
_start:
	movi t1, 0x08000000
	ld   s0, 0(t1)      ; n iterations
	movi s1, 0
loop:
	beqz s0, done
	movi t2, 5
	movi t3, 7
	add  t4, t2, t3     ; folds to movi t4, 12; t2/t3 become dead
	slt  t5, s1, t4     ; dead flag: t5 redefined before any use
	slt  t5, t4, s1
	ld   t2, 0(t1)      ; duplicated load pair
	ld   t3, 0(t1)
	add  s1, s1, t4
	add  s1, s1, t2
	sub  s1, s1, t3
	add  s1, s1, t5
	addi s0, s0, -1
	j    loop
done:
	mv   a1, s1
	movi a0, 1
	sys
	halt
`

// TestOptimizerInstallPath drives a workload with enough redundancy that the
// passes fire, and confirms the stats and metrics surfaces agree.
func TestOptimizerInstallPath(t *testing.T) {
	w := testutil.BuildWorld(t, "app", redundantSrc, nil)
	reg := metrics.NewRegistry()
	o := guestopt.New(guestopt.All())
	o.BindMetrics(reg)
	res := w.Run(t, testutil.NewMgr(t), testutil.RunOpts{
		Input:   []uint64{7, 9},
		Options: []vm.Option{vm.WithOptimizer(o), vm.WithMetrics(reg)},
	})
	if res.Stats.TracesOptimized == 0 {
		t.Fatal("no traces optimized on the standard workload")
	}
	if res.Stats.OptInstsRemoved == 0 {
		t.Fatal("optimizer fired but removed nothing")
	}
	if res.Stats.OptRejects != 0 {
		t.Fatalf("%d engine rewrites rejected", res.Stats.OptRejects)
	}
	snap := reg.Snapshot()
	if got, ok := snap.Value("pcc_guestopt_traces_total", "optimized"); !ok || got == 0 {
		t.Fatalf("pcc_guestopt_traces_total{outcome=optimized} = %v (ok=%v)", got, ok)
	}
	if got, ok := snap.Value("pcc_vm_opt_traces_total", "optimized"); !ok || got != float64(res.Stats.TracesOptimized) {
		t.Fatalf("pcc_vm_opt_traces_total = %v (ok=%v), want %d", got, ok, res.Stats.TracesOptimized)
	}

	// Same workload, no optimizer: behavior identical.
	base := w.Run(t, testutil.NewMgr(t), testutil.RunOpts{Input: []uint64{7, 9}})
	if base.ExitCode != res.ExitCode || !bytes.Equal(base.Output, res.Output) {
		t.Fatal("optimizer changed program behavior")
	}
}

// TestOptimizedTracesPersistAndReload covers the warm path from both ways
// an entry is written: a cold optimized run commits (or its traces are
// written as a legacy image, which is then migrated), a warm run primes
// pre-optimized traces (no re-optimization), and behavior matches the
// unoptimized run.
func TestOptimizedTracesPersistAndReload(t *testing.T) {
	for _, format := range []string{"migrated", "store"} {
		t.Run(format, func(t *testing.T) {
			w := testutil.BuildWorld(t, "app", redundantSrc, nil)
			mgr := testutil.NewMgr(t)
			optOpts := func() []vm.Option {
				return []vm.Option{vm.WithOptimizer(guestopt.New(guestopt.All()))}
			}
			o := testutil.RunOpts{Input: []uint64{5, 3}, Options: optOpts()}
			var cold *vm.Result
			if format == "migrated" {
				v := w.NewVM(t, o)
				var err error
				if cold, err = v.Run(); err != nil {
					t.Fatal(err)
				}
				cf, _ := core.BuildCacheFile(v)
				testutil.WriteLegacy(t, mgr.Dir(), cf)
				if _, err := mgr.MigrateToStore(); err != nil {
					t.Fatal(err)
				}
			} else {
				o.Commit = true
				cold = w.Run(t, mgr, o)
			}
			if cold.Stats.TracesOptimized == 0 {
				t.Fatal("cold run optimized nothing")
			}

			var prime core.PrimeReport
			warm := w.Run(t, mgr, testutil.RunOpts{
				Input: []uint64{5, 3}, Prime: true, WantPrime: &prime, Options: optOpts(),
			})
			if prime.Installed == 0 {
				t.Fatalf("warm run installed nothing: %+v", prime)
			}
			if warm.Stats.TracesOptimized != 0 {
				t.Fatal("warm run re-optimized persisted traces")
			}
			if warm.ExitCode != cold.ExitCode || !bytes.Equal(warm.Output, cold.Output) {
				t.Fatal("warm optimized run diverged from cold")
			}
			// The installed traces really are the optimized forms.
			v := w.NewVM(t, testutil.RunOpts{Input: []uint64{5, 3}, Options: optOpts()})
			rep, err := mgr.Prime(v)
			if err != nil || rep.Installed == 0 {
				t.Fatalf("prime: %v %+v", err, rep)
			}
			optimized := 0
			for _, tr := range v.Cache().Traces() {
				if tr.OptLevel > 0 {
					optimized++
					if err := vm.CheckOptMeta(tr.OptLevel, tr.OrigLen, tr.SrcIdx, len(tr.Insts)); err != nil {
						t.Fatalf("installed trace has bad opt metadata: %v", err)
					}
				}
			}
			if optimized == 0 {
				t.Fatal("no optimized traces came back from the cache")
			}

			// Behavior is still the unoptimized program's behavior.
			base := w.Run(t, testutil.NewMgr(t), testutil.RunOpts{Input: []uint64{5, 3}})
			if base.ExitCode != warm.ExitCode || !bytes.Equal(base.Output, warm.Output) {
				t.Fatal("optimized warm run diverged from the unoptimized baseline")
			}
		})
	}
}

// The GUI suite's summed warm dispatch-path ticks per pass configuration
// when TestPassAblationOnGUISuite was written. Ticks are deterministic on
// every machine; an arm may cost at most tickSlack times as much.
const (
	baselineWarmTicks  = 7_398_804
	constFoldWarmTicks = 7_359_636
	deadCodeWarmTicks  = 7_068_180
	deadFlagWarmTicks  = 7_361_556
	loadElimWarmTicks  = 7_398_804 // loads become register copies, no fewer insts: its win needs constfold and deadcode
	allPassesWarmTicks = 6_241_140
	tickSlack          = 1.25

	// minAllPassesSaved is the acceptance bar: all passes together cut the
	// suite's warm dispatch-path ticks by at least this fraction.
	minAllPassesSaved = 0.10
)

// TestPassAblationOnGUISuite runs the five GUI applications warm, each
// primed from a cache its own cold run committed under the same optimizer
// configuration, once per pass alone, with none and with all. The warm
// measure is dispatch-path time: cached execution, dispatch, indirect
// lookups, link patching and analysis ops. Emulation-unit time (syscalls and
// signals) is OS emulation no translation-time optimizer can touch, and
// file-roller's signal-heavy session alone would drown the code signal.
// Every arm's cold runs have their rewrites proven (0 checker rejects), every
// warm run primes, re-optimizes nothing and behaves as the baseline's, and
// all passes save >= 10 %.
func TestPassAblationOnGUISuite(t *testing.T) {
	gui, err := workload.BuildGUISuite()
	if err != nil {
		t.Fatal(err)
	}
	cfg := loader.Config{Placement: loader.PlaceHashed}
	arms := []struct {
		name string
		cfg  guestopt.Config
		want uint64
	}{
		{"baseline", guestopt.Config{}, baselineWarmTicks},
		{"constfold", guestopt.Config{ConstFold: true}, constFoldWarmTicks},
		{"deadcode", guestopt.Config{DeadCode: true}, deadCodeWarmTicks},
		{"deadflag", guestopt.Config{DeadFlag: true}, deadFlagWarmTicks},
		{"loadelim", guestopt.Config{LoadElim: true}, loadElimWarmTicks},
		{"all", guestopt.All(), allPassesWarmTicks},
	}
	var base, all uint64
	baseOut := make(map[string]*vm.Result)
	for _, arm := range arms {
		mgr := testutil.NewMgr(t)
		launch := func(app *workload.GUIApp, warm bool) *vm.Result {
			t.Helper()
			// The startup session, eight times over, so the warm measure
			// is steady-state execution rather than entry effects.
			in := workload.Input{Name: app.Startup.Name + ".opt"}
			for _, u := range app.Startup.Units {
				u.Iters *= 8
				in.Units = append(in.Units, u)
			}
			var opts []vm.Option
			if arm.cfg.Enabled() {
				opts = append(opts, vm.WithOptimizer(guestopt.New(arm.cfg)))
			}
			v, err := app.Prog.NewVM(cfg, in, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if warm {
				if rep, err := mgr.Prime(v); err != nil || rep.Installed == 0 {
					t.Fatalf("%s/%s: warm run primed nothing: %+v, %v", arm.name, app.Name, rep, err)
				}
			}
			res, err := v.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !warm {
				if _, err := mgr.Commit(v); err != nil {
					t.Fatal(err)
				}
			}
			return res
		}
		var ticks, rejects uint64
		for _, app := range gui.Apps {
			rejects += launch(app, false).Stats.OptRejects
			warm := launch(app, true)
			if b := baseOut[app.Name]; b == nil {
				baseOut[app.Name] = warm
			} else if warm.ExitCode != b.ExitCode || !bytes.Equal(warm.Output, b.Output) {
				t.Errorf("%s/%s: warm run diverged from the baseline's", arm.name, app.Name)
			}
			s := warm.Stats
			if s.TracesOptimized != 0 {
				t.Errorf("%s/%s: warm run re-optimized %d persisted traces", arm.name, app.Name, s.TracesOptimized)
			}
			ticks += s.ExecTicks + s.DispatchTicks + s.IndirectTicks + s.LinkTicks + s.OpTicks
		}
		if rejects != 0 {
			t.Errorf("%s: equivalence checker rejected %d engine rewrites", arm.name, rejects)
		}
		if float64(ticks) > tickSlack*float64(arm.want) {
			t.Errorf("%s: %d warm dispatch ticks, want <= %.2fx %d", arm.name, ticks, tickSlack, arm.want)
		}
		t.Logf("%-9s %d warm dispatch ticks", arm.name, ticks)
		switch arm.name {
		case "baseline":
			base = ticks
		case "all":
			all = ticks
		}
	}
	if saved := 1 - float64(all)/float64(base); saved < minAllPassesSaved {
		t.Errorf("all passes saved %.1f%% of warm dispatch ticks, want >= %.0f%%", 100*saved, 100*minAllPassesSaved)
	}
}

// TestOptimizerKeysSeparateCaches: a cache committed with the optimizer must
// not prime a VM without it (and vice versa) — the optimizer signature is
// part of the VM key.
func TestOptimizerKeysSeparateCaches(t *testing.T) {
	w := testutil.BuildWorld(t, "app", redundantSrc, nil)
	mgr := testutil.NewMgr(t)
	w.Run(t, mgr, testutil.RunOpts{
		Input: []uint64{4, 2}, Commit: true,
		Options: []vm.Option{vm.WithOptimizer(guestopt.New(guestopt.All()))},
	})
	var prime core.PrimeReport
	w.Run(t, mgr, testutil.RunOpts{Input: []uint64{4, 2}, Prime: true, WantPrime: &prime})
	if prime.Found || prime.Installed != 0 {
		t.Fatalf("optimizer cache leaked into a plain VM: %+v", prime)
	}
	// Different pass configurations also key separately.
	var p2 core.PrimeReport
	w.Run(t, mgr, testutil.RunOpts{
		Input: []uint64{4, 2}, Prime: true, WantPrime: &p2,
		Options: []vm.Option{vm.WithOptimizer(guestopt.New(guestopt.Config{ConstFold: true}))},
	})
	if p2.Found || p2.Installed != 0 {
		t.Fatalf("cache for a different pass set leaked: %+v", p2)
	}
}

// TestRejectionFallsBackToUnoptimized proves the end-to-end safety story:
// a miscompiling pass (injected via Config.Mutate) is caught by the checker
// on every trace, the VM installs the unoptimized form, behavior is
// untouched, and the reject counters fire.
func TestRejectionFallsBackToUnoptimized(t *testing.T) {
	w := testutil.BuildWorld(t, "app", testutil.MainSrc, map[string]string{"libwork": testutil.LibWork})
	cfg := guestopt.All()
	cfg.Mutate = func(insts []isa.Inst) {
		for i := range insts {
			if isa.Classify(insts[i].Op) == isa.ClassALU && insts[i].Op != isa.OpNop {
				insts[i].Imm ^= 0x55
				return
			}
		}
	}
	reg := metrics.NewRegistry()
	o := guestopt.New(cfg)
	o.BindMetrics(reg)
	res := w.Run(t, testutil.NewMgr(t), testutil.RunOpts{
		Input:   []uint64{7, 9},
		Options: []vm.Option{vm.WithOptimizer(o), vm.WithMetrics(reg)},
	})
	if res.Stats.OptRejects == 0 {
		t.Fatal("miscompiled rewrites were not rejected")
	}
	if res.Stats.TracesOptimized != 0 {
		t.Fatalf("%d miscompiled traces installed", res.Stats.TracesOptimized)
	}
	if got, ok := reg.Snapshot().Value("pcc_guestopt_reject_total"); !ok || got == 0 {
		t.Fatalf("pcc_guestopt_reject_total = %v (ok=%v)", got, ok)
	}
	base := w.Run(t, testutil.NewMgr(t), testutil.RunOpts{Input: []uint64{7, 9}})
	if base.ExitCode != res.ExitCode || !bytes.Equal(base.Output, res.Output) {
		t.Fatal("rejected rewrites leaked into execution")
	}
}

// TestLongTracesThroughVM runs gcc under the longest limit the trace-length
// ablation sweeps (64 instructions, twice the default): the optimizer sizes
// its working memory from each trace, so longer ones are optimized and
// proven like any other and the program behaves as it does unoptimized.
func TestLongTracesThroughVM(t *testing.T) {
	gcc, err := workload.BuildSpecBenchmark("176.gcc")
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...vm.Option) *vm.Result {
		v, err := gcc.Prog.NewVM(loader.Config{}, gcc.Train[0], append([]vm.Option{vm.WithMaxTrace(64)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base, opt := run(), run(vm.WithOptimizer(guestopt.New(guestopt.All())))
	if opt.Stats.OptRejects != 0 || opt.Stats.TracesOptimized == 0 {
		t.Fatalf("%d traces optimized, %d rejected", opt.Stats.TracesOptimized, opt.Stats.OptRejects)
	}
	if base.ExitCode != opt.ExitCode || !bytes.Equal(base.Output, opt.Output) {
		t.Fatal("optimizing 64-instruction traces changed program behavior")
	}
}
