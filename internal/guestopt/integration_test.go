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
