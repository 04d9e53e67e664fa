package persistcc_test

// One benchmark per paper table/figure: each regenerates the corresponding
// experiment (internal/experiments) end to end — workload construction is
// cached per process, so the measured time is the evaluation itself.
// Run with:
//
//	go test -bench=. -benchmem
//
// Micro-benchmarks for the substrate (translation, interpretation,
// persistence round trips) follow the figure benchmarks.

import (
	"os"
	"testing"

	"persistcc"
	"persistcc/internal/core"
	"persistcc/internal/experiments"
	"persistcc/internal/guestopt"
	"persistcc/internal/loader"
	"persistcc/internal/testprog"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Body == "" {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig2aTimelines(b *testing.B)      { benchExperiment(b, "fig2a") }
func BenchmarkFig2bGUIStartup(b *testing.B)     { benchExperiment(b, "fig2b") }
func BenchmarkTable1LibCode(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkTable2CommonLibs(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkFig4CodeInvariance(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5aSameInput(b *testing.B)      { benchExperiment(b, "fig5a") }
func BenchmarkFig5bInstrumented(b *testing.B)   { benchExperiment(b, "fig5b") }
func BenchmarkTable3aGCCCoverage(b *testing.B)  { benchExperiment(b, "table3a") }
func BenchmarkTable3bOracleCov(b *testing.B)    { benchExperiment(b, "table3b") }
func BenchmarkFig6aGCCCrossInput(b *testing.B)  { benchExperiment(b, "fig6a") }
func BenchmarkFig6bOracleCross(b *testing.B)    { benchExperiment(b, "fig6b") }
func BenchmarkFig7aGCCAccumulate(b *testing.B)  { benchExperiment(b, "fig7a") }
func BenchmarkFig7bOracleAccum(b *testing.B)    { benchExperiment(b, "fig7b") }
func BenchmarkTable4LibCoverage(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkFig8InterApp(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9CacheSizes(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkOracleRegression(b *testing.B)    { benchExperiment(b, "oracle") }
func BenchmarkPreTranslate(b *testing.B)        { benchExperiment(b, "pretranslate") }
func BenchmarkAblationTraceLen(b *testing.B)    { benchExperiment(b, "ablation-tracelen") }
func BenchmarkAblationRelocatable(b *testing.B) { benchExperiment(b, "ablation-reloc") }
func BenchmarkAblationFlush(b *testing.B)       { benchExperiment(b, "ablation-flush") }

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks
// ---------------------------------------------------------------------------

const benchLoop = `
.text
.global _start
_start:
	movi t1, 0x08000000
	ld   s0, 0(t1)
	movi s1, 0
loop:
	beqz s0, done
	add  s1, s1, s0
	sd   s1, -8(sp)
	ld   s2, -8(sp)
	xor  s1, s1, s2
	addi s0, s0, -1
	j    loop
done:
	mv   a1, s1
	movi a0, 1
	sys
	halt
`

func benchVM(b *testing.B, native bool, iters uint64) {
	exe, libs, err := testprog.Build("bench", benchLoop, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		p, err := testprog.Load(exe, libs, loader.Config{})
		if err != nil {
			b.Fatal(err)
		}
		v := vm.New(p, vm.WithInput([]uint64{iters}))
		var res *vm.Result
		if native {
			res, err = v.RunNative()
		} else {
			res, err = v.Run()
		}
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Stats.InstsExecuted
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

func BenchmarkInterpreter(b *testing.B)   { benchVM(b, true, 200_000) }
func BenchmarkCodeCacheExec(b *testing.B) { benchVM(b, false, 200_000) }

// gftp is the first application of the GUI suite, the launch the paper's
// headline figure is about.
func gftp(b *testing.B) *workload.GUIApp {
	gui, err := workload.BuildGUISuite()
	if err != nil {
		b.Fatal(err)
	}
	return gui.Apps[0]
}

// BenchmarkLoaderLoadGUI is the fixed cost at the front of every launch:
// mapping gftp and its libraries, stack, heap and input block.
func BenchmarkLoaderLoadGUI(b *testing.B) {
	app := gftp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := app.Prog.Load(loader.Config{Placement: loader.PlaceHashed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLaunchWarmGUI is one warm launch end to end through the facade:
// load, prime from a seeded store database, run the start-up, commit.
func BenchmarkLaunchWarmGUI(b *testing.B) {
	app := gftp(b)
	dir, err := os.MkdirTemp("", "pcc-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	o := persistcc.RunOptions{
		Input:   app.Startup.Words(),
		Loader:  persistcc.LoaderConfig{Placement: persistcc.PlaceHashed},
		Persist: true, StoreFormat: true, CacheDir: dir,
	}
	if _, err := persistcc.Run(app.Prog.Exe, app.Prog.Libs, o); err != nil { // seeds the database
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := persistcc.Run(app.Prog.Exe, app.Prog.Libs, o)
		if err != nil {
			b.Fatal(err)
		}
		if out.Stats.InstsTranslated != 0 {
			b.Fatalf("warm launch translated %d instructions", out.Stats.InstsTranslated)
		}
	}
}

func BenchmarkTranslation(b *testing.B) {
	// Translation throughput: a fresh VM translating gcc's footprint once.
	gcc, err := workload.BuildSpecBenchmark("176.gcc")
	if err != nil {
		b.Fatal(err)
	}
	in := gcc.Train[0]
	b.ReportAllocs()
	b.ResetTimer()
	var translated uint64
	for i := 0; i < b.N; i++ {
		v, err := gcc.Prog.NewVM(loader.Config{}, in)
		if err != nil {
			b.Fatal(err)
		}
		res, err := v.Run()
		if err != nil {
			b.Fatal(err)
		}
		translated += res.Stats.InstsTranslated
	}
	b.ReportMetric(float64(translated)/b.Elapsed().Seconds()/1e6, "Minst-translated/s")
}

func BenchmarkPersistCommit(b *testing.B) {
	gcc, err := workload.BuildSpecBenchmark("176.gcc")
	if err != nil {
		b.Fatal(err)
	}
	v, err := gcc.Prog.NewVM(loader.Config{}, gcc.Train[0])
	if err != nil {
		b.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		b.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "pcc-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	mgr, err := core.NewManager(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.Commit(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPersistPrime(b *testing.B) {
	gcc, err := workload.BuildSpecBenchmark("176.gcc")
	if err != nil {
		b.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "pcc-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	mgr, err := core.NewManager(dir)
	if err != nil {
		b.Fatal(err)
	}
	v, err := gcc.Prog.NewVM(loader.Config{}, gcc.Train[0])
	if err != nil {
		b.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		b.Fatal(err)
	}
	if _, err := mgr.Commit(v); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var installed int
	for i := 0; i < b.N; i++ {
		v2, err := gcc.Prog.NewVM(loader.Config{}, gcc.Train[0])
		if err != nil {
			b.Fatal(err)
		}
		rep, err := mgr.Prime(v2)
		if err != nil {
			b.Fatal(err)
		}
		installed += rep.Installed
	}
	if installed == 0 {
		b.Fatal("prime installed nothing")
	}
}

func BenchmarkAssembler(b *testing.B) {
	// Assembling a realistic module (one gcc-sized region).
	prog, err := workload.BuildProgram(workload.ProgSpec{
		Name: "asmbench", Seed: 1,
		Regions: []workload.RegionSpec{{Funcs: 200, Module: 0}},
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = prog
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.BuildProgram(workload.ProgSpec{
			Name: "asmbench", Seed: 1,
			Regions: []workload.RegionSpec{{Funcs: 200, Module: 0}},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarmupCurve(b *testing.B) { benchExperiment(b, "warmup") }

func BenchmarkMultiProcWarmup(b *testing.B) { benchExperiment(b, "multiproc") }

func BenchmarkSpecInstrumented(b *testing.B) { benchExperiment(b, "spec-instr") }

func BenchmarkShellTools(b *testing.B) { benchExperiment(b, "shelltools") }

func BenchmarkPipelineWarmup(b *testing.B) { benchExperiment(b, "pipeline") }

func BenchmarkDedup(b *testing.B) { benchExperiment(b, "dedup") }

func BenchmarkFleetWarmup(b *testing.B) { benchExperiment(b, "fleet") }

func BenchmarkOptimizedWarmup(b *testing.B) {
	// BenchmarkStoreWarmup with the translation-time optimizer attached:
	// the cold run commits checker-proven optimized traces, and the warm
	// path primes them pre-optimized (the optimizer's early return is the
	// only per-install cost). Gated alongside the optimize experiment so
	// optimized-warm regressions surface in bench-smoke.
	gcc, err := workload.BuildSpecBenchmark("176.gcc")
	if err != nil {
		b.Fatal(err)
	}
	optOpt := func() vm.Option { return vm.WithOptimizer(guestopt.New(guestopt.All())) }
	dir, err := os.MkdirTemp("", "pcc-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	mgr, err := core.NewManager(dir, core.WithStore())
	if err != nil {
		b.Fatal(err)
	}
	v, err := gcc.Prog.NewVM(loader.Config{}, gcc.Train[0], optOpt())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		b.Fatal(err)
	}
	if _, err := mgr.Commit(v); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var installed int
	for i := 0; i < b.N; i++ {
		v2, err := gcc.Prog.NewVM(loader.Config{}, gcc.Train[0], optOpt())
		if err != nil {
			b.Fatal(err)
		}
		rep, err := mgr.Prime(v2)
		if err != nil {
			b.Fatal(err)
		}
		installed += rep.Installed
	}
	if installed == 0 {
		b.Fatal("optimized prime installed nothing")
	}
}

func BenchmarkStoreWarmup(b *testing.B) {
	// BenchmarkPersistPrime over the content-addressed store format: the
	// warm path resolves the manifest and materializes every trace from
	// shared blobs (L1 decoded map after the first iteration).
	gcc, err := workload.BuildSpecBenchmark("176.gcc")
	if err != nil {
		b.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "pcc-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	mgr, err := core.NewManager(dir, core.WithStore())
	if err != nil {
		b.Fatal(err)
	}
	v, err := gcc.Prog.NewVM(loader.Config{}, gcc.Train[0])
	if err != nil {
		b.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		b.Fatal(err)
	}
	if _, err := mgr.Commit(v); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var installed int
	for i := 0; i < b.N; i++ {
		v2, err := gcc.Prog.NewVM(loader.Config{}, gcc.Train[0])
		if err != nil {
			b.Fatal(err)
		}
		rep, err := mgr.Prime(v2)
		if err != nil {
			b.Fatal(err)
		}
		installed += rep.Installed
	}
	if installed == 0 {
		b.Fatal("store prime installed nothing")
	}
}
