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
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"persistcc"
	"persistcc/internal/core"
	"persistcc/internal/experiments"
	"persistcc/internal/guestopt"
	"persistcc/internal/isa"
	"persistcc/internal/loader"
	"persistcc/internal/metrics"
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

// BenchmarkSpecSteadyExec is the steady state the paper's improvement
// figures are normalised against, as bench/'s spec-steady workload runs it:
// warm launches of the ten SPEC models other than 176.gcc on their first
// Reference input, through the facade, against databases seeded beforehand.
// Nothing is translated, so ns/inst is the cost of executing one cached
// guest instruction (plus a launch's fixed costs spread over ~3.6 M of
// them); it is the in-tree target for profiling execTrace.
func BenchmarkSpecSteadyExec(b *testing.B) {
	type launch struct {
		bench *workload.SpecBenchmark
		opts  persistcc.RunOptions
	}
	var launches []launch
	for _, name := range workload.SpecNames() {
		if name == "176.gcc" {
			continue // its warm run is prime-bound, not execution-bound
		}
		sb, err := workload.BuildSpecBenchmark(name)
		if err != nil {
			b.Fatal(err)
		}
		o := persistcc.RunOptions{Input: sb.Ref[0].Words(), Persist: true, CacheDir: b.TempDir()}
		if _, err := persistcc.Run(sb.Prog.Exe, sb.Prog.Libs, o); err != nil {
			b.Fatal(err)
		}
		launches = append(launches, launch{sb, o})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		for _, l := range launches {
			out, err := persistcc.Run(l.bench.Prog.Exe, l.bench.Prog.Libs, l.opts)
			if err != nil {
				b.Fatal(err)
			}
			if out.Stats.InstsTranslated != 0 {
				b.Fatalf("%s: warm launch translated %d instructions", l.bench.Name, out.Stats.InstsTranslated)
			}
			insts += out.Stats.InstsExecuted
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}

// gftp is the first application of the GUI suite, the launch the paper's
// headline figure is about.
func gftp(tb testing.TB) *workload.GUIApp {
	gui, err := workload.BuildGUISuite()
	if err != nil {
		tb.Fatal(err)
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

// warmGFTP seeds a store database with one gftp start-up and returns the
// options that launch it warm through the facade.
func warmGFTP(tb testing.TB) (*workload.GUIApp, persistcc.RunOptions) {
	app := gftp(tb)
	o := persistcc.RunOptions{
		Input:   app.Startup.Words(),
		Loader:  persistcc.LoaderConfig{Placement: persistcc.PlaceHashed},
		Persist: true, CacheDir: tb.TempDir(),
	}
	if _, err := persistcc.Run(app.Prog.Exe, app.Prog.Libs, o); err != nil {
		tb.Fatal(err)
	}
	return app, o
}

// warmLaunch is one warm launch end to end: load, prime from the seeded
// database, run the start-up, commit.
func warmLaunch(tb testing.TB, app *workload.GUIApp, o persistcc.RunOptions) {
	out, err := persistcc.Run(app.Prog.Exe, app.Prog.Libs, o)
	if err != nil {
		tb.Fatal(err)
	}
	if out.Stats.InstsTranslated != 0 || out.Prime.Installed == 0 || !out.Commit.Skipped {
		tb.Fatalf("not a warm launch: translated %d instructions, primed %d traces, commit %+v",
			out.Stats.InstsTranslated, out.Prime.Installed, out.Commit)
	}
}

func BenchmarkLaunchWarmGUI(b *testing.B) {
	app, o := warmGFTP(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warmLaunch(b, app, o)
	}
}

// BenchmarkPrimeWarmGUI is the prime alone, as a launch pays it: a fresh
// manager opens the store, reads the manifest, inflates the pack, verifies
// and decodes every blob and installs the traces. Loading the process the
// traces go into is not timed.
func BenchmarkPrimeWarmGUI(b *testing.B) {
	app, o := warmGFTP(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		v, err := app.Prog.NewVM(loader.Config{Placement: loader.PlaceHashed}, app.Startup)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		mgr, err := core.NewManager(o.CacheDir)
		if err != nil {
			b.Fatal(err)
		}
		if rep, err := mgr.Prime(v); err != nil || rep.Installed == 0 || rep.Invalidated() != 0 {
			b.Fatalf("prime: %+v, %v", rep, err)
		}
	}
}

// TestWarmLaunchAllocBudget is the hard gate on what a warm launch
// allocates, beside the loader's (TestLoadAllocBudget): one gftp start-up
// through persistcc.Run against a seeded store database. Everything in it is
// deterministic, so the numbers are too: 992 allocations and 1.335 MB (998
// and 1.336 MB under -race), against 3 828 and 1.67 MB (1.69 MB) while each
// primed trace's exits, notes and link slots were allocated on their own,
// the manifest's traces and refs grew by doubling, page-table leaves were
// 8 KB and the loader's tables grew from empty, 3 847 and 1.74 MB (1.76 MB)
// while the commit built the run's whole cache file and took the database
// lock to find it added nothing, 3 953 and 1.98 MB while obj.File.Digest
// built each module's whole encoding to hash it, and 17 674 and 3.46 MB when
// every primed trace was decoded into a Blob, copied into a trace, copied
// again and given liveness vectors twice. The budget is those numbers and
// under 10 % more.
func TestWarmLaunchAllocBudget(t *testing.T) {
	const maxBytes, maxAllocs = 1_460_000, 1090
	app, o := warmGFTP(t)
	launch := func() { warmLaunch(t, app, o) }
	launch() // one-time initialisation (codec pools, lazily built tables) is not the launch's cost
	if allocs := testing.AllocsPerRun(10, launch); allocs > maxAllocs {
		t.Errorf("a warm launch makes %.0f allocations, budget %d", allocs, maxAllocs)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		launch()
	}
	runtime.ReadMemStats(&after)
	if perLaunch := (after.TotalAlloc - before.TotalAlloc) / runs; perLaunch > maxBytes {
		t.Errorf("a warm launch allocates %d bytes, budget %d", perLaunch, maxBytes)
	}
}

// coldLaunch is one cold launch end to end into the empty database at dir:
// load, find nothing to prime, translate the start-up, commit every trace.
func coldLaunch(tb testing.TB, app *workload.GUIApp, dir string) {
	out, err := persistcc.Run(app.Prog.Exe, app.Prog.Libs, persistcc.RunOptions{
		Input:   app.Startup.Words(),
		Loader:  persistcc.LoaderConfig{Placement: persistcc.PlaceHashed},
		Persist: true, CacheDir: dir,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if out.Stats.InstsTranslated == 0 || out.Prime.Installed != 0 || out.Commit.NewTraces == 0 {
		tb.Fatalf("not a cold launch: translated %d instructions, primed %d traces, commit %+v",
			out.Stats.InstsTranslated, out.Prime.Installed, out.Commit)
	}
}

// emptyDirs makes n empty database directories under one temp directory,
// so that making them is not part of what a launch is measured for.
func emptyDirs(tb testing.TB, n int) []string {
	root := tb.TempDir()
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(root, strconv.Itoa(i))
		if err := os.Mkdir(dirs[i], 0o755); err != nil {
			tb.Fatal(err)
		}
	}
	return dirs
}

// BenchmarkLaunchColdGUI is gftp's first launch, into an empty database
// each time: the path a memory profile of the commit's encoding is taken on
// (-memprofile).
func BenchmarkLaunchColdGUI(b *testing.B) {
	app := gftp(b)
	dirs := emptyDirs(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldLaunch(b, app, dirs[i])
	}
}

// TestColdLaunchAllocBudget is the hard gate on what a cold launch
// allocates, beside the warm one's: one gftp start-up through
// persistcc.Run into an empty database, which translates every trace and
// commits them all. Everything in it is deterministic, so the numbers are
// too: 3 214 allocations and 1.50 MB (3 218 and 1.52 MB under -race),
// against 4 750 and 1.63 MB (1.65 MB) while each translated trace's struct
// and link slots were allocated on their own, and 15 051
// and 2.45 MB (2.49 MB) while the commit copied each trace into a Blob and
// encoded every blob into a buffer of its own that grew as it was filled,
// translation appended fetched instructions to a growing slice, and the
// store's index map and its list of new blobs grew from empty. The budget
// is those numbers and under 10 % more.
func TestColdLaunchAllocBudget(t *testing.T) {
	const maxBytes, maxAllocs = 1_650_000, 3500
	app := gftp(t)
	const runs = 10
	// One database for the warm-up, one for AllocsPerRun's own, and one for
	// each run of AllocsPerRun and of the loop below.
	dirs := emptyDirs(t, 2+2*runs)
	coldLaunch(t, app, dirs[0]) // one-time initialisation (codec pools, lazily built tables) is not the launch's cost
	next := 1
	launch := func() { coldLaunch(t, app, dirs[next]); next++ }
	if allocs := testing.AllocsPerRun(runs, launch); allocs > maxAllocs {
		t.Errorf("a cold launch makes %.0f allocations, budget %d", allocs, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		launch()
	}
	runtime.ReadMemStats(&after)
	if perLaunch := (after.TotalAlloc - before.TotalAlloc) / runs; perLaunch > maxBytes {
		t.Errorf("a cold launch allocates %d bytes, budget %d", perLaunch, maxBytes)
	}
}

// traceTap records the traces a VM hands its optimizer, as decoded, before
// any pass has run.
type traceTap struct{ traces []*vm.Trace }

func (c *traceTap) Optimize(t *vm.Trace) vm.OptOutcome {
	c.traces = append(c.traces, &vm.Trace{
		Start: t.Start, Module: t.Module, ModOff: t.ModOff,
		Insts: append([]isa.Inst(nil), t.Insts...),
		Notes: append([]vm.RelocNote(nil), t.Notes...),
	})
	return vm.OptOutcome{}
}

// gccTraces returns every trace a cold 176.gcc Train[0] launch translates.
func gccTraces(tb testing.TB) (*workload.SpecBenchmark, []*vm.Trace) {
	gcc, err := workload.BuildSpecBenchmark("176.gcc")
	if err != nil {
		tb.Fatal(err)
	}
	tap := &traceTap{}
	v, err := gcc.Prog.NewVM(loader.Config{}, gcc.Train[0], vm.WithOptimizer(tap))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		tb.Fatal(err)
	}
	return gcc, tap.traces
}

// BenchmarkOptimizeGCC is guestopt alone — analyse, rewrite, prove — over
// gcc's pre-decoded traces through one Optimizer, as one VM would drive it:
// the in-tree profile target for what gcc-translate-opt adds to
// gcc-translate (add -cpuprofile to see the engine and the checker apart).
func BenchmarkOptimizeGCC(b *testing.B) {
	_, traces := gccTraces(b)
	o := guestopt.New(guestopt.All())
	var notes []vm.RelocNote
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range traces {
			tr := *src // Optimize replaces Insts and SrcIdx, and remaps Notes in place
			notes = append(notes[:0], src.Notes...)
			tr.Notes = notes
			if o.Optimize(&tr).Rejected {
				b.Fatalf("trace %#x rejected", tr.Start)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * len(traces))
	b.ReportMetric(float64(b.Elapsed().Microseconds())/n, "us/trace")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/trace")
}

// TestOptimizeAllocBudget is the hard gate on the optimizer's memory, beside
// the warm launch's: the passes and the prover work in one scratch the
// Optimizer owns, so (1) a trace they leave unchanged costs no allocation at
// all, and (2) a cold optimized gcc launch allocates little more than a
// plain one — the exact-size Insts and SrcIdx of the ~1 100 traces it
// rewrites (2.7 MB against 2.6 MB when this was written; 21.9 MB when every
// trace built its own maps and expression nodes).
func TestOptimizeAllocBudget(t *testing.T) {
	gcc, traces := gccTraces(t)
	o := guestopt.New(guestopt.All())
	o.BindMetrics(metrics.NewRegistry())
	var unchanged []*vm.Trace
	for _, src := range traces {
		tr := *src
		tr.Notes = append([]vm.RelocNote(nil), src.Notes...)
		if out := o.Optimize(&tr); out.Level == 0 && !out.Rejected {
			unchanged = append(unchanged, src) // left as it came: safe to offer again
		}
	}
	if len(unchanged) == 0 {
		t.Fatal("every gcc trace was rewritten; the unchanged path is untested")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for _, tr := range unchanged {
			o.Optimize(tr)
		}
	}); allocs != 0 {
		t.Errorf("Optimize over %d unchanged traces makes %.0f allocations, want 0", len(unchanged), allocs)
	}

	launchBytes := func(optimize bool) uint64 {
		opts := persistcc.RunOptions{Input: gcc.Train[0].Words(), Optimize: optimize}
		launch := func() {
			if _, err := persistcc.Run(gcc.Prog.Exe, gcc.Prog.Libs, opts); err != nil {
				t.Fatal(err)
			}
		}
		launch()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			launch()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	plain, optimized := launchBytes(false), launchBytes(true)
	if budget := plain*3/2 + 1<<20; optimized > budget {
		t.Errorf("a cold optimized gcc launch allocates %d bytes, a plain one %d: budget %d", optimized, plain, budget)
	}
	t.Logf("cold gcc launch: %d bytes plain, %d optimized", plain, optimized)
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

func BenchmarkSpecInstrumented(b *testing.B) { benchExperiment(b, "spec-instr") }

func BenchmarkShellTools(b *testing.B) { benchExperiment(b, "shelltools") }

func BenchmarkOptimizedWarmup(b *testing.B) {
	// BenchmarkStoreWarmup with the translation-time optimizer attached:
	// the cold run commits checker-proven optimized traces, and the warm
	// path primes them pre-optimized (the optimizer's early return is the
	// only per-install cost).
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
	mgr, err := core.NewManager(dir)
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
	// warm path resolves the manifest and decodes every trace straight out
	// of the shared packs (store.LocalTraces).
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
		b.Fatal("store prime installed nothing")
	}
}
