package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"persistcc/internal/core"
	"persistcc/internal/instr"
	"persistcc/internal/isa"
	"persistcc/internal/loader"
	"persistcc/internal/testprog"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
)

// The cold/warm-run scaffolding (world building, prime/run/commit driver,
// temporary databases) lives in internal/testutil, shared with the root
// package's CLI and equivalence suites.
const (
	libWork = testutil.LibWork
	mainSrc = testutil.MainSrc
)

// readEntry reads and verifies the database entry named file, either
// format, as a lookup reads it; a missing or quarantined entry is an error.
func readEntry(mgr *core.Manager, file string) (*core.CacheFile, error) {
	cf, err := mgr.ReadPrior(file)
	if err == nil && cf == nil {
		err = fmt.Errorf("%s: missing or quarantined", file)
	}
	return cf, err
}

func TestSameInputPersistence(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr := testutil.NewMgr(t)

	first := w.Run(t, mgr, testutil.RunOpts{Input: []uint64{50}, Commit: true})
	var rep core.PrimeReport
	second := w.Run(t, mgr, testutil.RunOpts{Input: []uint64{50}, Prime: true, WantPrime: &rep})

	if first.ExitCode != second.ExitCode {
		t.Fatalf("exit codes differ: %d vs %d", first.ExitCode, second.ExitCode)
	}
	if !rep.Found || rep.Installed == 0 || rep.Invalidated() != 0 {
		t.Fatalf("prime report: %+v", rep)
	}
	if second.Stats.TracesTranslated != 0 {
		t.Errorf("same-input reuse still translated %d traces", second.Stats.TracesTranslated)
	}
	if second.Stats.TracesReused == 0 {
		t.Error("no traces reused")
	}
	if second.Stats.Ticks >= first.Stats.Ticks {
		t.Errorf("persistence did not improve: %d >= %d ticks", second.Stats.Ticks, first.Stats.Ticks)
	}
	if second.Stats.TransTicks != 0 {
		t.Errorf("VM overhead not eliminated: %d", second.Stats.TransTicks)
	}
}

func TestNoCacheIsGraceful(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr := testutil.NewMgr(t)
	var rep core.PrimeReport
	res := w.Run(t, mgr, testutil.RunOpts{Input: []uint64{5}, Prime: true, WantPrime: &rep})
	if rep.Found {
		t.Error("found a cache in an empty database")
	}
	if res.ExitCode == 0 {
		t.Error("program did not run")
	}
}

func TestCrossInputReuseAndAccumulation(t *testing.T) {
	// Input selects which function to pound on; cold paths differ.
	src := `
.text
.global _start
_start:
	movi t1, 0x08000000
	ld   s0, 0(t1)      ; selector
	ld   s1, 8(t1)      ; iterations
	movi s2, 0
	bnez s0, useb
loopa:
	beqz s1, done
	mv   a0, s2
	call fa
	mv   s2, a0
	addi s1, s1, -1
	j    loopa
useb:
loopb:
	beqz s1, done
	mv   a0, s2
	call fb
	mv   s2, a0
	addi s1, s1, -1
	j    loopb
done:
	mv   a1, s2
	movi a0, 1
	sys
	halt
fa:	addi a0, a0, 3
	ret
fb:	addi a0, a0, 7
	ret
`
	w := testutil.BuildWorld(t, "prog", src, nil)
	mgr := testutil.NewMgr(t)

	// Input A (selector 0) creates the cache.
	w.Run(t, mgr, testutil.RunOpts{Input: []uint64{0, 40}, Commit: true})

	// Input B (selector 1) reuses common code (startup, dispatcher) but
	// must translate its own loop, then accumulates it.
	var repB core.PrimeReport
	resB := w.Run(t, mgr, testutil.RunOpts{Input: []uint64{1, 40}, Prime: true, Commit: true, WantPrime: &repB})
	if repB.Installed == 0 {
		t.Fatal("cross-input reuse installed nothing")
	}
	if resB.Stats.TracesTranslated == 0 {
		t.Fatal("input B should have discovered new code")
	}
	if resB.ExitCode != 40*7 {
		t.Fatalf("input B exit = %d", resB.ExitCode)
	}

	// After accumulation, both inputs hit 100%.
	var repA2, repB2 core.PrimeReport
	a2 := w.Run(t, mgr, testutil.RunOpts{Input: []uint64{0, 40}, Prime: true, WantPrime: &repA2})
	b2 := w.Run(t, mgr, testutil.RunOpts{Input: []uint64{1, 40}, Prime: true, WantPrime: &repB2})
	if a2.Stats.TracesTranslated != 0 || b2.Stats.TracesTranslated != 0 {
		t.Errorf("accumulated cache incomplete: A translated %d, B translated %d",
			a2.Stats.TracesTranslated, b2.Stats.TracesTranslated)
	}
	if repA2.CacheTraces != repB2.CacheTraces {
		t.Errorf("cache sizes differ between primes: %d vs %d", repA2.CacheTraces, repB2.CacheTraces)
	}
}

func TestBaseConflictInvalidation(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr := testutil.NewMgr(t)

	seed1 := loader.Config{Placement: loader.PlaceASLR, ASLRSeed: 11}
	seed2 := loader.Config{Placement: loader.PlaceASLR, ASLRSeed: 22}
	first := w.Run(t, mgr, testutil.RunOpts{Input: []uint64{30}, Cfg: seed1, Commit: true})

	var rep core.PrimeReport
	second := w.Run(t, mgr, testutil.RunOpts{Input: []uint64{30}, Cfg: seed2, Prime: true, WantPrime: &rep})
	if second.ExitCode != first.ExitCode {
		t.Fatalf("relocated run produced wrong result: %d vs %d", second.ExitCode, first.ExitCode)
	}
	if rep.InvalidBase == 0 {
		t.Errorf("no base invalidations despite relocated library: %+v", rep)
	}
	// The library moved, so traces inside it AND exe traces calling into
	// it are invalid; exe-only traces without lib references remain.
	if second.Stats.TracesTranslated == 0 {
		t.Error("relocation should force some re-translation")
	}
}

func TestRelocatableExtensionRebases(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr := testutil.NewMgr(t, core.WithRelocatable())

	seed1 := loader.Config{Placement: loader.PlaceASLR, ASLRSeed: 11}
	seed2 := loader.Config{Placement: loader.PlaceASLR, ASLRSeed: 22}
	first := w.Run(t, mgr, testutil.RunOpts{Input: []uint64{30}, Cfg: seed1, Commit: true})

	var rep core.PrimeReport
	second := w.Run(t, mgr, testutil.RunOpts{Input: []uint64{30}, Cfg: seed2, Prime: true, WantPrime: &rep})
	if second.ExitCode != first.ExitCode {
		t.Fatalf("rebased run produced wrong result: %d vs %d (report %+v)", second.ExitCode, first.ExitCode, rep)
	}
	if rep.Rebased == 0 {
		t.Errorf("nothing rebased: %+v", rep)
	}
	if rep.InvalidBase != 0 {
		t.Errorf("base invalidations with relocation enabled: %+v", rep)
	}
	if second.Stats.TracesTranslated != 0 {
		t.Errorf("rebasing should eliminate re-translation, got %d", second.Stats.TracesTranslated)
	}
}

func TestModifiedBinaryInvalidates(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr := testutil.NewMgr(t)
	w.Run(t, mgr, testutil.RunOpts{Input: []uint64{10}, Commit: true})

	// "Recompile" the library: same exported layout, different body.
	w2 := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": `
.text
.global compute
compute:            ; a0 = a0*2 + 1, computed differently
	slli t0, a0, 1
	addi a0, t0, 1
	ret
.global coldf
coldf:
	movi a0, 98
	ret
`})
	w2.Exe = w.Exe // same executable binary
	var rep core.PrimeReport
	res := w2.Run(t, mgr, testutil.RunOpts{Input: []uint64{10}, Prime: true, WantPrime: &rep})
	if rep.InvalidContent == 0 {
		t.Errorf("modified library not detected: %+v", rep)
	}
	if res.ExitCode != 1023 {
		t.Errorf("exit = %d, want 1023", res.ExitCode)
	}
}

func TestToolKeyMismatch(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr := testutil.NewMgr(t)
	w.Run(t, mgr, testutil.RunOpts{Input: []uint64{10}, Tool: &instr.BBCount{}, Commit: true})

	// Same app, different tool: the lookup key differs, so nothing found.
	var rep core.PrimeReport
	w.Run(t, mgr, testutil.RunOpts{Input: []uint64{10}, Tool: &instr.MemTrace{}, Prime: true, WantPrime: &rep})
	if rep.Found {
		t.Error("cache found despite different tool key")
	}
	// Explicit PrimeFrom with mismatched tool key must hard-fail.
	p, err := testprog.Load(w.Exe, w.Libs, loader.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(p, vm.WithTool(&instr.MemTrace{}))
	cf, err := mgr.LookupInterApp(core.KeysFor(v))
	if !errors.Is(err, core.ErrNoCache) {
		t.Fatalf("inter-app lookup crossed tool keys: %v %v", cf, err)
	}
}

func TestVMKeyMismatch(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr := testutil.NewMgr(t)
	// Build a cache with the default trace limit, then try to reuse it
	// under a different limit (different VM key → different shapes).
	w.Run(t, mgr, testutil.RunOpts{Input: []uint64{10}, Commit: true})

	p, err := testprog.Load(w.Exe, w.Libs, loader.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(p, vm.WithMaxTrace(8))
	if _, err := mgr.Prime(v); !errors.Is(err, core.ErrNoCache) {
		t.Errorf("prime crossed VM keys: %v", err)
	}
}

func TestInterApplicationPersistence(t *testing.T) {
	lib := map[string]string{"libwork.so": libWork}
	w1 := testutil.BuildWorld(t, "app1", mainSrc, lib)
	// app2 shares the library but has its own main.
	app2Src := `
.text
.global _start
_start:
	movi s0, 25
	movi s1, 1
loop:
	beqz s0, done
	mv   a0, s1
	call compute
	mv   s1, a0
	addi s0, s0, -1
	j    loop
done:
	mv   a1, s1
	movi a0, 1
	sys
	halt
`
	w2 := testutil.BuildWorld(t, "app2", app2Src, lib)
	mgr := testutil.NewMgr(t)
	hashed := loader.Config{Placement: loader.PlaceHashed}

	w1.Run(t, mgr, testutil.RunOpts{Input: []uint64{40}, Cfg: hashed, Commit: true})

	var rep core.PrimeReport
	res := w2.Run(t, mgr, testutil.RunOpts{Cfg: hashed, InterApp: true, WantPrime: &rep})
	if !rep.Found {
		t.Fatal("inter-app lookup found nothing")
	}
	if rep.Installed == 0 {
		t.Errorf("no library translations reused: %+v", rep)
	}
	// app1's own traces must be invalid for app2 (different executable).
	if rep.InvalidMissing == 0 {
		t.Errorf("other app's exe traces not invalidated: %+v", rep)
	}
	// Correctness: compute() still produces the right chain.
	base := w2.Run(t, testutil.NewMgr(t), testutil.RunOpts{Cfg: hashed})
	if res.ExitCode != base.ExitCode {
		t.Fatalf("inter-app run wrong: %d vs %d", res.ExitCode, base.ExitCode)
	}
	// And it must be cheaper than the cold run.
	if res.Stats.TransTicks >= base.Stats.TransTicks {
		t.Errorf("inter-app reuse saved no VM overhead: %d vs %d", res.Stats.TransTicks, base.Stats.TransTicks)
	}
}

func TestCommitAccumulationCounts(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	dir := t.TempDir()
	mgr, err := core.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := testprog.Load(w.Exe, w.Libs, loader.Config{})
	v := vm.New(p, vm.WithInput([]uint64{20}))
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	rep1, err := mgr.Commit(v)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Accumulate || rep1.NewTraces != rep1.Traces || rep1.Traces == 0 {
		t.Errorf("first commit report: %+v", rep1)
	}
	// Second identical run: primes everything, commits; no new traces.
	p2, _ := testprog.Load(w.Exe, w.Libs, loader.Config{})
	v2 := vm.New(p2, vm.WithInput([]uint64{20}))
	if _, err := mgr.Prime(v2); err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Run(); err != nil {
		t.Fatal(err)
	}
	rep2, err := mgr.Commit(v2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Accumulate || rep2.NewTraces != 0 || rep2.Traces != rep1.Traces {
		t.Errorf("second commit report: %+v", rep2)
	}
	// Nothing new and an identical layout: the rewrite must be skipped
	// (and cost nothing).
	if !rep2.Skipped || rep2.Ticks != 0 {
		t.Errorf("unchanged commit not skipped: %+v", rep2)
	}
}

func TestIndexAndEntries(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr := testutil.NewMgr(t)
	w.Run(t, mgr, testutil.RunOpts{Input: []uint64{5}, Commit: true})
	entries, err := mgr.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("index entries: %+v", entries)
	}
	e := entries[0]
	if e.AppPath != "prog" || e.Traces == 0 || e.DataPool <= e.CodePool {
		t.Errorf("entry wrong: %+v", e)
	}
	if _, err := os.Stat(filepath.Join(mgr.Dir(), e.File)); err != nil {
		t.Errorf("cache file missing: %v", err)
	}
}

func TestCorruptCacheFileRejected(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr := testutil.NewMgr(t)
	w.Run(t, mgr, testutil.RunOpts{Input: []uint64{5}, Commit: true})
	entries, _ := mgr.Entries()
	entry, err := readEntry(mgr, entries[0].File)
	if err != nil {
		t.Fatal(err)
	}
	b, err := entry.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		bad := append([]byte{}, b...)
		bad[r.Intn(len(bad))] ^= byte(1 + r.Intn(255))
		var cf core.CacheFile
		if err := cf.UnmarshalBinary(bad); err == nil {
			t.Fatal("corrupted cache accepted (integrity trailer must catch any flip)")
		}
	}
	// Truncation.
	var cf core.CacheFile
	if err := cf.UnmarshalBinary(b[:len(b)/2]); err == nil {
		t.Error("truncated cache accepted")
	}
	if err := cf.UnmarshalBinary(nil); err == nil {
		t.Error("empty cache accepted")
	}
}

func TestCacheFileRoundTrip(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr := testutil.NewMgr(t)
	w.Run(t, mgr, testutil.RunOpts{Input: []uint64{25}, Tool: &instr.BBCount{}, Commit: true})
	entries, _ := mgr.Entries()
	cf, err := readEntry(mgr, entries[0].File)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := cf.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var cf2 core.CacheFile
	if err := cf2.UnmarshalBinary(b1); err != nil {
		t.Fatal(err)
	}
	b2, err := cf2.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("cache file round trip not byte-stable")
	}
	if len(cf2.Traces) == 0 || len(cf2.Modules) == 0 {
		t.Error("round-tripped cache empty")
	}
	// Instrumentation ops survived.
	ops := 0
	for _, tr := range cf2.Traces {
		ops += len(tr.Ops)
	}
	if ops == 0 {
		t.Error("analysis ops not persisted")
	}
}

func TestConcurrentCommits(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	dir := t.TempDir()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			mgr, err := core.NewManager(dir)
			if err != nil {
				errs <- err
				return
			}
			p, err := testprog.Load(w.Exe, w.Libs, loader.Config{})
			if err != nil {
				errs <- err
				return
			}
			v := vm.New(p, vm.WithInput([]uint64{uint64(5 + n)}))
			if _, err := v.Run(); err != nil {
				errs <- err
				return
			}
			if _, err := mgr.Commit(v); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mgr, _ := core.NewManager(dir)
	entries, err := mgr.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("want 1 entry after concurrent commits, got %d", len(entries))
	}
	// The final cache must be loadable and non-empty.
	cf, err := readEntry(mgr, entries[0].File)
	if err != nil || len(cf.Traces) == 0 {
		t.Fatalf("final cache unusable: %v", err)
	}
}

func TestKeyProperties(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	p1, _ := testprog.Load(w.Exe, w.Libs, loader.Config{})
	p2, _ := testprog.Load(w.Exe, w.Libs, loader.Config{})
	ks1 := core.KeysFor(vm.New(p1))
	ks2 := core.KeysFor(vm.New(p2))
	if ks1 != ks2 {
		t.Error("identical setups produced different keys")
	}
	// Base address changes the mapping key but not the content key.
	m1, _ := p1.AS.MappingAt(p1.Modules[1].Base)
	m2 := m1
	m2.Base += 0x10000
	if core.MappingKey(m1) == core.MappingKey(m2) {
		t.Error("mapping key ignores base")
	}
	if core.ContentKey(m1) != core.ContentKey(m2) {
		t.Error("content key depends on base")
	}
	m3 := m1
	m3.MTime++
	if core.MappingKey(m1) == core.MappingKey(m3) || core.ContentKey(m1) == core.ContentKey(m3) {
		t.Error("keys ignore mtime")
	}
	m4 := m1
	m4.Digest[0] ^= 1
	if core.MappingKey(m1) == core.MappingKey(m4) {
		t.Error("mapping key ignores digest")
	}
	if core.VMKey("a", 32) == core.VMKey("b", 32) || core.VMKey("a", 32) == core.VMKey("a", 16) {
		t.Error("VM key insensitive")
	}
	if core.ToolKey(nil) == core.ToolKey(&instr.BBCount{}) {
		t.Error("nil tool key equals bbcount key")
	}
}

func TestInstrumentedPersistenceReplaysAnalysis(t *testing.T) {
	// Analysis results (bb counts, mem refs) must be identical whether
	// traces were translated fresh or reloaded from the cache.
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr := testutil.NewMgr(t)
	fresh := w.Run(t, mgr, testutil.RunOpts{Input: []uint64{33}, Tool: &instr.MemTrace{}, Commit: true})
	reused := w.Run(t, mgr, testutil.RunOpts{Input: []uint64{33}, Tool: &instr.MemTrace{}, Prime: true})
	if fresh.Stats.MemRefs != reused.Stats.MemRefs {
		t.Errorf("memrefs differ: %d vs %d", fresh.Stats.MemRefs, reused.Stats.MemRefs)
	}
	if fresh.Stats.MemRefHash != reused.Stats.MemRefHash {
		t.Errorf("memref hash differs: %x vs %x", fresh.Stats.MemRefHash, reused.Stats.MemRefHash)
	}
	if reused.Stats.TracesTranslated != 0 {
		t.Errorf("instrumented reuse still translated %d traces", reused.Stats.TracesTranslated)
	}
}

func TestDynamicallyGeneratedCodeNotPersisted(t *testing.T) {
	// The guest copies a tiny function into the heap and calls it; the
	// resulting trace is not file-backed and must not be persisted
	// ("persistent caches only contain traces backed by a file on disk").
	src := `
.text
.global _start
_start:
	la   t0, blob       ; source: two encoded instructions in .data
	movi t1, 0x20000000 ; heap
	ld   t2, 0(t0)
	sd   t2, 0(t1)
	ld   t2, 8(t0)
	sd   t2, 8(t1)
	callr t1            ; run the generated code
	mv   a1, a0
	movi a0, 1
	sys
	halt
.data
blob:
`
	// Append the generated function: movi a0, 77 ; ret.
	gen1 := isa.Inst{Op: isa.OpMovI, Rd: isa.RegA0, Imm: 77}.EncodeWord()
	gen2 := isa.Inst{Op: isa.OpJalr, Rd: isa.RegZero, Rs1: isa.RegRA}.EncodeWord()
	src += "\t.word64 " + itoa(gen1) + "\n\t.word64 " + itoa(gen2) + "\n"

	w := testutil.BuildWorld(t, "prog", src, nil)
	mgr := testutil.NewMgr(t)
	res := w.Run(t, mgr, testutil.RunOpts{Commit: true})
	if res.ExitCode != 77 {
		t.Fatalf("generated code did not run: exit %d", res.ExitCode)
	}
	ks := keysOf(t, w)
	cf, err := mgr.Lookup(ks)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range cf.Traces {
		if tr.Start >= 0x20000000 && tr.Start < 0x21000000 {
			t.Error("heap-generated trace persisted")
		}
	}
}

func keysOf(t *testing.T, w *testutil.World) core.KeySet {
	t.Helper()
	p, err := testprog.Load(w.Exe, w.Libs, loader.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return core.KeysFor(vm.New(p))
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
