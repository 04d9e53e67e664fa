package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"persistcc/internal/core"
	"persistcc/internal/guestopt"
	"persistcc/internal/loader"
	"persistcc/internal/store"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

// Tests for the manifest-first prime and commit: a prime reads only the
// traces it installs, a trace read from a blob is written back by that
// blob's address, and a commit merges on the prior manifest, reading only
// the prior traces the run neither carries nor drops.

// byAddress checks that the commit's arena encoder writes every trace of cf
// to the bytes its interchange form encodes to, and that every trace that
// carries an address encodes, against cf's module table, to exactly that
// address — what the commit of cf trusts when it writes the trace by
// address — and returns how many carry one.
func byAddress(t *testing.T, what string, cf *core.CacheFile) int {
	t.Helper()
	refOf := func(mi int32) (store.Ref, error) {
		return store.Ref{Content: cf.Modules[mi].Content, Base: cf.Modules[mi].Base}, nil
	}
	encs, err := core.CommitEncodings(cf)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	n := 0
	for i, tr := range cf.Traces {
		b, _, err := store.BlobFromTrace(tr, refOf)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		enc := b.Encode()
		if !bytes.Equal(encs[i], enc) {
			t.Errorf("%s: trace at %#x: the commit encoder writes %d bytes that are not its blob's %d", what, tr.Start, len(encs[i]), len(enc))
		}
		if tr.Addr == nil {
			continue
		}
		n++
		if got := store.Sum(enc); got != *tr.Addr {
			t.Errorf("%s: trace at %#x carries %s but encodes to %s", what, tr.Start, store.Hash(*tr.Addr), got)
		}
	}
	return n
}

// launch primes a VM for prog from mgr (exactly, else from another
// application's entry), runs it, and returns it with the prime's report.
func launch(t *testing.T, mgr *core.Manager, prog *workload.Program, in workload.Input, cfg loader.Config, opts ...vm.Option) (*vm.VM, *core.PrimeReport) {
	t.Helper()
	v, err := prog.NewVM(cfg, in, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mgr.Prime(v)
	if errors.Is(err, core.ErrNoCache) {
		rep, err = mgr.PrimeInterApp(v)
	}
	if err != nil && !errors.Is(err, core.ErrNoCache) {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	return v, rep
}

// TestWrittenByAddressReencodes: over the GUI, gcc and Oracle suites
// accumulating into one database (GUI apps first, so they prime from each
// other's entries and carry shared-library traces across manifests), and
// over optimized gcc runs, every trace a commit would write by address —
// the run's own, and those a merge accumulates from the prior entry —
// encodes to exactly that address, the commit's arena encoder writes every
// trace byte for byte as its interchange form encodes, and every entry
// written reads back.
// Across a relocation edge the rebased traces carry no address, so they
// are written by content, and the entry they land in primes whole.
func TestWrittenByAddressReencodes(t *testing.T) {
	gui, err := workload.BuildGUISuite()
	if err != nil {
		t.Fatal(err)
	}
	gcc, err := workload.BuildSpecBenchmark("176.gcc")
	if err != nil {
		t.Fatal(err)
	}
	ora, err := workload.BuildOracleSuite()
	if err != nil {
		t.Fatal(err)
	}
	hashed := loader.Config{Placement: loader.PlaceHashed}
	optimize := vm.WithOptimizer(guestopt.New(guestopt.All()))
	type run struct {
		name string
		prog *workload.Program
		in   workload.Input
		cfg  loader.Config
		opts []vm.Option
	}
	var runs []run
	for _, a := range gui.Apps {
		runs = append(runs, run{a.Name, a.Prog, a.Startup, hashed, nil})
	}
	for _, in := range gcc.Ref[:3] {
		runs = append(runs, run{"gcc." + in.Name, gcc.Prog, in, loader.Config{}, nil})
	}
	for _, in := range ora.Phases[:3] {
		runs = append(runs, run{"oracle." + in.Name, ora.Prog, in, loader.Config{}, nil})
	}
	for _, in := range gcc.Ref[:3] {
		runs = append(runs, run{"gcc-opt." + in.Name, gcc.Prog, in, loader.Config{}, []vm.Option{optimize}})
	}

	mgr := openMgr(t, t.TempDir())
	addressed, optimized := 0, 0
	for _, r := range runs {
		v, _ := launch(t, mgr, r.prog, r.in, r.cfg, r.opts...)
		cf, ks := core.BuildCacheFile(v)
		n := byAddress(t, r.name, cf)
		addressed += n
		if r.opts != nil {
			for _, tr := range cf.Traces {
				if tr.Addr != nil && tr.OptLevel > 0 {
					optimized++
				}
			}
		}
		if prior, err := mgr.Lookup(ks); err == nil {
			merged, _, err := core.MergeCacheFiles(cf, prior, false)
			if err != nil {
				t.Fatal(err)
			}
			byAddress(t, r.name+" merged", merged)
		}
		if _, err := mgr.Commit(v); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if _, err := mgr.Lookup(ks); err != nil {
			t.Fatalf("%s: the entry just written does not read back: %v", r.name, err)
		}
	}
	if addressed == 0 || optimized == 0 {
		t.Fatalf("%d traces carried an address, %d of them optimized: the check is vacuous", addressed, optimized)
	}

	// A relocation edge: the app's own entry, written at one placement,
	// primes it at another through the extension.
	app := gui.Apps[0]
	mgr = openMgr(t, t.TempDir(), core.WithRelocatable())
	wrote := loader.Config{Placement: loader.PlaceASLR, ASLRSeed: 1}
	moved := loader.Config{Placement: loader.PlaceASLR, ASLRSeed: 2}
	v, _ := launch(t, mgr, app.Prog, app.Startup, wrote)
	if _, err := mgr.Commit(v); err != nil {
		t.Fatal(err)
	}
	v, rep := launch(t, mgr, app.Prog, app.Startup, moved)
	if rep.Rebased == 0 {
		t.Fatalf("no trace rebased across the edge: %+v", rep)
	}
	cf, ks := core.BuildCacheFile(v)
	rebased := 0
	for _, tr := range cf.Traces {
		if tr.Persisted && tr.Addr == nil {
			rebased++
		}
	}
	if rebased != rep.Rebased {
		t.Errorf("%d installed traces carry no address, want the %d rebased", rebased, rep.Rebased)
	}
	byAddress(t, "moved", cf)
	if _, err := mgr.Commit(v); err != nil {
		t.Fatal(err)
	}
	v, err = app.Prog.NewVM(moved, app.Startup)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := openMgr(t, mgr.Dir()).Prime(v); err != nil || rep.Installed != rep.CacheTraces || rep.Rebased != 0 {
		t.Fatalf("the entry written across the edge primes %+v, %v; want every trace, none rebased", rep, err)
	}
	if cf, err := openMgr(t, mgr.Dir()).Lookup(ks); err != nil || len(cf.Traces) == 0 {
		t.Fatalf("the entry written across the edge: %v", err)
	}
}

// storePacks lists the pack files of the store in the database at dir.
func storePacks(t *testing.T, dir string) []string {
	t.Helper()
	packs, err := filepath.Glob(filepath.Join(dir, "store", "gen*", "*.pck"))
	if err != nil {
		t.Fatal(err)
	}
	return packs
}

// damage flips a byte near the end of the file at path: for a pack, inside
// its compressed stream.
func damage(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-8] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// quarantined lists what the database at dir and its store have moved
// aside.
func quarantined(t *testing.T, dir string) []string {
	t.Helper()
	db, _ := filepath.Glob(filepath.Join(dir, core.QuarantineDir, "*"))
	st, _ := filepath.Glob(filepath.Join(dir, "store", "quarantine", "*"))
	return append(db, st...)
}

// TestPrimeJudgesOnlyWhatItReads: what a launch does not read it does not
// judge. A damaged pack that only traces a prime drops are in neither fails
// nor quarantines that prime, which reports every dropped trace exactly;
// the first prime that installs one of its members quarantines it, as any
// damaged pack is. A deep-verifying manager verifies every trace it
// installs, and only those: a semantically broken trace another
// application's prime drops costs that prime nothing, while the entry's own
// prime rejects and quarantines the entry.
func TestPrimeJudgesOnlyWhatItReads(t *testing.T) {
	wA := testutil.BuildWorld(t, "appa", fmt.Sprintf(chaosMainSrc, 1), map[string]string{"libwork.so": chaosLibSrc})
	wB := testutil.BuildWorld(t, "appb", fmt.Sprintf(chaosMainSrc, 2), map[string]string{"libwork.so": chaosLibSrc})
	wX := testutil.BuildWorld(t, "appx", fmt.Sprintf(chaosMainSrc, 3), map[string]string{"libx.so": chaosLibSrc})
	ten := testutil.RunOpts{Input: []uint64{10}}

	t.Run("damaged pack", func(t *testing.T) {
		dir := t.TempDir()
		wX.Run(t, openMgr(t, dir), testutil.RunOpts{Input: []uint64{10}, Commit: true})
		packs := storePacks(t, dir)
		if len(packs) != 1 {
			t.Fatalf("%d packs, want the one appx's commit wrote", len(packs))
		}
		damage(t, packs[0])

		// appa shares no module with appx: its inter-app prime drops every
		// trace of appx's entry, unread.
		rep, err := openMgr(t, dir).PrimeInterApp(wA.NewVM(t, ten))
		if err != nil || !rep.Found || rep.Installed != 0 || rep.CacheTraces == 0 || rep.InvalidMissing != rep.CacheTraces {
			t.Fatalf("prime over a foreign entry: %+v, %v; want found, every trace invalid (missing)", rep, err)
		}
		if q := quarantined(t, dir); len(q) != 0 {
			t.Fatalf("a prime that read nothing quarantined %v", q)
		}
		if _, err := os.Stat(packs[0]); err != nil {
			t.Fatalf("the damaged pack left its place: %v", err)
		}

		// appx's own prime installs its members, and judges the pack.
		if _, err := openMgr(t, dir).Prime(wX.NewVM(t, ten)); !errors.Is(err, core.ErrNoCache) {
			t.Fatalf("own prime over a damaged pack: %v, want ErrNoCache", err)
		}
		if _, err := os.Stat(filepath.Join(dir, "store", "quarantine", filepath.Base(packs[0]))); err != nil {
			t.Errorf("the damaged pack was not quarantined by the prime that read it: %v", err)
		}
	})
	t.Run("deep verify", func(t *testing.T) {
		v := wB.NewVM(t, ten)
		if _, err := v.Run(); err != nil {
			t.Fatal(err)
		}
		cf, _ := core.BuildCacheFile(v)
		// Send one branch of appb's own code outside every module: a trace
		// only appb installs.
		broken := false
		for _, tr := range cf.Traces {
			if cf.Modules[tr.Module].Path != cf.AppPath {
				continue
			}
			for i, in := range tr.Insts {
				if in.IsCondBranch() && !broken {
					tr.Insts[i].Imm = 0x7ff0000
					broken = true
				}
			}
		}
		if !broken {
			t.Fatal("no conditional branch in appb's code")
		}
		dir := t.TempDir()
		if _, err := openMgr(t, dir).CommitFile(core.DeltaOf(cf)); err != nil {
			t.Fatal(err)
		}

		mgr := openMgr(t, dir, core.WithDeepVerify())
		rep, err := mgr.PrimeInterApp(wA.NewVM(t, ten))
		if err != nil || rep.Installed == 0 || rep.Invalidated() == 0 {
			t.Fatalf("appa over appb's entry: %+v, %v; want the shared library installed and appb's code dropped", rep, err)
		}
		if q := quarantined(t, dir); len(q) != 0 {
			t.Fatalf("a trace the prime dropped was judged: %v", q)
		}

		if _, err := mgr.Prime(wB.NewVM(t, ten)); !errors.Is(err, core.ErrNoCache) {
			t.Fatalf("appb's own prime: %v, want ErrNoCache", err)
		}
		if n, _ := mgr.Metrics().Snapshot().Value("pcc_core_quarantine_total", "verify"); n != 1 {
			t.Errorf("verify quarantines = %v, want 1: the prime that installs the broken trace rejects its entry", n)
		}
	})
}

// selectSrc calls one library function per nonzero input word, so inputs
// choose which traces a run adds.
const selectSrc = `
.text
.global _start
_start:
	movi t1, 0x08000000
	movi s1, 0
	ld   s0, 0(t1)
	beqz s0, skip1
	mv   a0, s1
	call fa
	mv   s1, a0
skip1:
	ld   s0, 8(t1)
	beqz s0, skip2
	mv   a0, s1
	call fb
	mv   s1, a0
skip2:
	ld   s0, 16(t1)
	beqz s0, done
	mv   a0, s1
	call fc
	mv   s1, a0
done:
	mv   a1, s1
	movi a0, 1
	sys
	halt
`

const selectLibSrc = `
.text
.global fa
fa:
	addi a0, a0, 1
	ret
.global fb
fb:
	add  t0, a0, a0
	addi a0, t0, 3
	ret
.global fc
fc:
	addi a0, a0, 7
	ret
`

// TestCommitKeepsPeerTracesAddedAfterPrime: no lost update. A launch primes
// from an entry, and before it commits a peer accumulates traces of its own
// into that entry. The launch's commit merges on the entry as the peer left
// it: the peer's traces are read and kept, the launch's are added, and the
// result is byte for byte the manifest the two commits make one after the
// other with no overlap. Nothing is written by the stale prior.
func TestCommitKeepsPeerTracesAddedAfterPrime(t *testing.T) {
	w := testutil.BuildWorld(t, "select", selectSrc, map[string]string{"libselect.so": selectLibSrc})
	small, ours, theirs := []uint64{1, 0, 0}, []uint64{1, 1, 0}, []uint64{1, 0, 1}
	launchOn := func(mgr *core.Manager, input []uint64) *vm.VM {
		v := w.NewVM(t, testutil.RunOpts{Input: input})
		if _, err := mgr.Prime(v); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Run(); err != nil {
			t.Fatal(err)
		}
		return v
	}
	seed := func() (string, core.KeySet) {
		dir := t.TempDir()
		mgr := openMgr(t, dir)
		w.Run(t, mgr, testutil.RunOpts{Input: small, Commit: true})
		return dir, core.KeysFor(w.NewVM(t, testutil.RunOpts{}))
	}

	dir, ks := seed()
	path := filepath.Join(dir, ks.ManifestFileName())
	before := readManifest(t, dir, ks.ManifestFileName())
	us := openMgr(t, dir)
	v := launchOn(us, ours) // primed from the small entry

	peer := openMgr(t, dir)
	prep, err := peer.Commit(launchOn(peer, theirs))
	if err != nil || prep.Skipped || prep.NewTraces == 0 {
		t.Fatalf("the peer added nothing: %+v, %v", prep, err)
	}
	peerMan := readManifest(t, dir, ks.ManifestFileName())

	rep, err := us.Commit(v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped || !rep.Accumulate || rep.NewTraces == 0 || rep.Dropped != 0 {
		t.Fatalf("our commit after the peer's: %+v; want an accumulation that adds our traces", rep)
	}
	got := readManifest(t, dir, ks.ManifestFileName())
	for _, h := range peerMan.BlobHashes() {
		if !slices.Contains(got.BlobHashes(), h) {
			t.Errorf("the peer's blob %s is gone from the entry", h)
		}
	}
	if len(got.Traces) != rep.Traces || len(got.Traces) <= len(peerMan.Traces) || len(peerMan.Traces) <= len(before.Traces) {
		t.Errorf("entry grew %d -> %d (peer) -> %d (ours, report %d)", len(before.Traces), len(peerMan.Traces), len(got.Traces), rep.Traces)
	}

	// The same two commits one after the other.
	seqDir, _ := seed()
	seq := openMgr(t, seqDir)
	if _, err := seq.Commit(launchOn(seq, theirs)); err != nil {
		t.Fatal(err)
	}
	if _, err := seq.Commit(launchOn(seq, ours)); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(seqDir, ks.ManifestFileName()))
	if err != nil || !bytes.Equal(written, want) {
		t.Errorf("the interleaved commits wrote another manifest than the sequential ones (err %v)", err)
	}

	// What was written primes whole, and covers every input.
	all := w.NewVM(t, testutil.RunOpts{Input: []uint64{1, 1, 1}})
	prime, err := openMgr(t, dir).Prime(all)
	if err != nil || prime.Installed != prime.CacheTraces {
		t.Fatalf("the merged entry primes %+v, %v", prime, err)
	}
	if res, err := all.Run(); err != nil || res.Stats.TracesTranslated != 0 {
		t.Errorf("a run of every input over the merged entry translated %v traces (err %v)", res.Stats.TracesTranslated, err)
	}
}
