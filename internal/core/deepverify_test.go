package core_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"persistcc/internal/core"
	"persistcc/internal/isa"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
)

// seedLegacy runs w cold on input and writes the run's traces into a fresh
// database as a legacy entry, the format these tests corrupt by hand. It
// returns the manager, the entry's path and the run's result.
func seedLegacy(t *testing.T, w *testutil.World, input uint64) (*core.Manager, string, *vm.Result) {
	t.Helper()
	v := w.NewVM(t, testutil.RunOpts{Input: []uint64{input}})
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	cf, _ := core.BuildCacheFile(v)
	mgr := testutil.NewMgr(t)
	return mgr, testutil.WriteLegacy(t, mgr.Dir(), cf), res
}

// seedCorruptBranch runs w cold on input, flips one conditional-branch
// immediate among the run's traces so its target lands outside every
// recorded module, and commits them into a fresh database through the
// normal write path. The result is the exact adversary the deep verifier
// exists for: a manifest whose blobs all pass their content checks but
// whose code is semantically corrupt. It returns the manager, the
// manifest's path and the cold run's result.
func seedCorruptBranch(t *testing.T, w *testutil.World, input uint64) (*core.Manager, string, *vm.Result) {
	t.Helper()
	v := w.NewVM(t, testutil.RunOpts{Input: []uint64{input}})
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	cf, ks := core.BuildCacheFile(v)
	corruptBranch(t, cf)
	mgr := testutil.NewMgr(t)
	if _, err := mgr.CommitFile(core.DeltaOf(cf)); err != nil {
		t.Fatal(err)
	}
	return mgr, filepath.Join(mgr.Dir(), ks.ManifestFileName()), res
}

// corruptBranch flips one conditional-branch immediate in cf so its target
// lands outside every recorded module.
func corruptBranch(t *testing.T, cf *core.CacheFile) {
	t.Helper()
	var end uint32
	for _, m := range cf.Modules {
		if m.Base+m.Size > end {
			end = m.Base + m.Size
		}
	}
	for _, tr := range cf.Traces {
		for i, in := range tr.Insts {
			if !in.IsCondBranch() {
				continue
			}
			pc := tr.Start + uint32(i)*isa.InstSize
			target := (end + 0x10000) &^ 7 // aligned, beyond every module
			tr.Insts[i].Imm = int32(target - pc)
			return
		}
	}
	t.Fatal("no conditional branch found to corrupt")
}

// TestDeepVerifyRejectsSemanticCorruption drives the acceptance path:
// a semantically corrupted trace (valid checksum, out-of-bounds branch
// target) passes the plain parser, is rejected by VerifyDeep, and a
// -verify-install manager quarantines the file, counts the rejection in
// pcc_core_verify_reject_total, and falls back to re-translation.
func TestDeepVerifyRejectsSemanticCorruption(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr, path, baseline := seedCorruptBranch(t, w, 50)

	// The byte-level layer is blind to the corruption: hashes and caps all
	// pass.
	cf, err := mgr.ReadPrior(filepath.Base(path))
	if err != nil || cf == nil {
		t.Fatalf("checksum layer rejected the semantically corrupt file: %v", err)
	}
	// The deep verifier is not.
	rep := cf.VerifyDeep()
	if rep.OK() {
		t.Fatal("VerifyDeep accepted an out-of-bounds branch target")
	}
	found := false
	for _, f := range rep.Findings {
		if f.Check == "branch" {
			found = true
		}
	}
	if !found {
		t.Fatalf("want a branch finding, got %v", rep.Findings)
	}

	// A deep-verifying manager turns the bad file into a miss + quarantine
	// and the run re-translates to the same result.
	vmgr, err := core.NewManager(mgr.Dir(), core.WithDeepVerify())
	if err != nil {
		t.Fatal(err)
	}
	var prep core.PrimeReport
	res := w.Run(t, vmgr, testutil.RunOpts{Input: []uint64{50}, Prime: true, WantPrime: &prep})
	if prep.Found {
		t.Fatal("prime reported a hit from a quarantined file")
	}
	if res.ExitCode != baseline.ExitCode || string(res.Output) != string(baseline.Output) {
		t.Fatal("re-translated run diverged from baseline")
	}
	if res.Stats.TracesTranslated == 0 {
		t.Fatal("expected re-translation after the deep-verify rejection")
	}

	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt file still in the database: %v", err)
	}
	qfiles, _ := filepath.Glob(filepath.Join(vmgr.Dir(), core.QuarantineDir, "*.pcm*"))
	if len(qfiles) == 0 {
		t.Fatal("corrupt file was not quarantined")
	}

	var sb strings.Builder
	if err := vmgr.Metrics().Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `pcc_core_verify_reject_total{check="branch"}`) {
		t.Fatalf("pcc_core_verify_reject_total not incremented; metrics:\n%s", sb.String())
	}
}

// TestDeepVerifyAcceptsHealthyDatabase guards against the verifier being
// stricter than the translator: everything a real run commits must verify,
// and so must the same traces as a legacy image.
func TestDeepVerifyAcceptsHealthyDatabase(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr := testutil.NewMgr(t)
	w.Run(t, mgr, testutil.RunOpts{Input: []uint64{50}, Commit: true})

	// Repair deep-verifies every entry unconditionally.
	rep, err := mgr.RecoverIndex()
	if err != nil {
		t.Fatal(err)
	}
	if rep.EntriesVerified != 1 || rep.FilesQuarantined != 0 {
		t.Fatalf("healthy committed entry failed deep verification: %+v", rep)
	}
	_, path, _ := seedLegacy(t, w, 50)
	cf, err := core.ReadCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep := cf.VerifyDeep(); !rep.OK() {
		t.Fatalf("healthy legacy image failed deep verification: %v", rep.Findings)
	}

	// And a deep-verifying manager still primes from it.
	vmgr, err := core.NewManager(mgr.Dir(), core.WithDeepVerify())
	if err != nil {
		t.Fatal(err)
	}
	var prep core.PrimeReport
	w.Run(t, vmgr, testutil.RunOpts{Input: []uint64{50}, Prime: true, WantPrime: &prep})
	if !prep.Found || prep.Installed == 0 {
		t.Fatalf("deep-verifying manager failed to prime a healthy cache: %+v", prep)
	}
}

// TestDeepVerifyDanglingReloc proves the relocation cross-check catches a
// note whose target offset no longer points inside its module — corruption
// the checksum (re-signed) and the byte-level caps both accept.
func TestDeepVerifyDanglingReloc(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	_, path, _ := seedLegacy(t, w, 50)
	cf, err := core.ReadCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, tr := range cf.Traces {
		if len(tr.Notes) > 0 {
			tr.Notes[0].TargetOff = cf.Modules[tr.Notes[0].Target].Size + 0x1000
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Skip("no relocation notes in the committed cache")
	}
	testutil.WriteLegacy(t, filepath.Dir(path), cf)

	reread, err := core.ReadCacheFile(path)
	if err != nil {
		t.Fatalf("checksum layer rejected the dangling relocation: %v", err)
	}
	rep := reread.VerifyDeep()
	if rep.OK() {
		t.Fatal("VerifyDeep accepted a dangling relocation")
	}
	found := false
	for _, f := range rep.Findings {
		if f.Check == "reloc" {
			found = true
		}
	}
	if !found {
		t.Fatalf("want a reloc finding, got %v", rep.Findings)
	}
}

// TestRecoverIndexQuarantinesSemanticCorruption checks that the repair path
// applies the deep verifier unconditionally: after corruption, RecoverIndex
// moves the file to quarantine and rebuilds an index without it.
func TestRecoverIndexQuarantinesSemanticCorruption(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr, _, _ := seedCorruptBranch(t, w, 50)

	rep, err := mgr.RecoverIndex()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesQuarantined != 1 || rep.EntriesVerified != 0 {
		t.Fatalf("recovery kept the corrupt file: %+v", rep)
	}
	entries, err := mgr.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("the listing still holds the corrupt file: %v", entries)
	}
}
