package core_test

import (
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"persistcc/internal/core"
	"persistcc/internal/fsx"
	"persistcc/internal/loader"
	"persistcc/internal/testprog"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

// failure injection: the database layer must degrade loudly but safely.

func preparedVM(t *testing.T, w *testutil.World) *vm.VM {
	t.Helper()
	p, err := testprog.Load(w.Exe, w.Libs, loader.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(p, vm.WithInput([]uint64{10}))
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCommitToUnwritableDir(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	dir := t.TempDir()
	mgr, err := core.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	v := preparedVM(t, w)
	if _, err := mgr.Commit(v); err == nil {
		t.Error("commit to read-only database succeeded")
	}
}

// TestLeftoverIndexIgnoredThenRemoved: an index file an older version left
// beside the entries, even a corrupt one, is never read or rewritten — the
// entries list, prime and commit from the files themselves — and repair
// deletes it, counting its bytes as reclaimed.
func TestLeftoverIndexIgnoredThenRemoved(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr := testutil.NewMgr(t)
	w.Run(t, mgr, testutil.RunOpts{Input: []uint64{10}, Commit: true})
	leftover := filepath.Join(mgr.Dir(), "index.json")
	if err := os.WriteFile(leftover, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := mgr.Entries()
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries beside a corrupt leftover index: %v, %v; want 1", entries, err)
	}
	if _, err := mgr.Prime(vmFresh(t, w)); err != nil {
		t.Errorf("exact lookup beside a corrupt leftover index: %v", err)
	}
	if _, err := mgr.Commit(preparedVM(t, w)); err != nil {
		t.Errorf("commit beside a corrupt leftover index: %v", err)
	}
	if b, err := os.ReadFile(leftover); err != nil || string(b) != "{nope" {
		t.Errorf("leftover index was touched: %q, %v", b, err)
	}
	rep, err := mgr.RecoverIndex()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesReclaimed != uint64(len("{nope")) || rep.FilesQuarantined != 0 || rep.EntriesVerified != 1 {
		t.Errorf("repair report %+v; want the leftover's 5 bytes reclaimed and the entry verified", rep)
	}
	if _, err := os.Stat(leftover); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("repair left the old index in place: %v", err)
	}
	if after, err := mgr.Entries(); err != nil || len(after) != 1 {
		t.Errorf("entries after repair: %v, %v", after, err)
	}
}

// TestCorruptCacheFileQuarantined: a corrupt entry — a committed manifest,
// or a legacy image an earlier version wrote — degrades the launch to a
// miss (the run re-translates), moves the file into quarantine/, and bumps
// the quarantine metric for its kind — the acceptance shape for
// self-healing. A launch quarantines a manifest; a legacy image is
// invisible to it, and migration quarantines the image instead.
func TestCorruptCacheFileQuarantined(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	for kind, seed := range map[string]func(*testing.T, *core.Manager) string{
		"manifest": func(t *testing.T, mgr *core.Manager) string {
			w.Run(t, mgr, testutil.RunOpts{Input: []uint64{10}, Commit: true})
			entries, err := mgr.Entries()
			if err != nil || len(entries) != 1 {
				t.Fatalf("entries: %v %v", entries, err)
			}
			return filepath.Join(mgr.Dir(), entries[0].File)
		},
		"cachefile": func(t *testing.T, mgr *core.Manager) string {
			cf, _ := core.BuildCacheFile(preparedVM(t, w))
			return testutil.WriteLegacy(t, mgr.Dir(), cf)
		},
	} {
		t.Run(kind, func(t *testing.T) {
			mgr := testutil.NewMgr(t)
			path := seed(t, mgr)
			if err := os.WriteFile(path, []byte("garbage, definitely not a cache"), 0o644); err != nil {
				t.Fatal(err)
			}
			// The run completes cold instead of failing.
			res := w.Run(t, mgr, testutil.RunOpts{Input: []uint64{10}, Prime: true, Commit: true})
			if res.Stats.TracesTranslated == 0 {
				t.Error("run against corrupt cache neither failed nor re-translated")
			}
			if kind == "cachefile" {
				if rep, err := mgr.MigrateToStore(); err != nil || rep.Quarantined != 1 || rep.Migrated != 0 {
					t.Errorf("migrate: %+v, %v; want the corrupt image quarantined", rep, err)
				}
			}
			if _, err := os.Stat(filepath.Join(mgr.Dir(), core.QuarantineDir, filepath.Base(path))); err != nil {
				t.Errorf("corrupt cache file not quarantined: %v", err)
			}
			if v, ok := mgr.Metrics().Snapshot().Value("pcc_core_quarantine_total", kind); !ok || v < 1 {
				t.Errorf("pcc_core_quarantine_total{%s} = %v (ok=%t), want >= 1", kind, v, ok)
			}
			// The re-commit healed the database: warm again, end to end.
			warm := w.Run(t, mgr, testutil.RunOpts{Input: []uint64{10}, Prime: true})
			if warm.Stats.TracesTranslated != 0 {
				t.Errorf("post-quarantine warm run translated %d traces", warm.Stats.TracesTranslated)
			}
		})
	}
}

// TestRecoverIndexRebuild: RecoverIndex quarantines what does not verify,
// clears temp debris and a leftover index, and keeps exactly the verifiable
// entries.
func TestRecoverIndexRebuild(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr := testutil.NewMgr(t)
	w.Run(t, mgr, testutil.RunOpts{Input: []uint64{10}, Commit: true})
	entries, err := mgr.Entries()
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries: %v %v", entries, err)
	}
	// Wreckage: a corrupt orphan manifest, a crashed writer's tmp, and an
	// older version's index.
	wreckage := map[string]string{"deadbeef.pcm": "junk", "crashed.pcm.tmp": "half a write", "index.json": "]["}
	for name, body := range wreckage {
		if err := os.WriteFile(filepath.Join(mgr.Dir(), name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := mgr.RecoverIndex()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesScanned != 2 || rep.FilesQuarantined != 1 || rep.EntriesVerified != 1 ||
		rep.TmpFilesRemoved != 1 || rep.BytesReclaimed != uint64(len("junk")+len("half a write")+len("][")) {
		t.Errorf("recover report %+v", rep)
	}
	after, err := mgr.Entries()
	if err != nil || len(after) != 1 || after[0].File != entries[0].File {
		t.Errorf("entries after recovery %v, %v; want just %s", after, err, entries[0].File)
	}
	// Warm hits still served.
	warm := w.Run(t, mgr, testutil.RunOpts{Input: []uint64{10}, Prime: true})
	if warm.Stats.TracesTranslated != 0 {
		t.Errorf("post-recovery warm run translated %d traces", warm.Stats.TracesTranslated)
	}
	// Recovery on the now-healthy database is a verify-only no-op.
	rep2, err := mgr.RecoverIndex()
	if err != nil || rep2.FilesQuarantined != 0 || rep2.EntriesVerified != 1 || rep2.BytesReclaimed != 0 {
		t.Errorf("second recovery not clean: %+v %v", rep2, err)
	}
}

func vmFresh(t *testing.T, w *testutil.World) *vm.VM {
	t.Helper()
	p, err := testprog.Load(w.Exe, w.Libs, loader.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return vm.New(p, vm.WithInput([]uint64{10}))
}

func TestStaleLockIsStolen(t *testing.T) {
	restore := core.SetLockTimeout(50 * time.Millisecond)
	defer restore()
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr := testutil.NewMgr(t)
	// A crashed writer left the lock behind.
	if err := os.WriteFile(filepath.Join(mgr.Dir(), ".lock"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	v := preparedVM(t, w)
	if _, err := mgr.Commit(v); err != nil {
		t.Fatalf("commit did not steal the stale lock: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("lock steal took %v", elapsed)
	}
	if _, err := os.Stat(filepath.Join(mgr.Dir(), ".lock")); !errors.Is(err, os.ErrNotExist) {
		t.Error("lock not released after steal")
	}
}

func TestMissingCacheFileAfterIndexEntry(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr := testutil.NewMgr(t)
	w.Run(t, mgr, testutil.RunOpts{Input: []uint64{10}, Commit: true})
	entries, err := mgr.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(mgr.Dir(), entries[0].File)); err != nil {
		t.Fatal(err)
	}
	// Exact lookup: graceful ErrNoCache.
	if _, err := mgr.Prime(vmFresh(t, w)); !errors.Is(err, core.ErrNoCache) {
		t.Errorf("missing cache file: want ErrNoCache, got %v", err)
	}
}

// TestConcurrentPhasesSharedDatabase models the paper's multi-process
// Oracle setup with phases racing on one cache database: all runs must be
// correct, and after a second (sequential) pass the database must satisfy
// every phase without translation.
func TestConcurrentPhasesSharedDatabase(t *testing.T) {
	suite, err := workload.BuildOracleSuite()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Sequential reference results.
	want := make([]uint64, len(suite.Phases))
	for i, ph := range suite.Phases {
		v, err := suite.Prog.NewVM(loader.Config{}, ph)
		if err != nil {
			t.Fatal(err)
		}
		res, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.ExitCode
	}

	// Racy pass: each phase is its own "process" with its own manager.
	var wg sync.WaitGroup
	errs := make(chan error, len(suite.Phases))
	for i, ph := range suite.Phases {
		wg.Add(1)
		go func(i int, ph workload.Input) {
			defer wg.Done()
			mgr, err := core.NewManager(dir)
			if err != nil {
				errs <- err
				return
			}
			v, err := suite.Prog.NewVM(loader.Config{}, ph, vm.WithPID(uint64(i+1)))
			if err != nil {
				errs <- err
				return
			}
			if _, err := mgr.Prime(v); err != nil && !errors.Is(err, core.ErrNoCache) {
				errs <- err
				return
			}
			res, err := v.Run()
			if err != nil {
				errs <- err
				return
			}
			if res.ExitCode != want[i] {
				errs <- errors.New("phase result diverged under concurrency")
				return
			}
			if _, err := mgr.Commit(v); err != nil {
				errs <- err
			}
		}(i, ph)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Steady state: the accumulated database covers every phase.
	mgr, err := core.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, ph := range suite.Phases {
		v, err := suite.Prog.NewVM(loader.Config{}, ph)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Prime(v); err != nil {
			t.Fatal(err)
		}
		res, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.ExitCode != want[i] {
			t.Fatalf("phase %d diverged on warm run", i)
		}
		if res.Stats.TracesTranslated != 0 {
			t.Errorf("phase %d: %d traces re-translated after concurrent accumulation", i, res.Stats.TracesTranslated)
		}
	}
}

// TestEntriesFollowDirectory: the listing is the directory. A removed file
// leaves it, a file that is not a cache file never enters it, and repair
// quarantines the latter.
func TestEntriesFollowDirectory(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	mgr := testutil.NewMgr(t)
	w.Run(t, mgr, testutil.RunOpts{Input: []uint64{10}, Commit: true})
	entries, err := mgr.Entries()
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries: %v %v", entries, err)
	}
	if err := os.WriteFile(filepath.Join(mgr.Dir(), "deadbeef.pcm"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(mgr.Dir(), entries[0].File)); err != nil {
		t.Fatal(err)
	}
	if after, err := mgr.Entries(); err != nil || len(after) != 0 {
		t.Errorf("entries over a removed file and junk: %v, %v; want none", after, err)
	}
	rep, err := mgr.RecoverIndex()
	if err != nil || rep.FilesScanned != 1 || rep.FilesQuarantined != 1 {
		t.Errorf("repair report %+v, %v; want the junk quarantined", rep, err)
	}
	if _, err := os.Stat(filepath.Join(mgr.Dir(), core.QuarantineDir, "deadbeef.pcm")); err != nil {
		t.Errorf("junk not quarantined: %v", err)
	}
}

// mgrWithFS opens a manager over an injection filesystem in a fresh dir.
func mgrWithFS(t *testing.T, inj *fsx.InjectFS) *core.Manager {
	t.Helper()
	mgr, err := core.NewManager(t.TempDir(), core.WithFS(inj))
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

// commitWrites are the two files a commit writes, in order, each under a
// temp name: the pack of the run's new blobs (the store removes its own temp
// when the write fails) and then the manifest (whose temp is debris for
// recovery to reclaim).
var commitWrites = []struct {
	name, path string
	torn       int // temps a torn write of it leaves behind
}{{"pack", ".pck.", 0}, {"manifest", ".pcm.tmp", 1}}

// TestPartialWriteCacheFile: an ENOSPC-shaped short write on either file a
// commit writes leaves the database exactly as it was — the prior entry
// stays listed, readable and warm-serving.
func TestPartialWriteCacheFile(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	for _, cw := range commitWrites {
		t.Run(cw.name, func(t *testing.T) {
			inj := fsx.NewInject(fsx.OS)
			mgr := mgrWithFS(t, inj)
			w.Run(t, mgr, testutil.RunOpts{Input: []uint64{0}, Commit: true})
			before, err := mgr.Entries()
			if err != nil || len(before) != 1 {
				t.Fatalf("entries: %v %v", before, err)
			}

			// Input 0 never runs the loop body; the second run does, so its
			// commit writes a pack of the new traces. That write, or the
			// manifest write after it, runs out of space halfway.
			enospc := errors.New("no space left on device")
			inj.TruncateAt(fsx.OpWrite, cw.path, 1, 0.5, enospc)
			v := preparedVM(t, w)
			if _, err := mgr.Commit(v); !errors.Is(err, enospc) {
				t.Fatalf("commit over full disk: want ENOSPC, got %v", err)
			}

			// Old entry listed, old file verifiable, warm path intact.
			after, err := mgr.Entries()
			if err != nil || len(after) != 1 {
				t.Fatalf("entries after short write: %v %v", after, err)
			}
			if _, err := readEntry(mgr, after[0].File); err != nil {
				t.Errorf("prior entry no longer verifies: %v", err)
			}
			warm := w.Run(t, mgr, testutil.RunOpts{Input: []uint64{0}, Prime: true})
			if warm.Stats.TracesTranslated != 0 {
				t.Errorf("warm run after failed commit translated %d traces", warm.Stats.TracesTranslated)
			}
			// A torn manifest temp is debris recovery reclaims.
			rep, err := mgr.RecoverIndex()
			if err != nil || rep.TmpFilesRemoved != cw.torn || rep.FilesQuarantined != 0 {
				t.Errorf("recovery: %+v %v; want %d torn temp reclaimed, nothing quarantined", rep, err, cw.torn)
			}
		})
	}
}

// TestHardWriteErrorSurfaces: a flat write failure (no torn file) of either
// file a commit writes surfaces to the committer and leaves no entry.
func TestHardWriteErrorSurfaces(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	for _, cw := range commitWrites {
		t.Run(cw.name, func(t *testing.T) {
			inj := fsx.NewInject(fsx.OS)
			mgr := mgrWithFS(t, inj)
			eio := errors.New("input/output error")
			inj.FailAt(fsx.OpWrite, cw.path, 1, eio)
			v := preparedVM(t, w)
			if _, err := mgr.Commit(v); !errors.Is(err, eio) {
				t.Fatalf("want surfaced EIO, got %v", err)
			}
			entries, err := mgr.Entries()
			if err != nil || len(entries) != 0 {
				t.Errorf("failed first commit left entries: %v %v", entries, err)
			}
		})
	}
}

func TestCacheFormatVersionRejected(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	cf, _ := core.BuildCacheFile(preparedVM(t, w))
	b, err := cf.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Bump the format version field (offset 4, after the magic) and
	// recompute the integrity trailer so only the version check can fail.
	payload := append([]byte{}, b[:len(b)-32]...)
	payload[4] = 99
	sum := sha256.Sum256(payload)
	bad := append(payload, sum[:]...)
	err = new(core.CacheFile).UnmarshalBinary(bad)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future-version cache accepted: %v", err)
	}
}
