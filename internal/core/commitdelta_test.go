package core_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"persistcc/internal/core"
	"persistcc/internal/fsx"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
)

// primedRun primes v from mgr's exact entry and runs it.
func primedRun(t *testing.T, mgr *core.Manager, v *vm.VM) *vm.Result {
	t.Helper()
	if _, err := mgr.Prime(v); err != nil {
		t.Fatal(err)
	}
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWarmSkipTakesNoLock: the commit of an exact warm launch that
// translated nothing is judged on a read of the entry's manifest alone. It
// creates or opens no lock file, and writes, renames or removes nothing.
func TestWarmSkipTakesNoLock(t *testing.T) {
	dir, ks, _, w := warmIncoming(t)
	rec := fsx.NewInject(fsx.OS)
	mgr := openMgr(t, dir, core.WithFS(rec))
	v := w.NewVM(t, testutil.RunOpts{Input: []uint64{10}})
	if res := primedRun(t, mgr, v); res.Stats.TracesTranslated != 0 {
		t.Fatalf("warm launch translated %d traces", res.Stats.TracesTranslated)
	}
	before, err := os.ReadFile(filepath.Join(dir, ks.ManifestFileName()))
	if err != nil {
		t.Fatal(err)
	}

	rec.StartRecording()
	rep, err := mgr.Commit(v)
	if err != nil || !rep.Skipped || rep.Ticks != 0 || rep.Traces != len(readManifest(t, dir, ks.ManifestFileName()).Traces) {
		t.Fatalf("warm commit: %+v, %v; want a free skip over the entry", rep, err)
	}
	for _, op := range rec.Ops() {
		switch {
		case filepath.Base(op.Path) == ".lock":
			t.Errorf("%s: a skipped commit touched the database lock", op)
		case op.Op != fsx.OpRead && op.Op != fsx.OpStat && op.Op != fsx.OpGlob:
			t.Errorf("%s: a skipped commit changed the database", op)
		}
	}
	if after, err := os.ReadFile(filepath.Join(dir, ks.ManifestFileName())); err != nil || string(after) != string(before) {
		t.Errorf("the skipped commit changed the manifest (err %v)", err)
	}
}

// TestWarmLaunchThatTranslatesCommits: a warm launch over an entry that
// lacks one of its traces translates that one trace, and its commit
// accumulates it into the entry.
func TestWarmLaunchThatTranslatesCommits(t *testing.T) {
	dir, ks, _, w := warmIncoming(t)
	full, err := openMgr(t, dir).Lookup(ks)
	if err != nil {
		t.Fatal(err)
	}
	short := *full
	short.Traces = full.Traces[:len(full.Traces)-1]
	if err := os.Remove(filepath.Join(dir, ks.ManifestFileName())); err != nil {
		t.Fatal(err)
	}
	if _, err := openMgr(t, dir).CommitFile(core.DeltaOf(&short)); err != nil {
		t.Fatal(err)
	}

	mgr := openMgr(t, dir)
	v := w.NewVM(t, testutil.RunOpts{Input: []uint64{10}})
	if res := primedRun(t, mgr, v); res.Stats.TracesTranslated != 1 {
		t.Fatalf("launch over the short entry translated %d traces, want 1", res.Stats.TracesTranslated)
	}
	rep, err := mgr.Commit(v)
	if err != nil || rep.Skipped || !rep.Accumulate || rep.NewTraces != 1 || rep.Traces != len(full.Traces) || rep.Ticks == 0 {
		t.Fatalf("commit of one new trace: %+v, %v; want an accumulation to %d traces", rep, err, len(full.Traces))
	}
	if got := len(readManifest(t, dir, ks.ManifestFileName()).Traces); got != len(full.Traces) {
		t.Errorf("entry holds %d traces after the commit, want %d", got, len(full.Traces))
	}
}

// TestInterAppPrimedLaunchCommits: a launch primed from another
// application's entry that translated nothing still adds to the database —
// an entry of its own (accumulation across applications, Figure 7) — and
// the next launch of it primes from that entry and skips.
func TestInterAppPrimedLaunchCommits(t *testing.T) {
	w := testutil.BuildWorld(t, "appa", fmt.Sprintf(chaosMainSrc, 1), map[string]string{"libwork.so": chaosLibSrc})
	donor, ks := core.BuildCacheFile(chaosRan(t, w, 10))
	donor.AppKey[0] ^= 0xff // the same code, filed under another application
	dir := t.TempDir()
	mgr := openMgr(t, dir)
	if _, err := mgr.CommitFile(core.DeltaOf(donor)); err != nil {
		t.Fatal(err)
	}

	v := w.NewVM(t, testutil.RunOpts{Input: []uint64{10}})
	if _, err := mgr.Prime(v); !errors.Is(err, core.ErrNoCache) {
		t.Fatalf("exact prime: %v, want ErrNoCache", err)
	}
	if prep, err := mgr.PrimeInterApp(v); err != nil || prep.Installed != len(donor.Traces) {
		t.Fatalf("inter-application prime: %+v, %v; want all %d traces", prep, err, len(donor.Traces))
	}
	if res, err := v.Run(); err != nil || res.Stats.TracesTranslated != 0 {
		t.Fatalf("inter-application primed launch: %v; want no translation", err)
	}
	rep, err := mgr.Commit(v)
	if err != nil || rep.Skipped || rep.Accumulate || rep.Traces != len(donor.Traces) || rep.File != ks.ManifestFileName() {
		t.Fatalf("commit of the inter-application primed launch: %+v, %v; want a new entry of %d traces", rep, err, len(donor.Traces))
	}

	again := w.NewVM(t, testutil.RunOpts{Input: []uint64{10}})
	primedRun(t, mgr, again)
	if rep, err := mgr.Commit(again); err != nil || !rep.Skipped {
		t.Errorf("the next launch's commit: %+v, %v; want a skip", rep, err)
	}
}

// TestLockFreeSkipsRaceAccumulatingPeer: launches whose commits skip
// without the lock race a peer accumulating into the same entry, each in a
// manager of its own as separate processes would be. Every launch skips,
// every trace the peer committed is in the entry at the end, and the entry
// passes the deep verifier.
func TestLockFreeSkipsRaceAccumulatingPeer(t *testing.T) {
	w := testutil.BuildWorld(t, "select", selectSrc, map[string]string{"libselect.so": selectLibSrc})
	dir := t.TempDir()
	w.Run(t, openMgr(t, dir), testutil.RunOpts{Input: []uint64{1, 0, 0}, Commit: true})
	ks := core.KeysFor(w.NewVM(t, testutil.RunOpts{}))

	const skippers, launches = 3, 4
	peerInputs := [][]uint64{{1, 1, 0}, {1, 0, 1}, {1, 1, 1}}
	var peerVMs []*vm.VM
	for _, in := range peerInputs {
		peerVMs = append(peerVMs, w.NewVM(t, testutil.RunOpts{Input: in}))
	}
	skipVMs := make([][]*vm.VM, skippers)
	for i := range skipVMs {
		for j := 0; j < launches; j++ {
			skipVMs[i] = append(skipVMs[i], w.NewVM(t, testutil.RunOpts{Input: []uint64{1, 0, 0}}))
		}
	}
	launch := func(mgr *core.Manager, v *vm.VM) (*core.CommitReport, error) {
		if _, err := mgr.Prime(v); err != nil {
			return nil, err
		}
		if _, err := v.Run(); err != nil {
			return nil, err
		}
		return mgr.Commit(v)
	}

	errs := make(chan error, skippers*launches+len(peerVMs))
	var wg sync.WaitGroup
	for _, vms := range skipVMs {
		mgr := openMgr(t, dir)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range vms {
				rep, err := launch(mgr, v)
				if err == nil && !rep.Skipped {
					err = fmt.Errorf("a launch that added nothing committed: %+v", rep)
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	peer := openMgr(t, dir)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, v := range peerVMs {
			if _, err := launch(peer, v); err != nil {
				errs <- fmt.Errorf("peer: %w", err)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	final, err := openMgr(t, dir, core.WithDeepVerify()).Lookup(ks)
	if err != nil {
		t.Fatalf("entry after the race: %v", err)
	}
	have := make(map[string]bool)
	for _, tr := range final.Traces {
		have[fmt.Sprintf("%s+%#x", final.Modules[tr.Module].Path, tr.ModOff)] = true
	}
	for _, v := range peerVMs {
		cf, _ := core.BuildCacheFile(v)
		for _, tr := range cf.Traces {
			if k := fmt.Sprintf("%s+%#x", cf.Modules[tr.Module].Path, tr.ModOff); !have[k] {
				t.Errorf("the peer's trace %s is gone from the entry", k)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, ".lock")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("lock file left behind: %v", err)
	}
}
