package core_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"persistcc/internal/core"
	"persistcc/internal/fsx"
	"persistcc/internal/loader"
	"persistcc/internal/metrics"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

// flushWorkload generates an application with funcs functions, every one
// of them executed by its input, and returns a constructor of fresh VMs
// for it.
func flushWorkload(t *testing.T, funcs int) func() *vm.VM {
	t.Helper()
	prog, err := workload.BuildProgram(workload.ProgSpec{
		Name: fmt.Sprint("flush", funcs), Seed: 7, BodyInsts: 6,
		Regions: []workload.RegionSpec{{Funcs: funcs, Module: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return func() *vm.VM {
		v, err := prog.NewVM(loader.Config{}, workload.Input{Units: []workload.Unit{{Entry: 0, Iters: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// ranWorkload returns a flushWorkload VM after its run, traces in cache.
func ranWorkload(t *testing.T, funcs int) *vm.VM {
	t.Helper()
	v := flushWorkload(t, funcs)()
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	return v
}

// flushes counts the recorded writes and fsyncs, all and pack-only.
func flushes(ops []fsx.Record) (writes, syncs, packWrites, packSyncs int) {
	for _, op := range ops {
		pack := strings.Contains(op.Path, ".pck.")
		switch op.Op {
		case fsx.OpWrite:
			writes++
			if pack {
				packWrites++
			}
		case fsx.OpSync:
			syncs++
			if pack {
				packSyncs++
			}
		}
	}
	return
}

// TestCommitFlushCountIndependentOfTraceCount is the regression guard for
// the store's write unit: a commit fsyncs one pack and one manifest
// however many new traces it carries, and a commit that adds nothing
// new touches no blob file at all.
func TestCommitFlushCountIndependentOfTraceCount(t *testing.T) {
	type counts struct{ writes, syncs, packWrites, packSyncs int }
	var got []counts
	for _, minTraces := range []int{50, 700} {
		v := ranWorkload(t, minTraces/2)
		inj := fsx.NewInject(nil)
		mgr := newStoreMgr(t, t.TempDir(), core.WithFS(inj))
		inj.StartRecording()
		rep, err := mgr.Commit(v)
		if err != nil {
			t.Fatal(err)
		}
		if rep.NewTraces < minTraces {
			t.Fatalf("workload committed %d traces, want at least %d", rep.NewTraces, minTraces)
		}
		var c counts
		c.writes, c.syncs, c.packWrites, c.packSyncs = flushes(inj.Ops())
		t.Logf("%d new traces: %+v", rep.NewTraces, c)
		got = append(got, c)

		// The same traces again: everything dedups, no pack is written.
		inj.StartRecording()
		cf, ks := core.BuildCacheFile(v)
		if _, err := mgr.CommitFile(ks, cf); err != nil {
			t.Fatal(err)
		}
		if _, _, w, s := flushes(inj.Ops()); w != 0 || s != 0 {
			t.Errorf("a commit that dedups every blob wrote %d and synced %d pack files", w, s)
		}
	}
	if want := (counts{writes: 2, syncs: 2, packWrites: 1, packSyncs: 1}); got[0] != want || got[1] != want {
		t.Errorf("flushes per commit: %+v, want %+v (pack, manifest) at both sizes", got, want)
	}
}

// TestFailedWriteThroughStillServesVerifiedRemoteHits: the local disk
// refusing the write-through pack must not turn blobs the remote tier
// served, and that passed the hash and decode checks, into misses — the
// launch primes every trace, quarantines nothing, and the next launch
// fetches again.
func TestFailedWriteThroughStillServesVerifiedRemoteHits(t *testing.T) {
	// The remote side: another machine's committed entry and its blobs.
	newVM := flushWorkload(t, 20)
	ran := newVM()
	if _, err := ran.Run(); err != nil {
		t.Fatal(err)
	}
	served := newStoreMgr(t, t.TempDir())
	if _, err := served.Commit(ran); err != nil {
		t.Fatal(err)
	}
	man := readManifest(t, served.Dir(), core.KeysFor(ran).ManifestFileName())
	sst, err := served.Store()
	if err != nil {
		t.Fatal(err)
	}
	remote := &chaosRemote{man: man, st: sst}

	dir := t.TempDir()
	reg := metrics.NewRegistry()
	inj := fsx.NewInject(nil)
	inj.TruncateAt(fsx.OpWrite, ".pck.", 1, 0.5, syscall.ENOSPC)
	mgr := newStoreMgr(t, dir, core.WithFS(inj), core.WithMetrics(reg))
	cf, err := mgr.MaterializeFrom(man, remote.packs)
	if err != nil {
		t.Fatalf("materialize with a failing write-through: %v", err)
	}
	rep, err := mgr.PrimeFrom(newVM(), cf)
	if err != nil || rep.Installed != len(man.Traces) {
		t.Fatalf("prime installed %d of %d remote traces: %v", rep.Installed, len(man.Traces), err)
	}
	if inj.Injected() != 1 {
		t.Fatalf("the pack write was never attempted (%d faults fired)", inj.Injected())
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "store", "*", "*")); len(files) != 0 {
		t.Errorf("a failed write-through left files in the store (quarantined or leaked): %v", files)
	}
	if n, _ := reg.Snapshot().Value("pcc_store_blob_quarantine_total"); n != 0 {
		t.Errorf("%v store files quarantined", n)
	}
	// This run keeps serving them from memory; the next process has nothing
	// local and fetches again — and this time the disk takes the pack.
	if _, err := mgr.MaterializeManifest(man); err != nil {
		t.Errorf("second materialize in the same run, no remote: %v", err)
	}
	next := newStoreMgr(t, dir)
	if _, err := next.MaterializeManifest(man); err == nil {
		t.Error("a fresh manager resolved blobs that were never written")
	}
	if _, err := next.MaterializeFrom(man, remote.packs); err != nil {
		t.Fatalf("refetch on the next launch: %v", err)
	}
	if packs, _ := filepath.Glob(filepath.Join(dir, "store", "gen0000", "*.pck")); len(packs) != 1 {
		t.Errorf("refetch left %d packs, want 1", len(packs))
	}
}

// TestCompactStoreAbortsOnManifestReadError: a manifest compaction cannot
// read is no evidence that its blobs are dead. One transient read error
// must fail the compaction and cost the entry nothing: the next launch
// translates no trace.
func TestCompactStoreAbortsOnManifestReadError(t *testing.T) {
	newVM := flushWorkload(t, 5)
	inj := fsx.NewInject(nil)
	mgr := newStoreMgr(t, t.TempDir(), core.WithFS(inj))
	v := newVM()
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(v); err != nil {
		t.Fatal(err)
	}
	inj.FailAt(fsx.OpRead, ".pcm", 1, syscall.EIO)
	if rep, err := mgr.CompactStore(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("compaction over an unreadable manifest: %+v, %v; want the read error", rep, err)
	}
	warm := newVM()
	if _, err := mgr.Prime(warm); err != nil {
		t.Fatal(err)
	}
	res, err := warm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TracesTranslated != 0 {
		t.Fatalf("the launch after a failed compaction translated %d traces, want 0", res.Stats.TracesTranslated)
	}
}
