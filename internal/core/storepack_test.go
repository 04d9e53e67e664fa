package core_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
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
		mgr := openMgr(t, t.TempDir(), core.WithFS(inj))
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
		if _, err := mgr.CommitFile(core.NewDelta(v)); err != nil {
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

// servedEntry is another machine's committed entry for the application
// newVM builds, and its store serving the packs that hold the entry's blobs.
func servedEntry(t *testing.T, newVM func() *vm.VM) *chaosRemote {
	t.Helper()
	ran := newVM()
	if _, err := ran.Run(); err != nil {
		t.Fatal(err)
	}
	served := openMgr(t, t.TempDir())
	if _, err := served.Commit(ran); err != nil {
		t.Fatal(err)
	}
	sst, err := served.Store()
	if err != nil {
		t.Fatal(err)
	}
	return &chaosRemote{man: readManifest(t, served.Dir(), core.KeysFor(ran).ManifestFileName()), st: sst}
}

// launchWarm primes a fresh VM from mgr's database alone, runs it, and
// requires that it translated nothing.
func launchWarm(t *testing.T, mgr *core.Manager, newVM func() *vm.VM) {
	t.Helper()
	v := newVM()
	if _, err := mgr.Prime(v); err != nil {
		t.Fatalf("warm prime: %v", err)
	}
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TracesTranslated != 0 {
		t.Errorf("the launch after the commit translated %d traces, want 0", res.Stats.TracesTranslated)
	}
}

// TestFailedWriteThroughDegradesToTranslating: a blob is held only
// once it is on disk, so the local disk refusing the adopted pack makes the
// remote entry unavailable, like any blob that cannot be had: materializing
// it fails and quarantines nothing, the launch degrades and translates, its
// commit writes the entry, and the next launch primes warm with no remote.
func TestFailedWriteThroughDegradesToTranslating(t *testing.T) {
	newVM := flushWorkload(t, 20)
	remote := servedEntry(t, newVM)

	dir := t.TempDir()
	reg := metrics.NewRegistry()
	inj := fsx.NewInject(nil)
	inj.TruncateAt(fsx.OpWrite, ".pck.", 1, 0.5, syscall.ENOSPC)
	mgr := openMgr(t, dir, core.WithFS(inj), core.WithMetrics(reg))
	if _, err := mgr.MaterializeFrom(remote.man, remote.packs); err == nil {
		t.Fatal("materialized an entry whose packs the disk refused")
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
	if _, err := mgr.MaterializeManifest(remote.man); err == nil {
		t.Error("materialized blobs that were never written")
	}

	v := newVM()
	if _, err := mgr.Prime(v); !errors.Is(err, core.ErrNoCache) {
		t.Fatalf("degraded prime: %v, want ErrNoCache", err)
	}
	if res, err := v.Run(); err != nil || res.Stats.TracesTranslated == 0 {
		t.Fatalf("degraded launch: %v, translated %d", err, res.Stats.TracesTranslated)
	}
	if _, err := mgr.Commit(v); err != nil {
		t.Fatal(err)
	}
	launchWarm(t, openMgr(t, dir), newVM)
}

// TestRefusedAdoptionLeavesNothingHeld: a database whose manifest outlived
// its blobs (the local store was stripped) launches from the remote, and
// the disk refuses the adopted pack once. The commit must not take the
// entry as held — no blob of it is on disk — so it writes the entry whole,
// and a fresh manager primes it with nothing to translate.
func TestRefusedAdoptionLeavesNothingHeld(t *testing.T) {
	newVM := flushWorkload(t, 20)
	remote := servedEntry(t, newVM)

	dir := t.TempDir()
	ran := newVM()
	if _, err := ran.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := openMgr(t, dir).Commit(ran); err != nil {
		t.Fatal(err)
	}
	packs, _ := filepath.Glob(filepath.Join(dir, "store", "*", "*.pck"))
	for _, p := range packs {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	inj := fsx.NewInject(nil)
	inj.FailAt(fsx.OpWrite, ".pck.", 1, syscall.ENOSPC)
	mgr := openMgr(t, dir, core.WithFS(inj))
	// The remote launch as cacheserver.Fallback runs it: the served entry
	// if it materializes, else the local database.
	v := newVM()
	if cf, err := mgr.MaterializeFrom(remote.man, remote.packs); err == nil {
		if _, err := mgr.PrimeFrom(v, cf); err != nil {
			t.Fatal(err)
		}
	} else if _, err := mgr.Prime(v); err != nil && !errors.Is(err, core.ErrNoCache) {
		t.Fatal(err)
	}
	if inj.Injected() != 1 {
		t.Fatalf("the adopted pack write was never attempted (%d faults fired)", inj.Injected())
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	rep, err := mgr.Commit(v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped {
		t.Errorf("the commit was skipped as if the entry's blobs were held: %+v", rep)
	}
	launchWarm(t, openMgr(t, dir), newVM)
}

// committedEntry commits one run of the application newVM builds into a
// fresh store-format database and returns the database and its key set.
func committedEntry(t *testing.T, newVM func() *vm.VM) (string, core.KeySet) {
	t.Helper()
	v := newVM()
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := openMgr(t, dir).Commit(v); err != nil {
		t.Fatal(err)
	}
	return dir, core.KeysFor(v)
}

// TestMismatchedBlobQuarantinesManifest: a blob that decodes but is not
// the one the manifest was written against — here every module the
// manifest records has moved — blames the manifest. It goes to quarantine;
// the pack, which other entries may share, stays where it is.
func TestMismatchedBlobQuarantinesManifest(t *testing.T) {
	dir, ks := committedEntry(t, flushWorkload(t, 5))
	man := readManifest(t, dir, ks.ManifestFileName())
	for i := range man.Modules {
		man.Modules[i].Base += 0x1000
	}
	if err := os.WriteFile(filepath.Join(dir, ks.ManifestFileName()), man.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	packs, _ := filepath.Glob(filepath.Join(dir, "store", "gen*", "*.pck"))
	if _, err := openMgr(t, dir).Lookup(ks); !errors.Is(err, core.ErrNoCache) {
		t.Fatalf("lookup of a mismatched manifest: %v, want ErrNoCache", err)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, core.QuarantineDir, "*.pcm*")); len(q) != 1 {
		t.Errorf("quarantine holds %d manifests, want 1", len(q))
	}
	if after, _ := filepath.Glob(filepath.Join(dir, "store", "gen*", "*.pck")); len(packs) == 0 || len(after) != len(packs) {
		t.Errorf("packs before %d, after %d: the blobs' file was blamed for the manifest", len(packs), len(after))
	}
}

// TestPackMemberFailingItsHashIsAMiss: a pack whose stream inflates whole
// but holds a member that no longer hashes to its index entry is the
// file's fault. The pack goes to quarantine and the entry is a miss; the
// manifest stays, for the next commit to fill again.
func TestPackMemberFailingItsHashIsAMiss(t *testing.T) {
	dir, ks := committedEntry(t, flushWorkload(t, 5))
	packs, _ := filepath.Glob(filepath.Join(dir, "store", "gen*", "*.pck"))
	if len(packs) != 1 {
		t.Fatalf("%d packs, want 1", len(packs))
	}
	data, err := os.ReadFile(packs[0])
	if err != nil {
		t.Fatal(err)
	}
	body := 12 + int(binary.LittleEndian.Uint32(data[4:]))*36 + 4 // header, index, crc
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(data[body:])))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	var z bytes.Buffer
	zw, _ := flate.NewWriter(&z, flate.BestSpeed) // the level is valid
	zw.Write(raw)
	zw.Close()
	if err := os.WriteFile(packs[0], append(data[:body:body], z.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := openMgr(t, dir).Lookup(ks); !errors.Is(err, core.ErrNoCache) {
		t.Fatalf("lookup over a damaged member: %v, want ErrNoCache", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "store", "quarantine", filepath.Base(packs[0]))); err != nil {
		t.Errorf("pack not quarantined: %v", err)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, core.QuarantineDir, "*")); len(q) != 0 {
		t.Errorf("the manifest was blamed for its pack: %v", q)
	}
	if _, err := os.Stat(filepath.Join(dir, ks.ManifestFileName())); err != nil {
		t.Errorf("manifest gone: %v", err)
	}
}

// TestCompactStoreAbortsOnManifestReadError: a manifest compaction cannot
// read is no evidence that its blobs are dead. One transient read error
// must fail the compaction and cost the entry nothing: the next launch
// translates no trace.
func TestCompactStoreAbortsOnManifestReadError(t *testing.T) {
	newVM := flushWorkload(t, 5)
	inj := fsx.NewInject(nil)
	mgr := openMgr(t, t.TempDir(), core.WithFS(inj))
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
