package core_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"persistcc/internal/core"
	"persistcc/internal/fsx"
	"persistcc/internal/loader"
	"persistcc/internal/store"
	"persistcc/internal/testprog"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
)

// Crash-consistency chaos harness: enumerate every filesystem operation the
// write sequence performs, simulate a process crash at each one, reopen the
// database, and check the invariants. The sequence covers every path that
// writes a database entry or the store under it: commits (one pack of new
// blobs + manifest write), accumulation, in-place migration of a legacy
// entry, adoption of the packs a remote serves for the blobs a manifest is
// missing, eviction of an entry, and compaction (pack removal and the
// rewrite of a pack that mixes live and dead blobs). Invariants:
//
//  1. the database opens and every listed entry is a verifiable file;
//  2. a crashed writer loses at most its own in-flight entry — the
//     baseline entry written before the crash, as a legacy image, is
//     warm-servable once a migration has run, whether or not the crashed
//     sequence's own migration finished;
//  3. the in-flight entry is absent or fully valid — a torn manifest or a
//     missing blob degrades to a miss, never to a broken read — and so is
//     every written-through blob;
//  4. recovery (which heals the blob store, then re-verifies every entry)
//     always completes, finds nothing torn to quarantine, and keeps the
//     baseline.
//
// This is table-driven over ALL injection points (recorded by a passthrough
// run), not a sampled subset.

const chaosLibSrc = `
.text
.global compute
compute:
	add  t0, a0, a0
	addi a0, t0, 1
	ret
`

// chaosMainSrc parameterizes the seed constant so two "applications" get
// distinct application keys.
const chaosMainSrc = `
.text
.global _start
_start:
	movi t1, 0x08000000
	ld   s0, 0(t1)
	movi s1, %d
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

// chaosEnv holds the prebuilt cache files the crash loop replays: building
// traces needs VM runs, but the crash loop itself is pure file operations.
type chaosEnv struct {
	cfA        *core.CacheFile // baseline application, committed cleanly first
	ksA        core.KeySet
	cfB1, cfB2 *core.CacheFile // in-flight application: fresh commit, then accumulate
	ksB        core.KeySet
}

func chaosRan(t *testing.T, w *testutil.World, input uint64) *vm.VM {
	t.Helper()
	p, err := testprog.Load(w.Exe, w.Libs, loader.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(p, vm.WithInput([]uint64{input}))
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	return v
}

func buildChaosEnv(t *testing.T) *chaosEnv {
	t.Helper()
	wA := testutil.BuildWorld(t, "appa", fmt.Sprintf(chaosMainSrc, 1), map[string]string{"libwork.so": chaosLibSrc})
	wB := testutil.BuildWorld(t, "appb", fmt.Sprintf(chaosMainSrc, 2), map[string]string{"libwork.so": chaosLibSrc})
	env := &chaosEnv{}
	env.cfA, env.ksA = core.BuildCacheFile(chaosRan(t, wA, 10))
	// Input 0 never runs the loop body: B's first commit holds a strict
	// subset of its second, so the second commit exercises the
	// accumulation/merge path for real.
	env.cfB1, env.ksB = core.BuildCacheFile(chaosRan(t, wB, 0))
	env.cfB2, _ = core.BuildCacheFile(chaosRan(t, wB, 10))
	if env.ksA.App == env.ksB.App {
		t.Fatal("applications share a key; the inter-entry invariant would be vacuous")
	}
	if len(env.cfB2.Traces) <= len(env.cfB1.Traces) {
		t.Fatalf("second commit adds no traces (%d vs %d); merge path untested",
			len(env.cfB2.Traces), len(env.cfB1.Traces))
	}
	return env
}

// chaosRemote is the fleet side of the sequence: the manifest of an
// application this database never ran, and another machine's store that
// serves the packs holding its blobs, as a daemon answers FETCHPACKS.
type chaosRemote struct {
	man *store.Manifest
	st  *store.Store
}

func (r *chaosRemote) packs(missing []store.Hash) ([][]byte, error) {
	return r.st.PackFiles(missing, 1<<30), nil
}

func buildChaosRemote(t *testing.T) *chaosRemote {
	t.Helper()
	w := testutil.BuildWorld(t, "appc", fmt.Sprintf(chaosMainSrc, 3), map[string]string{"libwork.so": chaosLibSrc})
	cf, _ := core.BuildCacheFile(chaosRan(t, w, 10))
	man, blobs, err := core.ToStoreFormat(cf)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, hashes, err := st.PutAll(blobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range man.Traces {
		man.Traces[i].Blob = hashes[i]
	}
	return &chaosRemote{man: man, st: st}
}

// chaosSequence is the injected workload: two commits (fresh +
// accumulating), migration of the legacy baseline, a manifest
// materialized from the remote (its library blobs are already local; its
// own are missing, and the remote's one pack that holds them — library
// blobs too — is adopted whole), eviction of the in-flight entry, and a
// compaction pass that removes the packs holding only that entry's or only
// adopted blobs and rewrites the packs that also hold the library blob the
// baseline references — the full pack-write/migrate/adopt/compact crash
// surface. between, when
// non-nil, runs before each step: a live peer's turn.
func chaosSequence(mgr *core.Manager, env *chaosEnv, remote *chaosRemote, between func()) error {
	steps := []func() error{
		func() error { _, err := mgr.CommitFile(core.DeltaOf(env.cfB1)); return err },
		func() error { _, err := mgr.CommitFile(core.DeltaOf(env.cfB2)); return err },
		func() error { _, err := mgr.MigrateToStore(); return err },
		func() error {
			_, err := mgr.MaterializeFrom(remote.man, remote.packs)
			return err
		},
		func() error { return mgr.RemoveEntry(env.ksB.ManifestFileName()) },
		func() error { _, err := mgr.CompactStore(); return err },
	}
	for _, step := range steps {
		if between != nil {
			between()
		}
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// freshDB seeds a new database directory with the baseline entry, as a
// legacy image: what a database written before every commit wrote
// manifests holds, and what migration converts.
func freshDB(t *testing.T, env *chaosEnv) string {
	t.Helper()
	dir := t.TempDir()
	testutil.WriteLegacy(t, dir, env.cfA)
	return dir
}

// assertCrashInvariants reopens the database post-crash and checks every
// durability invariant.
func assertCrashInvariants(t *testing.T, dir string, env *chaosEnv, remote *chaosRemote) {
	t.Helper()
	mgr, err := core.NewManager(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	entries, err := mgr.Entries()
	if err != nil {
		t.Fatalf("reopened database unlistable: %v", err)
	}
	for _, e := range entries {
		if _, err := readEntry(mgr, e.File); err != nil {
			t.Errorf("listed entry %s is an unverifiable file: %v", e.File, err)
		}
	}
	// Baseline entry always survives: once a migration has run — over the
	// legacy image, or over the manifest one the crashed sequence finished
	// left — it reads back whole. The migration's recovery pass, like the
	// one below, finds nothing torn to quarantine.
	mrep, err := mgr.MigrateToStore()
	if err != nil {
		t.Fatalf("migration after the crash failed: %v", err)
	}
	if n := quarantinedCount(mgr); mrep.Quarantined != 0 || n != 0 {
		t.Errorf("migration after the crash quarantined %d files (%d by the counters): a crash published torn content", mrep.Quarantined, n)
	}
	cfA, err := mgr.Lookup(env.ksA)
	if err != nil {
		t.Fatalf("baseline entry lost: %v", err)
	}
	if len(cfA.Traces) != len(env.cfA.Traces) {
		t.Errorf("baseline lost traces: %d, want %d", len(cfA.Traces), len(env.cfA.Traces))
	}
	// The in-flight entry is absent or fully valid — never torn.
	if cfB, err := mgr.Lookup(env.ksB); err == nil {
		if n := len(cfB.Traces); n != len(env.cfB1.Traces) && n != len(env.cfB2.Traces) {
			t.Errorf("in-flight entry has %d traces; want %d (first commit) or %d (merged)",
				n, len(env.cfB1.Traces), len(env.cfB2.Traces))
		}
	} else if !errors.Is(err, core.ErrNoCache) {
		t.Errorf("in-flight lookup: want hit or ErrNoCache, got %v", err)
	}
	// Whatever the adoption left behind, the remote application still
	// materializes whole: each blob comes valid from the local store or
	// again from the remote.
	if cf, err := mgr.MaterializeFrom(remote.man, remote.packs); err != nil {
		t.Errorf("remote manifest after crash: %v", err)
	} else if len(cf.Traces) != len(remote.man.Traces) {
		t.Errorf("remote manifest materialized %d of %d traces", len(cf.Traces), len(remote.man.Traces))
	}
	// Recovery — blob-store heal plus manifest re-verification — always
	// completes, meets no torn blob or manifest, and keeps the baseline.
	rep, err := mgr.RecoverIndex()
	if err != nil {
		t.Fatalf("post-crash recovery failed: %v", err)
	}
	if rep.FilesQuarantined != 0 {
		t.Errorf("recovery quarantined %d files: a crash published torn content", rep.FilesQuarantined)
	}
	if _, err := mgr.Lookup(env.ksA); err != nil {
		t.Errorf("baseline lost by recovery: %v", err)
	}
}

// quarantinedCount is how many files mgr has quarantined, of every kind, the
// blob store's included.
func quarantinedCount(mgr *core.Manager) int {
	snap := mgr.Metrics().Snapshot()
	n, _ := snap.Value("pcc_store_blob_quarantine_total")
	for _, kind := range []string{"cachefile", "manifest", "verify"} {
		v, _ := snap.Value("pcc_core_quarantine_total", kind)
		n += v
	}
	return int(n)
}

func TestChaosCrashAtEveryInjectionPoint(t *testing.T) {
	restore := core.SetLockTimeout(50 * time.Millisecond)
	defer restore()
	env := buildChaosEnv(t)
	remote := buildChaosRemote(t)

	// Enumerate the injection points with a recording passthrough run.
	recDir := freshDB(t, env)
	rec := fsx.NewInject(fsx.OS)
	mgr, err := core.NewManager(recDir, core.WithFS(rec))
	if err != nil {
		t.Fatal(err)
	}
	// Arm after construction so op indices cover exactly the sequence, not
	// the manager's own MkdirAll.
	rec.StartRecording()
	if err := chaosSequence(mgr, env, remote, nil); err != nil {
		t.Fatalf("fault-free sequence failed: %v", err)
	}
	ops := rec.Ops()
	if len(ops) < 25 {
		t.Fatalf("recorded only %d operations; the sequence shrank suspiciously: %v", len(ops), ops)
	}
	// The sweep below must cover a crash between a pack's rename and the
	// manifest write that follows it, and one inside compaction's rewrite
	// (between the new pack's rename and the old pack's removal).
	var packThenManifest, rewrite bool
	for i := 0; i+1 < len(ops); i++ {
		if ops[i].Op != fsx.OpRename || !strings.HasSuffix(ops[i].Path, ".pck") {
			continue
		}
		next := ops[i+1]
		packThenManifest = packThenManifest || (next.Op == fsx.OpWrite && strings.HasSuffix(next.Path, ".pcm.tmp"))
		rewrite = rewrite || (next.Op == fsx.OpRemove && strings.HasSuffix(next.Path, ".pck"))
	}
	if !packThenManifest || !rewrite {
		t.Fatalf("sequence lost a crash window: pack-rename→manifest-write %t, compaction rewrite %t", packThenManifest, rewrite)
	}
	assertCrashInvariants(t, recDir, env, remote)

	// Crash at every single one of them.
	for k := 1; k <= len(ops); k++ {
		op := ops[k-1]
		t.Run(fmt.Sprintf("crash-%03d-%s-%s", k, op.Op, filepath.Base(op.Path)), func(t *testing.T) {
			dir := freshDB(t, env)
			inj := fsx.NewInject(fsx.OS)
			mgr, err := core.NewManager(dir, core.WithFS(inj))
			if err != nil {
				t.Fatal(err)
			}
			inj.CrashAtIndex(k)
			// The sequence may fail (usually) or succeed (crash landed in
			// post-publish cleanup); either way the database must hold.
			chaosSequence(mgr, env, remote, nil)
			if !inj.Crashed() {
				t.Fatalf("crash point %d never reached", k)
			}
			assertCrashInvariants(t, dir, env, remote)
		})
	}
}

// TestChaosStaleLockAfterCrash: a crash while holding the database lock
// leaves .lock behind; the next writer steals it and commits normally. A
// commit holds the lock across both of its writes, the pack and then the
// manifest, so a crash at either leaves it.
func TestChaosStaleLockAfterCrash(t *testing.T) {
	restore := core.SetLockTimeout(50 * time.Millisecond)
	defer restore()
	env := buildChaosEnv(t)
	remote := buildChaosRemote(t)
	for _, write := range []struct{ name, path string }{{"pack", ".pck."}, {"manifest", ".pcm.tmp"}} {
		t.Run(write.name, func(t *testing.T) {
			dir := freshDB(t, env)
			inj := fsx.NewInject(fsx.OS)
			inj.CrashAt(fsx.OpWrite, write.path, 1)
			mgr, err := core.NewManager(dir, core.WithFS(inj))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mgr.CommitFile(core.DeltaOf(env.cfB1)); !errors.Is(err, fsx.ErrCrashed) {
				t.Fatalf("want simulated crash, got %v", err)
			}
			if _, err := os.Stat(filepath.Join(dir, ".lock")); err != nil {
				t.Fatalf("crash did not leave the lock behind: %v", err)
			}
			// Reopen: the stale lock is stolen, the commit lands, the lock
			// clears.
			mgr2, err := core.NewManager(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mgr2.CommitFile(core.DeltaOf(env.cfB1)); err != nil {
				t.Fatalf("commit after crash did not steal the stale lock: %v", err)
			}
			if _, err := os.Stat(filepath.Join(dir, ".lock")); !errors.Is(err, os.ErrNotExist) {
				t.Error("lock not released after steal")
			}
			assertCrashInvariants(t, dir, env, remote)
		})
	}
}

// TestStoreChaosWithLivePeer is the crash sweep's shared-directory variant:
// the store directory has a live peer. Before every step of the sequence a
// second Store publishes a pack and scrubs the directory within the
// staleness bound; a third Store, opened before any of it, must resolve
// each publish by listing the pack names again, while a reader goroutine
// keeps it busy. The manager crashes at every operation that writes,
// publishes or removes a pack; whatever temp it leaves behind must survive
// the peer's scrub, and the crash invariants must hold with the peer's
// packs in the directory.
func TestStoreChaosWithLivePeer(t *testing.T) {
	restore := core.SetLockTimeout(50 * time.Millisecond)
	defer restore()
	env := buildChaosEnv(t)
	remote := buildChaosRemote(t)
	seedMan, seedBlobs, err := core.ToStoreFormat(env.cfA)
	if err != nil {
		t.Fatal(err)
	}

	run := func(t *testing.T, crashAt int) []fsx.Record {
		dir := freshDB(t, env)
		storeDir := filepath.Join(dir, "store")
		open := func() *store.Store {
			st, err := store.Open(storeDir, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		early, peer := open(), open()
		inj := fsx.NewInject(fsx.OS)
		mgr, err := core.NewManager(dir, core.WithFS(inj))
		if err != nil {
			t.Fatal(err)
		}

		var mu sync.Mutex
		var published []store.TraceRef
		stop := make(chan struct{})
		var reader sync.WaitGroup
		reader.Add(1)
		go func() { // keeps early's index and pack cache under concurrent use
			defer reader.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				traces := append([]store.TraceRef(nil), published...)
				mu.Unlock()
				early.LocalTraces(&store.Manifest{Modules: seedMan.Modules, Traces: traces}, nil)
			}
		}()
		tmps := func() []string {
			names, _ := filepath.Glob(filepath.Join(storeDir, "gen*", "*.tmp"))
			return names
		}
		peerTurn := func() {
			b := *seedBlobs[0]
			b.ModOff += uint32(len(published) + 1) // distinct content each turn
			_, hashes, err := peer.PutAll([]*store.Blob{&b})
			if err != nil {
				t.Fatalf("peer publish: %v", err)
			}
			before := tmps()
			if rep, err := peer.Recover(time.Minute); err != nil || rep.Quarantined != 0 || rep.TmpRemoved != 0 {
				t.Errorf("peer scrub: %+v, %v; want nothing quarantined, no temp removed", rep, err)
			}
			if after := tmps(); len(after) != len(before) {
				t.Errorf("peer scrub removed a writer's temp: %v, was %v", after, before)
			}
			if _, err := early.Get(hashes[0]); err != nil {
				t.Errorf("store opened before the publish does not resolve it: %v", err)
			}
			tr := seedMan.Traces[0]
			tr.Blob = hashes[0]
			mu.Lock()
			published = append(published, tr)
			mu.Unlock()
		}

		if crashAt > 0 {
			inj.CrashAtIndex(crashAt)
		}
		inj.StartRecording()
		err = chaosSequence(mgr, env, remote, peerTurn)
		if crashAt == 0 && err != nil {
			t.Fatalf("fault-free sequence failed: %v", err)
		}
		if crashAt > 0 && !inj.Crashed() {
			t.Fatalf("crash point %d never reached", crashAt)
		}
		peerTurn() // the peer outlives the crashed writer
		close(stop)
		reader.Wait()
		assertCrashInvariants(t, dir, env, remote)
		return inj.Ops()
	}

	ops := run(t, 0)
	points := 0
	for k, op := range ops {
		if !strings.Contains(op.Path, ".pck") || (op.Op != fsx.OpWrite && op.Op != fsx.OpSync && op.Op != fsx.OpRename && op.Op != fsx.OpRemove) {
			continue
		}
		points++
		t.Run(fmt.Sprintf("crash-%03d-%s", k+1, op.Op), func(t *testing.T) { run(t, k+1) })
	}
	if points < 15 {
		t.Fatalf("only %d pack-writing operations in the sequence", points)
	}
}
