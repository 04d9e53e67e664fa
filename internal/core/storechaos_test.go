package core_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"persistcc/internal/core"
	"persistcc/internal/fsx"
	"persistcc/internal/store"
	"persistcc/internal/testutil"
)

// Crash-consistency chaos over the store format: the same
// crash-at-every-filesystem-op discipline as chaos_test.go, but the
// injected sequence covers the manifest+blob surface — store-format
// commits (one pack of new blobs + manifest write), accumulation, in-place
// migration of a legacy entry, adoption of the packs a remote serves for
// the blobs a manifest is missing, eviction of an entry, and compaction (pack removal and the rewrite
// of a pack that mixes live and dead blobs). Invariants:
//
//  1. the baseline entry committed before the crash stays warm-servable,
//     whichever format it is in when the crash lands;
//  2. the in-flight entry is absent or fully valid — a torn manifest or a
//     missing blob degrades to a miss, never to a broken read — and so is
//     every written-through blob;
//  3. recovery (which heals the blob store, then re-verifies every entry
//     through the manifest path) always completes, finds nothing torn to
//     quarantine, and keeps the baseline.

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

// storeChaosSequence is the injected workload: two store-format commits
// (fresh + accumulating), migration of the legacy baseline, a manifest
// materialized from the remote (its library blobs are already local; its
// own are missing, and the remote's one pack that holds them — library
// blobs too — is adopted whole), eviction of the in-flight entry, and a
// compaction pass that removes the packs holding only that entry's or only
// adopted blobs and rewrites the packs that also hold the library blob the
// baseline references — the full pack-write/migrate/adopt/compact crash
// surface. between, when
// non-nil, runs before each step: a live peer's turn.
func storeChaosSequence(mgr *core.Manager, env *chaosEnv, remote *chaosRemote, between func()) error {
	steps := []func() error{
		func() error { _, err := mgr.CommitFile(env.ksB, env.cfB1); return err },
		func() error { _, err := mgr.CommitFile(env.ksB, env.cfB2); return err },
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

// assertStoreCrashInvariants reopens the database post-crash with a
// store-mode manager and checks the durability invariants across both
// formats.
func assertStoreCrashInvariants(t *testing.T, dir string, env *chaosEnv, remote *chaosRemote) {
	t.Helper()
	mgr, err := core.NewManager(dir, core.WithStore())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	// Baseline entry always survives, legacy or migrated.
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

func TestStoreChaosCrashAtEveryInjectionPoint(t *testing.T) {
	restore := core.SetLockTimeout(50 * time.Millisecond)
	defer restore()
	env := buildChaosEnv(t)
	remote := buildChaosRemote(t)

	// Enumerate the injection points with a recording passthrough run.
	recDir := freshDB(t, env)
	rec := fsx.NewInject(fsx.OS)
	mgr, err := core.NewManager(recDir, core.WithStore(), core.WithFS(rec))
	if err != nil {
		t.Fatal(err)
	}
	rec.StartRecording()
	if err := storeChaosSequence(mgr, env, remote, nil); err != nil {
		t.Fatalf("fault-free sequence failed: %v", err)
	}
	ops := rec.Ops()
	if len(ops) < 25 {
		t.Fatalf("recorded only %d operations; the store sequence shrank suspiciously: %v", len(ops), ops)
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
	assertStoreCrashInvariants(t, recDir, env, remote)

	// Crash at every single one of them.
	for k := 1; k <= len(ops); k++ {
		op := ops[k-1]
		t.Run(fmt.Sprintf("crash-%03d-%s-%s", k, op.Op, filepath.Base(op.Path)), func(t *testing.T) {
			dir := freshDB(t, env)
			inj := fsx.NewInject(fsx.OS)
			mgr, err := core.NewManager(dir, core.WithStore(), core.WithFS(inj))
			if err != nil {
				t.Fatal(err)
			}
			inj.CrashAtIndex(k)
			// The sequence may fail (usually) or succeed (crash landed in
			// post-publish cleanup); either way the database must hold.
			storeChaosSequence(mgr, env, remote, nil)
			if !inj.Crashed() {
				t.Fatalf("crash point %d never reached", k)
			}
			assertStoreCrashInvariants(t, dir, env, remote)
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
		mgr, err := core.NewManager(dir, core.WithStore(), core.WithFS(inj))
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
				early.LocalTraces(&store.Manifest{Modules: seedMan.Modules, Traces: traces})
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
		err = storeChaosSequence(mgr, env, remote, peerTurn)
		if crashAt == 0 && err != nil {
			t.Fatalf("fault-free sequence failed: %v", err)
		}
		if crashAt > 0 && !inj.Crashed() {
			t.Fatalf("crash point %d never reached", crashAt)
		}
		peerTurn() // the peer outlives the crashed writer
		close(stop)
		reader.Wait()
		assertStoreCrashInvariants(t, dir, env, remote)
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
