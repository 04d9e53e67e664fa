package core_test

import (
	"errors"
	"fmt"
	"path/filepath"
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
// commits (blob batch + manifest write), accumulation, in-place migration
// of a legacy entry, write-through of blobs fetched from a remote tier,
// and compaction. Invariants:
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
// application this database never ran, and an in-memory remote tier that
// holds its blobs.
type chaosRemote struct {
	man   *store.Manifest
	blobs map[store.Hash][]byte
}

func (r *chaosRemote) FetchBlobs(hashes []store.Hash) (map[store.Hash][]byte, error) {
	out := make(map[store.Hash][]byte, len(hashes))
	for _, h := range hashes {
		if enc, ok := r.blobs[h]; ok {
			out[h] = enc
		}
	}
	return out, nil
}

func buildChaosRemote(t *testing.T) *chaosRemote {
	t.Helper()
	w := testutil.BuildWorld(t, "appc", fmt.Sprintf(chaosMainSrc, 3), map[string]string{"libwork.so": chaosLibSrc})
	cf, _ := core.BuildCacheFile(chaosRan(t, w, 10))
	man, blobs, err := core.ToStoreFormat(cf)
	if err != nil {
		t.Fatal(err)
	}
	r := &chaosRemote{man: man, blobs: make(map[store.Hash][]byte, len(blobs))}
	for i, b := range blobs {
		enc := b.Encode()
		man.Traces[i].Blob = store.Sum(enc)
		r.blobs[man.Traces[i].Blob] = enc
	}
	return r
}

// storeChaosSequence is the injected workload: two store-format commits
// (fresh + accumulating), migration of the legacy baseline, a manifest
// materialized from the remote tier (its library blobs are already local,
// its own are fetched and written through), and a compaction pass that
// reclaims those written-through blobs, which no local manifest
// references — the full blob-write/migrate/write-through/compact crash
// surface.
func storeChaosSequence(mgr *core.Manager, env *chaosEnv, remote *chaosRemote) error {
	if _, err := mgr.CommitFile(env.ksB, env.cfB1); err != nil {
		return err
	}
	if _, err := mgr.CommitFile(env.ksB, env.cfB2); err != nil {
		return err
	}
	if _, err := mgr.MigrateToStore(); err != nil {
		return err
	}
	mgr.SetRemoteBlobs(remote)
	if _, err := mgr.MaterializeManifest(remote.man); err != nil {
		return err
	}
	if _, err := mgr.CompactStore(); err != nil {
		return err
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
	// Whatever the write-through left behind, the remote application
	// still materializes whole: each blob comes valid from the local store
	// or again from the remote.
	mgr.SetRemoteBlobs(remote)
	if cf, err := mgr.MaterializeManifest(remote.man); err != nil {
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
	if err := storeChaosSequence(mgr, env, remote); err != nil {
		t.Fatalf("fault-free sequence failed: %v", err)
	}
	ops := rec.Ops()
	if len(ops) < 25 {
		t.Fatalf("recorded only %d operations; the store sequence shrank suspiciously: %v", len(ops), ops)
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
			storeChaosSequence(mgr, env, remote)
			if !inj.Crashed() {
				t.Fatalf("crash point %d never reached", k)
			}
			assertStoreCrashInvariants(t, dir, env, remote)
		})
	}
}
