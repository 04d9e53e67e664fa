package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"persistcc/internal/core"
	"persistcc/internal/loader"
	"persistcc/internal/metrics"
	"persistcc/internal/store"
	"persistcc/internal/testutil"
	"persistcc/internal/workload"
)

// openMgr opens a manager over dir.
func openMgr(t *testing.T, dir string, opts ...core.ManagerOption) *core.Manager {
	t.Helper()
	mgr, err := core.NewManager(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

// TestStoreFormatBitIdentical: the same cache file committed as a manifest
// and written as a legacy image, then migrated, must read back
// byte-for-byte identical — the store format is a pure re-encoding, never
// a lossy one.
func TestStoreFormatBitIdentical(t *testing.T) {
	env := buildChaosEnv(t)
	legacy := openMgr(t, t.TempDir())
	testutil.WriteLegacy(t, legacy.Dir(), env.cfA)
	if _, err := legacy.MigrateToStore(); err != nil {
		t.Fatal(err)
	}
	stored := openMgr(t, t.TempDir())
	if _, err := stored.CommitFile(core.DeltaOf(env.cfA)); err != nil {
		t.Fatal(err)
	}
	cfL, err := legacy.Lookup(env.ksA)
	if err != nil {
		t.Fatal(err)
	}
	cfS, err := stored.Lookup(env.ksA)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := cfL.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bs, err := cfS.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bl, bs) {
		t.Fatalf("store round trip is not bit-identical: legacy %d bytes, store %d bytes", len(bl), len(bs))
	}
}

// TestStoreFormatSharesBlobs: two applications built against the same
// shared library at the same placement must share the library's blobs —
// the content-addressing contract that makes the store deduplicate.
func TestStoreFormatSharesBlobs(t *testing.T) {
	env := buildChaosEnv(t)
	dir := t.TempDir()
	mgr := openMgr(t, dir)
	if _, err := mgr.CommitFile(core.DeltaOf(env.cfA)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.CommitFile(core.DeltaOf(env.cfB2)); err != nil {
		t.Fatal(err)
	}
	manA := readManifest(t, dir, env.ksA.ManifestFileName())
	manB := readManifest(t, dir, env.ksB.ManifestFileName())
	shared := 0
	inA := make(map[store.Hash]bool)
	for _, h := range manA.BlobHashes() {
		inA[h] = true
	}
	for _, h := range manB.BlobHashes() {
		if inA[h] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no blob shared between two applications using the same library at the same placement")
	}
	ss, err := mgr.StoreStats()
	if err != nil {
		t.Fatal(err)
	}
	if ss == nil || ss.Manifests != 2 {
		t.Fatalf("store stats: %+v, want 2 manifests", ss)
	}
	if ss.DedupRatio <= 0 {
		t.Errorf("dedup ratio %.3f, want > 0 with shared blobs", ss.DedupRatio)
	}
	if ss.LogicalBytes <= ss.BlobBytes {
		t.Errorf("logical bytes %d not above physical blob bytes %d", ss.LogicalBytes, ss.BlobBytes)
	}
}

func readManifest(t *testing.T, dir, file string) *store.Manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.DecodeManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// TestStoreLegacyInterop: a legacy entry an earlier version wrote is a miss
// until it is migrated — the launch runs cold — and a commit of its key set
// writes the manifest beside it as over an empty entry, leaving the image as
// it lies for the migration.
func TestStoreLegacyInterop(t *testing.T) {
	env := buildChaosEnv(t)
	dir := t.TempDir()
	pcc := testutil.WriteLegacy(t, dir, env.cfB1)
	image, err := os.ReadFile(pcc)
	if err != nil {
		t.Fatal(err)
	}
	pcm := filepath.Join(dir, env.ksB.ManifestFileName())

	mgr := openMgr(t, dir)
	if _, err := mgr.Lookup(env.ksB); !errors.Is(err, core.ErrNoCache) {
		t.Fatalf("lookup of an unmigrated entry: %v, want ErrNoCache", err)
	}
	rep, err := mgr.CommitFile(core.DeltaOf(env.cfB2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accumulate || rep.File != env.ksB.ManifestFileName() {
		t.Errorf("commit beside a legacy image: %+v; want a fresh manifest", rep)
	}
	if _, err := os.Stat(pcm); err != nil {
		t.Error("commit did not write the manifest")
	}
	if after, err := os.ReadFile(pcc); err != nil || !bytes.Equal(after, image) {
		t.Errorf("commit touched the legacy image: %v", err)
	}
}

// TestOneStemInTwoFormats: a launch that commits before the database is
// migrated leaves one entry as both x.pcc and x.pcm. The manager lists it
// once, as the manifest its Lookup reads, so Stats counts it once, and its
// inter-application lookup reads the manifest too. Migration then merges
// the image into the manifest as the prior and retires it: each holds
// traces the other lacks, and the entry ends with all of them.
func TestOneStemInTwoFormats(t *testing.T) {
	env := buildChaosEnv(t)
	dir := t.TempDir()
	half := len(env.cfB2.Traces) / 2
	image, committed := *env.cfB2, *env.cfB2
	image.Traces, committed.Traces = env.cfB2.Traces[:half], env.cfB2.Traces[half:]
	pcc := testutil.WriteLegacy(t, dir, &image)
	mgr := openMgr(t, dir)
	if _, err := mgr.CommitFile(core.DeltaOf(&committed)); err != nil {
		t.Fatal(err)
	}
	if env.ksA.VM != env.ksB.VM || env.ksA.Tool != env.ksB.Tool {
		t.Fatal("applications differ in VM or tool key; the inter-application lookup would be vacuous")
	}

	file, traces := env.ksB.ManifestFileName(), len(committed.Traces)
	exact, err := mgr.Lookup(env.ksB)
	if err != nil || len(exact.Traces) != traces {
		t.Fatalf("lookup: %v; want %d traces from %s", err, traces, file)
	}
	entries, err := mgr.Entries()
	if err != nil || len(entries) != 1 || entries[0].File != file || entries[0].Traces != traces {
		t.Fatalf("entries %+v, %v; want %s alone, %d traces", entries, err, file, traces)
	}
	st, err := mgr.Stats()
	if err != nil || st.Files != 1 || st.Traces != traces {
		t.Fatalf("stats %+v, %v; want 1 file of %d traces", st, err, traces)
	}
	inter, err := mgr.LookupInterApp(env.ksA)
	if err != nil || len(inter.Traces) != traces {
		t.Fatalf("inter-application lookup: %v; want the %d traces of %s", err, traces, file)
	}

	rep, err := mgr.MigrateToStore()
	if err != nil || rep.Migrated != 1 {
		t.Fatalf("migrate: %+v, %v", rep, err)
	}
	if _, err := os.Stat(pcc); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("migration left the image it merged: %v", err)
	}
	merged, err := mgr.Lookup(env.ksB)
	if err != nil || len(merged.Traces) != len(env.cfB2.Traces) {
		t.Fatalf("merged entry: %v; want the image's %d traces and the manifest's %d", err, half, traces)
	}
}

// TestRemoveEntryRetiresLegacyImage: evicting an entry removes both files
// of its stem, the manifest a launch committed and the legacy image beside
// it, so a later migration cannot bring the evicted entry back.
func TestRemoveEntryRetiresLegacyImage(t *testing.T) {
	env := buildChaosEnv(t)
	dir := t.TempDir()
	pcc := testutil.WriteLegacy(t, dir, env.cfB1)
	mgr := openMgr(t, dir)
	if _, err := mgr.CommitFile(core.DeltaOf(env.cfB2)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.RemoveEntry(env.ksB.ManifestFileName()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(pcc); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("eviction left the legacy image: %v", err)
	}
	if rep, err := mgr.MigrateToStore(); err != nil || rep.Scanned != 0 {
		t.Fatalf("migrate after eviction: %+v, %v; want nothing to scan", rep, err)
	}
	if _, err := mgr.Lookup(env.ksB); !errors.Is(err, core.ErrNoCache) {
		t.Errorf("evicted entry resolves after migration: %v", err)
	}
}

// TestMigrateToStore: in-place migration converts every healthy legacy
// file, quarantines corrupt ones instead of laundering them into the new
// format, and leaves a database recovery considers fully healthy.
func TestMigrateToStore(t *testing.T) {
	restore := core.SetLockTimeout(50 * time.Millisecond)
	defer restore()
	env := buildChaosEnv(t)
	dir := t.TempDir()
	testutil.WriteLegacy(t, dir, env.cfA)
	// Corrupt B's file: migration must quarantine it, not convert it.
	bad := testutil.WriteLegacy(t, dir, env.cfB2)
	raw, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	mgr := openMgr(t, dir, core.WithLockTimeout(2*time.Second))
	rep, err := mgr.MigrateToStore()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 2 || rep.Migrated != 1 || rep.Quarantined != 1 {
		t.Fatalf("migrate report: %+v, want scanned=2 migrated=1 quarantined=1", rep)
	}
	if v, _ := mgr.Metrics().Snapshot().Value("pcc_core_quarantine_total", "cachefile"); v != 1 {
		t.Errorf("pcc_core_quarantine_total{cachefile} = %v, want 1", v)
	}
	if rep.BlobsAdded == 0 || rep.BytesBefore == 0 || rep.BytesAfter == 0 {
		t.Fatalf("migrate report has empty byte accounting: %+v", rep)
	}
	// The healthy entry survived the format change and the corrupt one is
	// a clean miss.
	cf, err := mgr.Lookup(env.ksA)
	if err != nil {
		t.Fatalf("migrated entry unreadable: %v", err)
	}
	if len(cf.Traces) != len(env.cfA.Traces) {
		t.Fatalf("migration lost traces: %d vs %d", len(cf.Traces), len(env.cfA.Traces))
	}
	if _, err := mgr.Lookup(env.ksB); !errors.Is(err, core.ErrNoCache) {
		t.Fatalf("quarantined entry still resolves: %v", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.pcc")); len(files) != 0 {
		t.Errorf("legacy files left after migration: %v", files)
	}
	// Recovery (which deep-verifies through the manifest path) stays green.
	rrep, err := mgr.RecoverIndex()
	if err != nil {
		t.Fatal(err)
	}
	if rrep.FilesQuarantined != 0 {
		t.Errorf("recovery quarantined %d migrated files", rrep.FilesQuarantined)
	}
	if _, err := mgr.Lookup(env.ksA); err != nil {
		t.Errorf("migrated entry lost by recovery: %v", err)
	}
}

// TestMigrateGUIFixture migrates a legacy database of three GUI
// applications that share their libraries, one image bit-flipped mid-file,
// in place. The corrupt image is quarantined, not laundered; the other two
// migrate and leave no legacy file behind; recovery then quarantines
// nothing. Through a deep-verifying manager the corrupt entry is a miss,
// and each migrated one primes a launch that beats its cold run's ticks.
func TestMigrateGUIFixture(t *testing.T) {
	gui, err := workload.BuildGUISuite()
	if err != nil {
		t.Fatal(err)
	}
	apps := gui.Apps[:3]
	cfg := loader.Config{Placement: loader.PlaceHashed}
	dir := t.TempDir()
	keys := make([]core.KeySet, len(apps))
	coldTicks := make([]uint64, len(apps))
	for i, app := range apps {
		v, err := app.Prog.NewVM(cfg, app.Startup)
		if err != nil {
			t.Fatal(err)
		}
		res, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		var cf *core.CacheFile
		cf, keys[i] = core.BuildCacheFile(v)
		coldTicks[i] = res.Stats.Ticks
		path := testutil.WriteLegacy(t, dir, cf)
		if i == 1 {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x40
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	mgr := openMgr(t, dir)
	mrep, err := mgr.MigrateToStore()
	if err != nil {
		t.Fatal(err)
	}
	if mrep.Scanned != 3 || mrep.Migrated != 2 || mrep.Quarantined != 1 {
		t.Fatalf("scanned/migrated/quarantined = %d/%d/%d, want 3/2/1", mrep.Scanned, mrep.Migrated, mrep.Quarantined)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.pcc")); len(left) != 0 {
		t.Errorf("legacy files left after migration: %v", left)
	}
	if rrep, err := mgr.RecoverIndex(); err != nil || rrep.FilesQuarantined != 0 {
		t.Fatalf("recovery after migration: %+v, %v; want nothing quarantined", rrep, err)
	}

	deep := openMgr(t, dir, core.WithDeepVerify())
	for i, app := range apps {
		if i == 1 {
			if _, err := deep.Lookup(keys[i]); !errors.Is(err, core.ErrNoCache) {
				t.Errorf("%s: corrupt entry: %v, want ErrNoCache", app.Name, err)
			}
			continue
		}
		v, err := app.Prog.NewVM(cfg, app.Startup)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := deep.Prime(v)
		if err != nil || prep.Installed == 0 {
			t.Fatalf("%s: prime from the migrated database: %+v, %v", app.Name, prep, err)
		}
		res, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Ticks >= coldTicks[i] {
			t.Errorf("%s: warm run took %d ticks, cold %d; want fewer", app.Name, res.Stats.Ticks, coldTicks[i])
		}
	}
}

// TestConcurrentManagersDedup: several databases pointed at one shared
// store directory commit the same content concurrently; the shared blobs
// must end up stored once, and every database must stay readable. Run
// with -race this also exercises the store's locking.
func TestConcurrentManagersDedup(t *testing.T) {
	env := buildChaosEnv(t)
	storeDir := filepath.Join(t.TempDir(), "shared-store")
	const n = 4
	dirs := make([]string, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		dirs[i] = t.TempDir()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mgr, err := core.NewManager(dirs[i], core.WithStoreDir(storeDir))
			if err != nil {
				errs[i] = err
				return
			}
			if _, err := mgr.CommitFile(core.DeltaOf(env.cfA)); err != nil {
				errs[i] = fmt.Errorf("commit A: %w", err)
				return
			}
			if _, err := mgr.CommitFile(core.DeltaOf(env.cfB2)); err != nil {
				errs[i] = fmt.Errorf("commit B: %w", err)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("manager %d: %v", i, err)
		}
	}
	// Every database reads back, resolving blobs from the shared store.
	for i := 0; i < n; i++ {
		mgr, err := core.NewManager(dirs[i], core.WithStoreDir(storeDir))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Lookup(env.ksA); err != nil {
			t.Fatalf("db %d lost entry A: %v", i, err)
		}
		if _, err := mgr.Lookup(env.ksB); err != nil {
			t.Fatalf("db %d lost entry B: %v", i, err)
		}
	}
	// The shared store holds each distinct blob exactly once: its physical
	// content equals one database's worth, not n.
	st, err := store.Open(storeDir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A scrub finds every blob whole and no temp left behind.
	if rep, err := st.Recover(0); err != nil || rep.Quarantined != 0 || rep.TmpRemoved != 0 {
		t.Fatalf("shared store scrub: %+v, %v; want nothing quarantined, no temps", rep, err)
	}
	man := readManifest(t, dirs[0], env.ksA.ManifestFileName())
	manB := readManifest(t, dirs[0], env.ksB.ManifestFileName())
	distinct := make(map[store.Hash]bool)
	for _, h := range append(man.BlobHashes(), manB.BlobHashes()...) {
		distinct[h] = true
	}
	if got := st.Stats().Blobs; got != len(distinct) {
		t.Fatalf("shared store holds %d blobs; %d distinct hashes referenced — dedup across managers failed", got, len(distinct))
	}
}

// TestCompactStoreReclaimsOnlyOrphans: manager-level compaction deletes
// the blobs a removed entry leaves behind and nothing a surviving manifest
// references, so the database never points at deleted content.
func TestCompactStoreReclaimsOnlyOrphans(t *testing.T) {
	env := buildChaosEnv(t)
	dir := t.TempDir()
	mgr := openMgr(t, dir, core.WithLockTimeout(2*time.Second))
	if _, err := mgr.CommitFile(core.DeltaOf(env.cfA)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.CommitFile(core.DeltaOf(env.cfB2)); err != nil {
		t.Fatal(err)
	}
	if rep, err := mgr.CompactStore(); err != nil || rep.PrunedOrphans != 0 {
		t.Fatalf("compact with every blob referenced: %+v, %v; want a no-op", rep, err)
	}
	seen := make(map[store.Hash]bool)
	for _, h := range readManifest(t, dir, env.ksA.ManifestFileName()).BlobHashes() {
		seen[h] = true
	}
	onlyB := 0 // distinct hashes no manifest but B's references
	for _, h := range readManifest(t, dir, env.ksB.ManifestFileName()).BlobHashes() {
		if !seen[h] {
			seen[h] = true
			onlyB++
		}
	}
	if err := mgr.RemoveEntry(env.ksB.ManifestFileName()); err != nil {
		t.Fatal(err)
	}
	rep, err := mgr.CompactStore()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrunedOrphans != onlyB || rep.ReclaimedBytes == 0 {
		t.Fatalf("compact: %+v, want the %d blobs only the removed entry referenced", rep, onlyB)
	}
	cf, err := mgr.Lookup(env.ksA)
	if err != nil {
		t.Fatalf("entry unreadable after compaction: %v", err)
	}
	if len(cf.Traces) != len(env.cfA.Traces) {
		t.Fatalf("compaction cost the surviving entry traces: %d, want %d", len(cf.Traces), len(env.cfA.Traces))
	}
	if rrep, err := mgr.RecoverIndex(); err != nil || rrep.FilesQuarantined != 0 {
		t.Fatalf("recovery after compaction: %+v, %v", rrep, err)
	}
	if _, err := mgr.Lookup(env.ksA); err != nil {
		t.Errorf("entry lost by recovery after compaction: %v", err)
	}
}

// TestMultiProcessSharedStore is TestConcurrentManagersDedup with real
// processes: the test binary re-executes itself as four workers, each
// committing the same applications from its own database into one shared
// store directory, while a fifth process keeps opening those databases and
// reading whatever entries they already list. The store has no lock and no
// shared index, so the only protocol under test is "a pack is published by
// one rename of a writer-unique temp, and a reader that meets an unknown
// hash lists the pack names again".
func TestMultiProcessSharedStore(t *testing.T) {
	const workers = 4
	if role := os.Getenv("PCC_STORE_PROC"); role != "" {
		storeProc(t, role, os.Getenv("PCC_STORE_ROOT"), workers)
		return
	}
	root := t.TempDir()
	var cmds []*exec.Cmd
	outs := make([]bytes.Buffer, workers+1)
	for i := 0; i <= workers; i++ {
		role := fmt.Sprint(i)
		if i == workers {
			role = "reader"
		}
		cmd := exec.Command(os.Args[0], "-test.run=^TestMultiProcessSharedStore$", "-test.count=1")
		cmd.Env = append(os.Environ(), "PCC_STORE_PROC="+role, "PCC_STORE_ROOT="+root)
		cmd.Stdout, cmd.Stderr = &outs[i], &outs[i]
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds = append(cmds, cmd)
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Errorf("process %d: %v\n%s", i, err, outs[i].String())
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Every database reads back, and together they reference exactly the
	// blobs the store's packs hold, each once: the workers commit the same
	// sets in the same order, so their packs collide on content-derived
	// names instead of piling up.
	storeDir := filepath.Join(root, "store")
	referenced := make(map[store.Hash]bool)
	refs := 0
	for i := 0; i < workers; i++ {
		dir := filepath.Join(root, fmt.Sprint("db", i))
		if n := readEveryEntry(t, dir, storeDir); n != 2 {
			t.Fatalf("db %d serves %d entries, want 2", i, n)
		}
		manifests, _ := filepath.Glob(filepath.Join(dir, "*.pcm"))
		for _, f := range manifests {
			for _, h := range readManifest(t, dir, filepath.Base(f)).BlobHashes() {
				referenced[h] = true
				refs++
			}
		}
	}
	if refs <= len(referenced) {
		t.Fatalf("%d references to %d distinct blobs: the workers' content does not overlap", refs, len(referenced))
	}
	files, err := filepath.Glob(filepath.Join(storeDir, "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	packed := 0
	for _, f := range files {
		// Anything but a pack of referenced blobs is a leaked temp, a
		// quarantined file, or blobs nobody committed.
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		pk, err := store.DecodePack(data)
		if err != nil || filepath.Ext(f) != ".pck" || filepath.Base(filepath.Dir(f)) != "gen0000" {
			t.Errorf("unexpected file in the shared store: %s (%v)", f, err)
			continue
		}
		for _, h := range pk.Hashes {
			if !referenced[h] {
				t.Errorf("%s holds %s, which no manifest references", filepath.Base(f), h)
			}
		}
		packed += len(pk.Hashes)
	}
	if packed != len(referenced) {
		t.Fatalf("shared store packs hold %d blobs; %d distinct hashes referenced", packed, len(referenced))
	}
	if q, _ := filepath.Glob(filepath.Join(root, "*", "quarantine")); len(q) != 0 {
		t.Errorf("something was quarantined: %v", q)
	}
}

// storeProc is one child of TestMultiProcessSharedStore.
func storeProc(t *testing.T, role, root string, workers int) {
	storeDir := filepath.Join(root, "store")
	if role != "reader" {
		env := buildChaosEnv(t)
		mgr, err := core.NewManager(filepath.Join(root, "db"+role), core.WithStoreDir(storeDir))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			ks core.KeySet
			cf *core.CacheFile
		}{{env.ksA, env.cfA}, {env.ksB, env.cfB1}, {env.ksB, env.cfB2}} {
			if _, err := mgr.CommitFile(core.DeltaOf(c.cf)); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	// The reader polls until every worker's database serves both entries;
	// each round opens fresh managers, so nothing is served from memory.
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		served := 0
		for i := 0; i < workers; i++ {
			served += readEveryEntry(t, filepath.Join(root, fmt.Sprint("db", i)), storeDir)
		}
		if served == 2*workers {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d entries became readable", served, 2*workers)
		}
	}
}

// readEveryEntry opens the database at dir over the shared store and reads
// each entry it lists, returning how many there are. An entry that is
// listed must read back whole (with more traces than listed when an
// accumulating commit replaced the manifest after the listing read it).
func readEveryEntry(t *testing.T, dir, storeDir string) int {
	t.Helper()
	mgr, err := core.NewManager(dir, core.WithStoreDir(storeDir))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := mgr.Entries()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		cf, err := mgr.ReadPrior(e.File)
		if err != nil || cf == nil || len(cf.Traces) < e.Traces {
			t.Fatalf("%s lists %s with %d traces; reading it back: found=%t, err=%v", dir, e.File, e.Traces, cf != nil, err)
		}
	}
	return len(entries)
}

// warmIncoming commits one run of a small program into a fresh store-format
// database and returns the database directory plus what a second, fully
// primed run of the same program would commit: every trace reused, none new
// — and the program, for tests that launch it again.
func warmIncoming(t *testing.T) (dir string, ks core.KeySet, incoming *core.CacheFile, w *testutil.World) {
	t.Helper()
	w = testutil.BuildWorld(t, "appa", fmt.Sprintf(chaosMainSrc, 1), map[string]string{"libwork.so": chaosLibSrc})
	dir = t.TempDir()
	mgr := openMgr(t, dir)
	w.Run(t, mgr, testutil.RunOpts{Input: []uint64{10}, Commit: true})
	v := w.NewVM(t, testutil.RunOpts{Input: []uint64{10}})
	if _, err := mgr.Prime(v); err != nil {
		t.Fatal(err)
	}
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TracesTranslated != 0 {
		t.Fatalf("warm run translated %d traces; the commit under test would not be a no-op", res.Stats.TracesTranslated)
	}
	incoming, ks = core.BuildCacheFile(v)
	return dir, ks, incoming, w
}

// TestWarmCommitSkipsFromManifest: the commit of a run that found nothing
// new is answered from the manifest — same report as the full merge, no
// blob read, inflated or decoded to produce it.
func TestWarmCommitSkipsFromManifest(t *testing.T) {
	dir, ks, incoming, w := warmIncoming(t)

	// What the full path reports: materialize the prior, merge, skip.
	prior, err := openMgr(t, dir).Lookup(ks)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := core.MergeCacheFiles(incoming, prior, false)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Skipped {
		t.Fatalf("reference merge did not skip: %+v", want)
	}
	want.File = ks.ManifestFileName()

	reg := metrics.NewRegistry()
	mgr := openMgr(t, dir, core.WithMetrics(reg))
	before, err := os.ReadFile(filepath.Join(dir, ks.ManifestFileName()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := mgr.CommitFile(core.DeltaOf(incoming))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("skipped commit report\n got %+v\nwant %+v", got, want)
	}
	snap := reg.Snapshot()
	for _, tier := range []string{"l2", "l3"} {
		if n, _ := snap.Value("pcc_store_blob_hits_total", tier); n != 0 {
			t.Errorf("skipped commit resolved %v blobs from %s; it must decide from the manifest alone", n, tier)
		}
	}
	if n, _ := snap.Value("pcc_core_commits_total", "skipped"); n != 1 {
		t.Errorf("commits{skipped} = %v, want 1", n)
	}
	after, err := os.ReadFile(filepath.Join(dir, ks.ManifestFileName()))
	if err != nil || !bytes.Equal(before, after) {
		t.Errorf("skipped commit touched the manifest (err %v)", err)
	}

	// The counter the zero above is read from does count: a prime resolves
	// every blob of the manifest once, from the tier that had it — the local
	// packs here, and for a database that holds only the manifest the packs
	// it adopts from the remote (read once they are written through, but
	// counted as what they are: l3, not l2).
	blobs := float64(len(readManifest(t, dir, ks.ManifestFileName()).BlobHashes()))
	hits := func(reg *metrics.Registry) (got [2]float64) {
		snap := reg.Snapshot()
		for i, tier := range []string{"l2", "l3"} {
			got[i], _ = snap.Value("pcc_store_blob_hits_total", tier)
		}
		return got
	}
	rep, err := mgr.Prime(w.NewVM(t, testutil.RunOpts{Input: []uint64{10}}))
	if err != nil || float64(rep.Installed) != blobs {
		t.Fatalf("local prime installed %d of %v traces: %v", rep.Installed, blobs, err)
	}
	if got, want := hits(reg), [2]float64{blobs, 0}; got != want {
		t.Errorf("local prime: hits l2/l3 = %v, want %v", got, want)
	}

	sst, err := mgr.Store()
	if err != nil {
		t.Fatal(err)
	}
	remote := &chaosRemote{man: readManifest(t, dir, ks.ManifestFileName()), st: sst}
	remoteReg := metrics.NewRegistry()
	fetching := openMgr(t, t.TempDir(), core.WithMetrics(remoteReg))
	cf, err := fetching.MaterializeFrom(remote.man, remote.packs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err = fetching.PrimeFrom(w.NewVM(t, testutil.RunOpts{Input: []uint64{10}}), cf)
	if err != nil || float64(rep.Installed) != blobs {
		t.Fatalf("remote-served prime installed %d of %v traces: %v", rep.Installed, blobs, err)
	}
	if got, want := hits(remoteReg), [2]float64{0, blobs}; got != want {
		t.Errorf("remote-served prime: hits l2/l3 = %v, want %v", got, want)
	}
}

// TestWarmCommitRewritesWhenBlobsAreGone: a manifest whose blobs are not in
// the local store is no prior at all — the commit of a warm run that
// translated nothing is not skipped, and the run's traces are written out
// in full, which is how a launch primed from the fleet fills a stripped
// store. The entry then primes whole again.
func TestWarmCommitRewritesWhenBlobsAreGone(t *testing.T) {
	dir, ks, incoming, w := warmIncoming(t)
	packs, _ := filepath.Glob(filepath.Join(dir, "store", "*", "*.pck"))
	if len(packs) == 0 {
		t.Fatal("no pack files to strip")
	}
	for _, p := range packs {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	mgr := openMgr(t, dir)
	rep, err := mgr.CommitFile(core.DeltaOf(incoming))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped || rep.Accumulate || rep.Traces != len(incoming.Traces) {
		t.Fatalf("commit over a stripped store: %+v, want a full rewrite of %d traces", rep, len(incoming.Traces))
	}
	cf, err := openMgr(t, dir).Lookup(ks)
	if err != nil {
		t.Fatalf("entry unreadable after the rewrite: %v", err)
	}
	if len(cf.Traces) != len(incoming.Traces) {
		t.Errorf("rewritten entry holds %d traces, want %d", len(cf.Traces), len(incoming.Traces))
	}
	prep, err := openMgr(t, dir).Prime(w.NewVM(t, testutil.RunOpts{Input: []uint64{10}}))
	if err != nil || prep.Installed != len(incoming.Traces) {
		t.Errorf("prime of the rewritten entry: %+v, %v; want all %d traces", prep, err, len(incoming.Traces))
	}
}

// TestWarmCommitSeesPacksGoneSincePrime: packs deleted between a launch's
// prime and its commit are gone for the manager that primed from them too.
// Its commit of the warm run is not skipped, it writes the run's traces out
// again, and a manager opened afterwards primes the entry whole.
func TestWarmCommitSeesPacksGoneSincePrime(t *testing.T) {
	w := testutil.BuildWorld(t, "appa", fmt.Sprintf(chaosMainSrc, 1), map[string]string{"libwork.so": chaosLibSrc})
	dir := t.TempDir()
	mgr := openMgr(t, dir)
	w.Run(t, mgr, testutil.RunOpts{Input: []uint64{10}, Commit: true})
	v := w.NewVM(t, testutil.RunOpts{Input: []uint64{10}})
	prep, err := mgr.Prime(v)
	if err != nil || prep.Installed == 0 {
		t.Fatalf("prime: %+v, %v", prep, err)
	}
	if res, err := v.Run(); err != nil || res.Stats.TracesTranslated != 0 {
		t.Fatalf("warm run: %v; want nothing translated", err)
	}
	packs, _ := filepath.Glob(filepath.Join(dir, "store", "*", "*.pck"))
	if len(packs) == 0 {
		t.Fatal("no pack files to delete")
	}
	for _, p := range packs {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := mgr.Commit(v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped || rep.Traces != prep.Installed {
		t.Fatalf("commit after the packs were deleted: %+v, want all %d traces written again", rep, prep.Installed)
	}
	again, err := openMgr(t, dir).Prime(w.NewVM(t, testutil.RunOpts{Input: []uint64{10}}))
	if err != nil || again.Installed != prep.Installed {
		t.Errorf("fresh manager's prime: %+v, %v; want all %d traces", again, err, prep.Installed)
	}
}

// TestWarmCommitQuarantinesBadManifest: a commit that merges on the prior
// manifest must not swallow a manifest that does not decode — it still goes to quarantine and
// the commit still writes a fresh entry.
func TestWarmCommitQuarantinesBadManifest(t *testing.T) {
	dir, ks, incoming, _ := warmIncoming(t)
	path := filepath.Join(dir, ks.ManifestFileName())
	if err := os.WriteFile(path, []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := openMgr(t, dir).CommitFile(core.DeltaOf(incoming))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped {
		t.Fatalf("commit over an undecodable manifest was skipped: %+v", rep)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, core.QuarantineDir, "*.pcm*")); len(q) != 1 {
		t.Errorf("quarantine holds %d manifests, want 1", len(q))
	}
	if _, err := openMgr(t, dir).Lookup(ks); err != nil {
		t.Errorf("entry unreadable after the rewrite: %v", err)
	}
}

// TestLegacyDatabaseMaintenance: the maintenance paths over a database that
// holds only a legacy image see an empty database — no entry, an empty
// store, nothing to reclaim or verify — create nothing on disk for it, and
// leave the image as it lies for the migration.
func TestLegacyDatabaseMaintenance(t *testing.T) {
	env := buildChaosEnv(t)
	dir := t.TempDir()
	pcc := testutil.WriteLegacy(t, dir, env.cfA)
	image, err := os.ReadFile(pcc)
	if err != nil {
		t.Fatal(err)
	}
	mgr := openMgr(t, dir)

	st, err := mgr.Stats()
	if err != nil || st.Files != 0 || st.Store == nil || st.Store.Manifests != 0 || st.Store.Blobs != 0 {
		t.Fatalf("stats %+v (store %+v), %v; want no entry and an empty store", st, st.Store, err)
	}
	if rep, err := mgr.CompactStore(); err != nil || rep.PrunedOrphans != 0 || rep.ReclaimedBytes != 0 {
		t.Errorf("compact: %+v, %v; want nothing to reclaim", rep, err)
	}
	if rep, err := mgr.RecoverIndex(); err != nil || rep.FilesScanned != 0 || rep.FilesQuarantined != 0 {
		t.Errorf("repair: %+v, %v; want nothing scanned", rep, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "store")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("maintenance of a legacy database created its store directory: %v", err)
	}
	if after, err := os.ReadFile(pcc); err != nil || !bytes.Equal(after, image) {
		t.Errorf("maintenance touched the legacy image: %v", err)
	}
	if _, err := mgr.MigrateToStore(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Lookup(env.ksA); err != nil {
		t.Errorf("legacy entry unreadable after migration: %v", err)
	}
}
