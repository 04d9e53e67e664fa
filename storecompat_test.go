package persistcc_test

// testdata/indexed-store.db is a cache database written by the last commit
// whose store kept an advisory index file next to its blobs, and taken
// through that version's compaction, which moved every blob out of gen0000
// into gen0001. It holds the entry of generated application compat-a and,
// unreferenced, the twelve blobs of compat-b, whose entry was then evicted,
// all as loose one-file-per-blob files. The store reads packs only, so until
// repair or migrate folds those files into packs the entry is a miss; after
// the fold the store serves it, ignores the index file, writes new packs in
// gen0001, and reclaims the orphans.
//
// The fixture is tied to the VM version and the workload generator through
// its keys. After a deliberate change to either, rebuild it with the
// current code (commit compatVM("compat-a", 11) and ("compat-b", 12), then
// RemoveEntry the latter) and rename the resulting store/gen0000 to
// store/gen0001. The database index file the writing version kept beside
// its entries, index.json, is read by nothing but the test below, which
// holds the header-built listing to its rows: carry it over unchanged.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"persistcc/internal/cacheserver"
	"persistcc/internal/core"
	"persistcc/internal/fsx"
	"persistcc/internal/loader"
	"persistcc/internal/store"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

var compatInput = workload.Input{Units: []workload.Unit{{Entry: 0, Iters: 2}, {Entry: 0, Iters: 1}}}

// compatVM builds generated application name. Each shared service becomes
// one more entry, which the input calls once after compatInput's units.
func compatVM(t *testing.T, name string, seed uint64, shared ...workload.ServiceSpec) *vm.VM {
	t.Helper()
	prog, err := workload.BuildProgram(workload.ProgSpec{
		Name: name, Seed: seed, Regions: []workload.RegionSpec{{Funcs: 2, Module: 0}}, BodyInsts: 6,
		SharedSvcs: shared,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := compatInput
	for i := range shared {
		in.Units = append(slices.Clip(in.Units), workload.Unit{Entry: 1 + i, Iters: 1})
	}
	v, err := prog.NewVM(loader.Config{}, in)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// warmRun primes a fresh VM from a fresh manager over dir and requires the
// run to translate nothing.
func warmRun(t *testing.T, dir, name string, seed uint64, shared ...workload.ServiceSpec) {
	t.Helper()
	mgr, err := core.NewManager(dir, core.WithRelocatable())
	if err != nil {
		t.Fatal(err)
	}
	v := compatVM(t, name, seed, shared...)
	rep, err := mgr.Prime(v)
	if err != nil {
		t.Fatalf("%s: prime: %v", name, err)
	}
	res, err := v.Run()
	if err != nil {
		t.Fatalf("%s: warm run: %v", name, err)
	}
	if rep.Installed == 0 || res.Stats.InstsTranslated != 0 {
		t.Fatalf("%s: installed %d traces, translated %d instructions; want a fully warm run",
			name, rep.Installed, res.Stats.InstsTranslated)
	}
}

// indexedFixture is the indexed-store fixture's path, and the addresses of
// the 24 loose blobs it ships.
const indexedFixture = "testdata/indexed-store.db"

func indexedFixtureBlobs(t *testing.T) []store.Hash {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(indexedFixture, "store", "gen0001", "*.pcb"))
	if len(files) != 24 {
		t.Fatalf("fixture holds %d blobs in gen0001, want 24", len(files))
	}
	hashes := make([]store.Hash, len(files))
	for i, f := range files {
		h, err := store.ParseHash(strings.TrimSuffix(filepath.Base(f), ".pcb"))
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = h
	}
	return hashes
}

// indexedCopy copies the indexed-store fixture into a fresh database.
func indexedCopy(t *testing.T) string {
	t.Helper()
	dir := testutil.TempDB(t)
	if err := copyTree(indexedFixture, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// looseLeft lists the loose blob files left anywhere in the store at dir.
func looseLeft(dir string) []string {
	files, _ := filepath.Glob(filepath.Join(dir, "store", "gen*", "*.pcb"))
	return files
}

// TestIndexedStoreFixtureColdUntilFolded: before a fold the fixture's entry
// is a miss — its blobs are loose files, which the store does not read — so
// a launch runs cold, and nothing is quarantined: the entry and every loose
// file stay where they are for the fold.
func TestIndexedStoreFixtureColdUntilFolded(t *testing.T) {
	dir := indexedCopy(t)
	mgr, err := core.NewManager(dir, core.WithRelocatable())
	if err != nil {
		t.Fatal(err)
	}
	v := compatVM(t, "compat-a", 11)
	if rep, err := mgr.Prime(v); !errors.Is(err, core.ErrNoCache) || rep.Installed != 0 {
		t.Fatalf("prime from the unfolded fixture: %+v, %v; want a miss", rep, err)
	}
	if res, err := v.Run(); err != nil || res.Stats.InstsTranslated == 0 {
		t.Fatalf("launch after the miss: %v; want a cold run", err)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "*", core.QuarantineDir, "*")); len(q) != 0 {
		t.Errorf("a launch over loose blobs quarantined %v", q)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, core.QuarantineDir, "*")); len(q) != 0 {
		t.Errorf("a launch over loose blobs quarantined %v", q)
	}
	if _, err := os.Stat(filepath.Join(dir, "ea8a03fcafc80c6e33df15f22515c8b1.pcm")); err != nil {
		t.Errorf("the entry did not survive the miss: %v", err)
	}
	if n := len(looseLeft(dir)); n != 24 {
		t.Errorf("%d loose files left after the miss, want all 24", n)
	}
}

// TestIndexedStoreFixtureServesOnceFolded: after migrate or repair has
// folded the fixture's loose files into packs, and reported all 24 folded,
// every shipped blob reads from a pack, compat-a launches warm, a new
// application's commit joins gen0001, and compaction reclaims exactly the
// evicted application's twelve blobs.
func TestIndexedStoreFixtureServesOnceFolded(t *testing.T) {
	shipped := indexedFixtureBlobs(t)
	for _, fold := range []struct {
		name string
		run  func(*core.Manager) (folded int, err error)
	}{
		{"migrate", func(m *core.Manager) (int, error) {
			rep, err := m.MigrateToStore()
			if err != nil {
				return 0, err
			}
			return rep.BlobsFolded, nil
		}},
		{"repair", func(m *core.Manager) (int, error) {
			rep, err := m.RecoverIndex()
			if err != nil {
				return 0, err
			}
			return rep.BlobsFolded, nil
		}},
	} {
		t.Run(fold.name, func(t *testing.T) {
			dir := indexedCopy(t)
			mgr, err := core.NewManager(dir, core.WithRelocatable())
			if err != nil {
				t.Fatal(err)
			}
			if folded, err := fold.run(mgr); err != nil || folded != len(shipped) {
				t.Fatalf("%s: %d folded, %v; want %d", fold.name, folded, err, len(shipped))
			}
			gen1 := filepath.Join(dir, "store", "gen0001")
			if packs, _ := filepath.Glob(filepath.Join(gen1, "*.pck")); len(packs) != 1 || len(looseLeft(dir)) != 0 {
				t.Fatalf("the fold left %d packs and loose files %v, want 1 pack and none", len(packs), looseLeft(dir))
			}
			st, err := store.Open(filepath.Join(dir, "store"), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range shipped {
				if _, err := st.Get(h); err != nil {
					t.Errorf("shipped blob %s after the fold: %v", h, err)
				}
			}
			warmRun(t, dir, "compat-a", 11)

			// Committed into: a new application's blobs join the newest
			// generation.
			vc := compatVM(t, "compat-c", 13)
			if _, err := vc.Run(); err != nil {
				t.Fatal(err)
			}
			crep, err := mgr.Commit(vc)
			if err != nil {
				t.Fatal(err)
			}
			if packs, _ := filepath.Glob(filepath.Join(gen1, "*.pck")); len(packs) != 2 || crep.NewTraces == 0 {
				t.Fatalf("gen0001 holds %d packs after %d new traces; want the folded one and one new", len(packs), crep.NewTraces)
			}
			if gens, _ := filepath.Glob(filepath.Join(dir, "store", "gen*")); len(gens) != 1 {
				t.Fatalf("commit opened another generation: %v", gens)
			}

			// Compacted: exactly the evicted application's blobs go.
			rep, err := mgr.CompactStore()
			if err != nil {
				t.Fatal(err)
			}
			if rep.PrunedOrphans != 12 || rep.ReclaimedBytes == 0 {
				t.Fatalf("compact: %+v, want the 12 blobs of the evicted entry", rep)
			}
			warmRun(t, dir, "compat-a", 11)
			warmRun(t, dir, "compat-c", 13)
			st, err = store.Open(filepath.Join(dir, "store"), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			gone := 0
			for _, h := range shipped {
				if _, err := st.Get(h); errors.Is(err, store.ErrBlobMissing) {
					gone++
				} else if err != nil {
					t.Errorf("shipped blob %s after compaction: %v", h, err)
				}
			}
			if gone != rep.PrunedOrphans {
				t.Errorf("%d shipped blobs are gone, compaction reported %d", gone, rep.PrunedOrphans)
			}
		})
	}
}

// TestFoldCrashAtEveryPoint: repair of the indexed-store fixture crashes at
// every filesystem operation it makes. Whatever the crash left — a torn
// pack temp, a pack published with its loose files still beside it, some
// of them removed — a clean repair afterwards quarantines nothing, every
// shipped blob reads from a pack, compat-a launches warm and no loose file
// is left: the fold removes a loose file only once a pack holding its blob
// is in place.
func TestFoldCrashAtEveryPoint(t *testing.T) {
	shipped := indexedFixtureBlobs(t)
	// repair runs RecoverIndex over dir through fsys, calling arm, when not
	// nil, once the manager is open: the operations counted are the
	// repair's alone.
	repair := func(t *testing.T, dir string, fsys fsx.FS, arm func()) (*core.RecoverReport, error) {
		t.Helper()
		mgr, err := core.NewManager(dir, core.WithRelocatable(), core.WithLockTimeout(50*time.Millisecond), core.WithFS(fsys))
		if err != nil {
			t.Fatal(err)
		}
		if arm != nil {
			arm()
		}
		return mgr.RecoverIndex()
	}

	rec := fsx.NewInject(fsx.OS)
	if _, err := repair(t, indexedCopy(t), rec, rec.StartRecording); err != nil {
		t.Fatal(err)
	}
	ops := rec.Ops()
	// The sweep must cover the fold's window: a pack renamed into place, its
	// loose files not removed yet.
	window := false
	for i := 0; i+1 < len(ops); i++ {
		window = window || ops[i].Op == fsx.OpRename && strings.HasSuffix(ops[i].Path, ".pck") &&
			ops[i+1].Op == fsx.OpRemove && strings.HasSuffix(ops[i+1].Path, ".pcb")
	}
	if !window {
		t.Fatalf("the repair of %d operations has no pack rename followed by a loose file's removal: %v", len(ops), ops)
	}

	for k := 1; k <= len(ops); k++ {
		op := ops[k-1]
		t.Run(fmt.Sprintf("crash-%03d-%s-%s", k, op.Op, filepath.Base(op.Path)), func(t *testing.T) {
			dir := indexedCopy(t)
			inj := fsx.NewInject(fsx.OS)
			repair(t, dir, inj, func() { inj.CrashAtIndex(k) })
			if !inj.Crashed() {
				t.Fatalf("crash point %d never reached", k)
			}
			rep, err := repair(t, dir, fsx.OS, nil)
			if err != nil || rep.FilesQuarantined != 0 || rep.EntriesVerified != 1 {
				t.Fatalf("repair after the crash: %+v, %v; want the entry verified and nothing quarantined", rep, err)
			}
			st, err := store.Open(filepath.Join(dir, "store"), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range shipped {
				if _, err := st.Get(h); err != nil {
					t.Errorf("shipped blob %s lost: %v", h, err)
				}
			}
			warmRun(t, dir, "compat-a", 11)
			if left := looseLeft(dir); len(left) != 0 {
				t.Errorf("loose files left after the repair: %v", left)
			}
		})
	}
}

func copyTree(src, dst string) error {
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// The pcc-cachectl list and stats output on the fixture: the list as printed
// by the last version that read the entries from its index file, and the
// stats of a store that reads packs only, so the 24 loose blobs count as
// files on disk but not as addressable blobs until a fold; the logical bytes
// are the manifest's own.
const (
	fixtureList = `file                                  application  traces  code pool  data pool  app key   tool key
---------------------------------------------------------------------------------------------------
ea8a03fcafc80c6e33df15f22515c8b1.pcm  compat-a     12      1000B      2.1KiB     36d99473  b29acc95
`
	fixtureStats = `cache files: 1
traces: 12
code pool: 1000B
data pool: 2.1KiB
store: 1 manifests over 0 shared blobs (2.6KiB physical)
packs: 0, loose blobs remaining: 24
dedup: 788B logical → 0.0% saved by content addressing
key classes
VM key    tool key  entries  traces
-----------------------------------
5f1f6b5f  b29acc95  1        12    
`
)

// TestIndexedStoreFixtureListsFromHeaders: the entries read from the cache
// files' own headers are the rows of the index file the fixture's writer
// kept, field for field; pcc-cachectl prints what it printed from that
// index; and repair deletes the index file, counting its bytes.
func TestIndexedStoreFixtureListsFromHeaders(t *testing.T) {
	const fixture = "testdata/indexed-store.db"
	raw, err := os.ReadFile(filepath.Join(fixture, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	var idx struct {
		Entries []core.IndexEntry `json:"entries"`
	}
	if err := json.Unmarshal(raw, &idx); err != nil {
		t.Fatal(err)
	}
	dir := testutil.TempDB(t)
	if err := copyTree(fixture, dir); err != nil {
		t.Fatal(err)
	}
	mgr, err := core.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := mgr.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(entries, idx.Entries) {
		t.Fatalf("entries from headers:\n%+v\nindex file rows:\n%+v", entries, idx.Entries)
	}

	bin := testutil.BuildTools(t)
	for cmd, want := range map[string]string{"list": fixtureList, "stats": fixtureStats} {
		out, se, code := testutil.RunTool(t, bin, "pcc-cachectl", "-dir", dir, cmd)
		if code != 0 || out != want {
			t.Errorf("pcc-cachectl %s (exit %d, %s):\n%s\nwant:\n%s", cmd, code, se, out, want)
		}
	}

	rep, err := mgr.RecoverIndex()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesReclaimed != uint64(len(raw)) || rep.FilesQuarantined != 0 || rep.EntriesVerified != 1 {
		t.Errorf("repair: %+v; want the index file's %d bytes reclaimed and the entry verified", rep, len(raw))
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); !os.IsNotExist(err) {
		t.Errorf("repair left the index file: %v", err)
	}
	warmRun(t, dir, "compat-a", 11)
}

// testdata/packed-store.db is a cache database in the pack layout, written
// by the last commit that deflated packs at flate.BestCompression. Into an
// empty database opened with core.WithRelocatable() (and a store-format
// option every commit now follows),
// that version committed compatVM("compat-p", 21, compatLib) and then
// compatVM("compat-q", 22, compatLib): two packs in store/gen0000, the
// second holding only q's private traces, because both applications run the
// same shared library at the same placement. Its point is the old stream,
// so it is never rebuilt by a later writer.
var compatLib = workload.ServiceSpec{LibName: "libcompat", LibSeed: 7, LibServices: 2, FuncsPerSvc: 3, LibBody: 6}

// TestPackedStoreFixtureReadsUnderCurrentWriter: packs deflated at another
// level than the current writer's serve, take commits beside them, survive
// compaction, and name the same as the current writer's pack of the same
// members — a pack's name hashes its index, never its stream.
func TestPackedStoreFixtureReadsUnderCurrentWriter(t *testing.T) {
	const fixture = "testdata/packed-store.db"
	dir := testutil.TempDB(t)
	if err := copyTree(fixture, dir); err != nil {
		t.Fatal(err)
	}
	gen0 := filepath.Join(dir, "store", "gen0000")
	shipped, _ := filepath.Glob(filepath.Join(fixture, "store", "gen0000", "*.pck"))
	if len(shipped) != 2 {
		t.Fatalf("fixture holds %d packs, want 2", len(shipped))
	}

	warmRun(t, dir, "compat-p", 21, compatLib)
	warmRun(t, dir, "compat-q", 22, compatLib)

	mgr, err := core.NewManager(dir, core.WithRelocatable())
	if err != nil {
		t.Fatal(err)
	}
	vr := compatVM(t, "compat-r", 23, compatLib)
	if _, err := vr.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(vr); err != nil {
		t.Fatal(err)
	}
	if packs, _ := filepath.Glob(filepath.Join(gen0, "*.pck")); len(packs) != 3 {
		t.Fatalf("commit of a third application left %d packs, want the 2 shipped and 1 new", len(packs))
	}

	if _, err := mgr.CompactStore(); err != nil {
		t.Fatal(err)
	}
	warmRun(t, dir, "compat-p", 21, compatLib)
	warmRun(t, dir, "compat-q", 22, compatLib)
	warmRun(t, dir, "compat-r", 23, compatLib)

	for _, path := range shipped {
		old, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(filepath.Join(gen0, filepath.Base(path))); err != nil || !bytes.Equal(got, old) {
			t.Errorf("%s was rewritten or removed: %v", filepath.Base(path), err)
		}
		p, err := store.DecodePack(old)
		if err != nil {
			t.Fatal(err)
		}
		blobs := make([]*store.Blob, len(p.Encs))
		for i, enc := range p.Encs {
			if blobs[i], err = store.DecodeBlob(enc); err != nil {
				t.Fatal(err)
			}
		}
		fresh := t.TempDir()
		s, err := store.Open(fresh, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.PutAll(blobs); err != nil {
			t.Fatal(err)
		}
		again, _ := filepath.Glob(filepath.Join(fresh, "gen0000", "*.pck"))
		if len(again) != 1 || filepath.Base(again[0]) != filepath.Base(path) {
			t.Errorf("re-encoding %s made %v; want one pack of the same name", filepath.Base(path), again)
		}
	}
}

// testdata/legacy.db is a cache database in the legacy format, one `.pcc`
// image per entry: the format no commit writes and only migration reads. The last version whose commits wrote it committed
// compatVM("compat-l", 31, compatLib) and then compatVM("compat-m", 32,
// compatLib), each run cold, into an empty database opened with
// core.WithRelocatable(). The fixture is tied to the VM version and the
// workload generator through its keys; after a deliberate change to either,
// rebuild it by running the same two applications cold and writing each
// run's core.BuildCacheFile with testutil.WriteLegacy, which makes the
// same images.
const legacyFixture = "testdata/legacy.db"

// legacyMergedRefs are the blobs, by hash prefix and sorted, of the entry a
// relocatable commit of a cold compat-l run wrote over the fixture's compat-l
// image when the image was read as the prior, as a migration now merges it.
var legacyMergedRefs = []string{
	"19cb7f25e305bd4f", "1eb1473136f8ec88", "2fbb290f5c2f459e", "38da9308f3e1a893",
	"4b086a7b16b76b2f", "532d7d39ecb656d6", "5c722db4e5941d95", "6693e8a3a2d74cad",
	"9f6580a607d04f85", "9fee2990c27406c6", "a24efba1f93ad734", "beac5caf1f0684a6",
	"c46b2da45c588893", "d1be01bfedee7628", "d94231cb10c80335", "e07a09bf1f55c5d7",
	"f6a1ee8f56169725",
}

// manifestRefs returns the blob hash prefixes of the manifest at path,
// sorted.
func manifestRefs(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.DecodeManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	var refs []string
	for _, h := range man.BlobHashes() {
		refs = append(refs, h.String())
	}
	slices.Sort(refs)
	return refs
}

// legacyCopy copies the legacy fixture into a fresh database and returns it
// with the paths of its two entries.
func legacyCopy(t *testing.T) (dir string, entries []string) {
	t.Helper()
	dir = testutil.TempDB(t)
	if err := copyTree(legacyFixture, dir); err != nil {
		t.Fatal(err)
	}
	entries, _ = filepath.Glob(filepath.Join(dir, "*.pcc"))
	if len(entries) != 2 {
		t.Fatalf("fixture holds %d legacy entries, want 2", len(entries))
	}
	return dir, entries
}

// TestLegacyFileInvisibleUntilMigrated: a legacy image is invisible to
// every path but migration. Over a copy of the fixture, exact and
// inter-application primes, a commit, the listing, stats, repair,
// compaction and a daemon's LOOKUP and FETCHMANIFESTS touch no `.pcc` path
// and leave the images' bytes as they were, and the launch runs as a cold
// one does. The commit of compat-l writes a fresh manifest beside its
// image, as TestLegacyFixtureReadPath/commit does before it migrates.
func TestLegacyFileInvisibleUntilMigrated(t *testing.T) {
	dir, entries := legacyCopy(t)
	images := make(map[string][]byte)
	for _, p := range entries {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		images[p] = b
	}
	rec := fsx.NewInject(fsx.OS)
	mgr, err := core.NewManager(dir, core.WithRelocatable(), core.WithFS(rec))
	if err != nil {
		t.Fatal(err)
	}
	rec.StartRecording()

	v := compatVM(t, "compat-l", 31, compatLib)
	if _, err := mgr.Prime(v); !errors.Is(err, core.ErrNoCache) {
		t.Fatalf("exact prime over an unmigrated entry: %v, want ErrNoCache", err)
	}
	if _, err := mgr.PrimeInterApp(v); !errors.Is(err, core.ErrNoCache) {
		t.Fatalf("inter-application prime over unmigrated entries: %v, want ErrNoCache", err)
	}
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := compatVM(t, "compat-l", 31, compatLib).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != cold.ExitCode || !bytes.Equal(res.Output, cold.Output) || !reflect.DeepEqual(res.Stats, cold.Stats) {
		t.Errorf("launch over unmigrated entries differs from a cold run: %+v vs %+v", res.Stats, cold.Stats)
	}
	rep, err := mgr.Commit(v)
	if err != nil || rep.Accumulate {
		t.Fatalf("commit beside the legacy image: %+v, %v; want a fresh manifest", rep, err)
	}
	if es, err := mgr.Entries(); err != nil || len(es) != 1 || es[0].File != rep.File {
		t.Errorf("entries %+v, %v; want the commit's manifest alone", es, err)
	}
	if st, err := mgr.Stats(); err != nil || st.Files != 1 {
		t.Errorf("stats %+v, %v; want the commit's manifest alone", st, err)
	}
	vM := compatVM(t, "compat-m", 32, compatLib)
	if prep, err := mgr.PrimeInterApp(vM); err != nil || prep.Installed == 0 {
		t.Errorf("inter-application prime from the commit's manifest: %+v, %v", prep, err)
	}
	if rrep, err := mgr.RecoverIndex(); err != nil || rrep.FilesScanned != 1 || rrep.FilesQuarantined != 0 {
		t.Errorf("repair: %+v, %v; want the commit's manifest alone, verified", rrep, err)
	}
	if _, err := mgr.CompactStore(); err != nil {
		t.Error(err)
	}
	srv, err := cacheserver.New(mgr)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := cacheserver.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	c := cacheserver.NewClient(ln.Addr().String())
	ksM := core.KeysFor(vM)
	if info, err := c.Lookup(ksM, false); !errors.Is(err, core.ErrNoCache) {
		t.Errorf("daemon LOOKUP of an unmigrated entry: %+v, %v; want ErrNoCache", info, err)
	}
	if items, err := c.FetchManifests(ksM, false); !errors.Is(err, core.ErrNoCache) {
		t.Errorf("daemon FETCHMANIFESTS of an unmigrated entry: %d items, %v; want ErrNoCache", len(items), err)
	}
	c.Close()
	srv.Close()

	for _, op := range rec.Ops() {
		if strings.Contains(op.Path, ".pcc") || strings.Contains(op.Path, ".pc[") {
			t.Errorf("%s %s: a path other than migration touched a legacy image", op.Op, op.Path)
		}
	}
	for p, b := range images {
		if after, err := os.ReadFile(p); err != nil || !bytes.Equal(after, b) {
			t.Errorf("%s changed before migration: %v", filepath.Base(p), err)
		}
	}
}

// TestLegacyFixtureReadPath: launches over the legacy fixture as it lies
// run cold and leave it as it lies, and run warm once it is migrated. A
// commit of compat-l writes a fresh manifest beside its image, and
// migration merges the image into it as the prior, so the entry holds every
// blob a commit over the image wrote (legacyMergedRefs). Migration converts
// the fixture whole, sharing the library's blobs, and the deep verifier
// accepts every trace in it.
func TestLegacyFixtureReadPath(t *testing.T) {
	t.Run("warm", func(t *testing.T) {
		dir, entries := legacyCopy(t)
		mgr, err := core.NewManager(dir, core.WithRelocatable())
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range []struct {
			name string
			seed uint64
		}{{"compat-l", 31}, {"compat-m", 32}} {
			v := compatVM(t, app.name, app.seed, compatLib)
			if _, err := mgr.Prime(v); !errors.Is(err, core.ErrNoCache) {
				t.Fatalf("%s: prime over an unmigrated entry: %v, want ErrNoCache", app.name, err)
			}
			if res, err := v.Run(); err != nil || res.Stats.InstsTranslated == 0 {
				t.Fatalf("%s: launch over an unmigrated entry: %v; want a cold run", app.name, err)
			}
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "*.pc[cm]")); !slices.Equal(files, entries) {
			t.Errorf("launches changed the entries: %v", files)
		}
		if _, err := mgr.MigrateToStore(); err != nil {
			t.Fatal(err)
		}
		warmRun(t, dir, "compat-l", 31, compatLib)
		warmRun(t, dir, "compat-m", 32, compatLib)
	})

	t.Run("commit", func(t *testing.T) {
		dir, _ := legacyCopy(t)
		mgr, err := core.NewManager(dir, core.WithRelocatable())
		if err != nil {
			t.Fatal(err)
		}
		v := compatVM(t, "compat-l", 31, compatLib)
		if _, err := v.Run(); err != nil {
			t.Fatal(err)
		}
		rep, err := mgr.Commit(v)
		if err != nil || rep.Accumulate {
			t.Fatalf("commit beside the legacy image: %+v, %v; want a fresh manifest", rep, err)
		}
		mrep, err := mgr.MigrateToStore()
		if err != nil || mrep.Migrated != 2 || mrep.Quarantined != 0 {
			t.Fatalf("migrate: %+v, %v; want both images converted", mrep, err)
		}
		refs := manifestRefs(t, filepath.Join(dir, rep.File))
		for _, ref := range legacyMergedRefs {
			if _, found := slices.BinarySearch(refs, ref); !found {
				t.Errorf("migration lost blob %s a commit over the image wrote", ref)
			}
		}
		warmRun(t, dir, "compat-l", 31, compatLib)
		warmRun(t, dir, "compat-m", 32, compatLib)
		wmgr, err := core.NewManager(dir, core.WithRelocatable())
		if err != nil {
			t.Fatal(err)
		}
		if prep, err := wmgr.Prime(compatVM(t, "compat-l", 31, compatLib)); err != nil || prep.Installed != len(refs) {
			t.Errorf("warm prime of the merged entry: %+v, %v; want all %d blobs installed", prep, err, len(refs))
		}
	})

	t.Run("migrate", func(t *testing.T) {
		dir, _ := legacyCopy(t)
		mgr, err := core.NewManager(dir)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := mgr.MigrateToStore()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Scanned != 2 || rep.Migrated != 2 || rep.Quarantined != 0 || rep.BlobsShared == 0 {
			t.Fatalf("migrate: %+v; want both entries converted, the library's blobs shared", rep)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*.pcc")); len(left) != 0 {
			t.Errorf("migration left legacy entries: %v", left)
		}
	})

	t.Run("deep-verify", func(t *testing.T) {
		dir, entries := legacyCopy(t)
		for _, path := range entries {
			cf, err := core.ReadCacheFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if rep := cf.VerifyDeep(); !rep.OK() {
				t.Errorf("%s: %v", filepath.Base(path), rep.Err())
			}
		}
		mgr, err := core.NewManager(dir, core.WithDeepVerify(), core.WithRelocatable())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.MigrateToStore(); err != nil {
			t.Fatal(err)
		}
		rep, err := mgr.RecoverIndex()
		if err != nil {
			t.Fatal(err)
		}
		if rep.EntriesVerified != 2 || rep.FilesQuarantined != 0 {
			t.Errorf("repair: %+v; want both entries verified", rep)
		}
		v := compatVM(t, "compat-m", 32, compatLib)
		if prep, err := mgr.Prime(v); err != nil || prep.Installed != prep.CacheTraces {
			t.Errorf("deep-verified prime: %+v, %v", prep, err)
		}
	})
}

// TestMigrateReportsEveryQuarantine: migrate's report counts every file it
// quarantines, not only images. A corrupt manifest beside a legacy image is
// quarantined when the image would merge into it, and a torn manifest of
// another entry by the recovery pass that ends the migration; both images
// still migrate, and the report agrees with the quarantine directory.
func TestMigrateReportsEveryQuarantine(t *testing.T) {
	dir, entries := legacyCopy(t)
	for _, path := range []string{strings.TrimSuffix(entries[0], ".pcc") + ".pcm", filepath.Join(dir, "torn.pcm")} {
		if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mgr, err := core.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mgr.MigrateToStore()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrated != 2 || rep.Quarantined != 2 {
		t.Errorf("migrate: %+v; want both images migrated and both manifests quarantined", rep)
	}
	if moved, _ := os.ReadDir(filepath.Join(dir, core.QuarantineDir)); len(moved) != rep.Quarantined {
		t.Errorf("quarantine holds %d files, the report says %d", len(moved), rep.Quarantined)
	}
}
