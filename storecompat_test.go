package persistcc_test

// testdata/indexed-store.db is a cache database written by the last commit
// whose store kept an advisory index file next to its blobs, and taken
// through that version's compaction, which moved every blob out of gen0000
// into gen0001. It holds the entry of generated application compat-a and,
// unreferenced, the twelve blobs of compat-b, whose entry was then evicted.
// The store must serve it as it lies: ignore the index file, find the
// loose one-file-per-blob blobs in gen0001, write new ones (as a pack, which
// is all it writes) there, and reclaim the orphans.
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
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"persistcc/internal/core"
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
	mgr, err := core.NewManager(dir, core.WithStore(), core.WithRelocatable())
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

func TestIndexedStoreFixtureServesUnderIndexFreeStore(t *testing.T) {
	const fixture = "testdata/indexed-store.db"
	dir := testutil.TempDB(t)
	if err := copyTree(fixture, dir); err != nil {
		t.Fatal(err)
	}
	gen1 := filepath.Join(dir, "store", "gen0001")
	blobsBefore, _ := filepath.Glob(filepath.Join(gen1, "*.pcb"))
	if len(blobsBefore) != 24 {
		t.Fatalf("fixture holds %d blobs in gen0001, want 24", len(blobsBefore))
	}

	// Opened and primed from as it lies.
	warmRun(t, dir, "compat-a", 11)

	// Committed into: a new application's blobs join the newest generation.
	mgr, err := core.NewManager(dir, core.WithStore(), core.WithRelocatable())
	if err != nil {
		t.Fatal(err)
	}
	vc := compatVM(t, "compat-c", 13)
	if _, err := vc.Run(); err != nil {
		t.Fatal(err)
	}
	crep, err := mgr.Commit(vc)
	if err != nil {
		t.Fatal(err)
	}
	blobsAfter, _ := filepath.Glob(filepath.Join(gen1, "*.pcb"))
	packs, _ := filepath.Glob(filepath.Join(gen1, "*.pck"))
	if len(blobsAfter) != len(blobsBefore) || len(packs) != 1 || crep.NewTraces == 0 {
		t.Fatalf("gen0001 went from %d to %d loose blobs and %d packs for %d new traces; want one new pack",
			len(blobsBefore), len(blobsAfter), len(packs), crep.NewTraces)
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

	// Nothing the fixture shipped was rewritten: each of its store files
	// is byte-identical or (an orphan) gone.
	gone := 0
	err = filepath.WalkDir(filepath.Join(fixture, "store"), func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(fixture, p)
		want, _ := os.ReadFile(p)
		got, err := os.ReadFile(filepath.Join(dir, rel))
		switch {
		case err != nil:
			gone++
		case !bytes.Equal(got, want):
			t.Errorf("%s was rewritten in place", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gone != rep.PrunedOrphans {
		t.Errorf("%d shipped files are gone, compaction reported %d", gone, rep.PrunedOrphans)
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

// The pcc-cachectl list and stats output on the fixture, as printed by the
// last version that read the entries from its index file.
const (
	fixtureList = `file                                  application  traces  code pool  data pool  app key   tool key
---------------------------------------------------------------------------------------------------
ea8a03fcafc80c6e33df15f22515c8b1.pcm  compat-a     12      1000B      2.1KiB     36d99473  b29acc95
`
	fixtureStats = `cache files: 1
traces: 12
code pool: 1000B
data pool: 2.1KiB
store: 1 manifests over 24 shared blobs (2.6KiB physical)
packs: 0, loose blobs remaining: 24
dedup: 1.4KiB logical → 0.0% saved by content addressing
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
// empty database opened with core.WithStore() and core.WithRelocatable(),
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

	mgr, err := core.NewManager(dir, core.WithStore(), core.WithRelocatable())
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
