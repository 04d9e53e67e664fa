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
// store/gen0001; the stale index file can be carried over unchanged, since
// nothing reads it.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"persistcc/internal/core"
	"persistcc/internal/loader"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

var compatInput = workload.Input{Units: []workload.Unit{{Entry: 0, Iters: 2}, {Entry: 0, Iters: 1}}}

func compatVM(t *testing.T, name string, seed uint64) *vm.VM {
	t.Helper()
	prog, err := workload.BuildProgram(workload.ProgSpec{
		Name: name, Seed: seed, Regions: []workload.RegionSpec{{Funcs: 2, Module: 0}}, BodyInsts: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := prog.NewVM(loader.Config{}, compatInput)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// warmRun primes a fresh VM from a fresh manager over dir and requires the
// run to translate nothing.
func warmRun(t *testing.T, dir, name string, seed uint64) {
	t.Helper()
	mgr, err := core.NewManager(dir, core.WithStore(), core.WithRelocatable())
	if err != nil {
		t.Fatal(err)
	}
	v := compatVM(t, name, seed)
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
