package store_test

import (
	"errors"
	"os"
	"sync"
	"testing"

	"persistcc/internal/fsx"
	"persistcc/internal/store"
)

// Tests for the index a listing builds of pack files: a miss costs map
// lookups and at most one listing per call, never a stat per hash; a pack a
// peer publishes after Open is found through that listing; and a pack the
// store quarantines or compacts away, or a peer compacts away, is a clean
// miss afterwards.

// distinctBlobs returns n blobs with distinct content.
func distinctBlobs(n int) []*store.Blob {
	out := make([]*store.Blob, n)
	for i := range out {
		out[i] = mkBlob(byte(i), 2)
		out[i].ModOff = uint32(i) << 4
	}
	return out
}

// lookups counts the recorded operations that only look: listings, stats
// and reads.
func lookups(ops []fsx.Record) (n int) {
	for _, op := range ops {
		switch op.Op {
		case fsx.OpGlob, fsx.OpStat, fsx.OpRead:
			n++
		}
	}
	return n
}

// opCount counts the recorded operations of one kind.
func opCount(ops []fsx.Record, kind fsx.Op) (n int) {
	for _, op := range ops {
		if op.Op == kind {
			n++
		}
	}
	return n
}

// TestStoreLookupOpsIndependentOfBlobCount: putting N new blobs into an
// empty store, finding N hashes missing, adopting the remote packs that
// hold them (which writes them through) and reading the manifest over them,
// and reading that manifest again from a store opened afterwards, look at
// the filesystem the same number of times for every N — the misses are map
// lookups plus one listing per call, not a stat per hash per generation,
// and a read opens each pack once.
func TestStoreLookupOpsIndependentOfBlobCount(t *testing.T) {
	open := func(dir string) (*store.Store, *fsx.InjectFS) {
		inj := fsx.NewInject(nil)
		s, err := store.Open(dir, inj, nil)
		if err != nil {
			t.Fatal(err)
		}
		inj.StartRecording()
		return s, inj
	}
	var puts, fetches, reads []int
	for _, n := range []int{1, 100, 1000} {
		blobs := distinctBlobs(n)
		s, inj := open(t.TempDir())
		if rep, _, err := s.PutAll(blobs); err != nil || rep.Added != n {
			t.Fatalf("PutAll of %d new blobs: %+v, %v", n, rep, err)
		}
		puts = append(puts, lookups(inj.Ops()))

		remote := newFakeRemote(t, blobs...)
		man := manifestOver(blobs...)
		dir := t.TempDir()
		s, inj = open(dir)
		err := s.AdoptPacks(remote.packs(s.Missing(man, nil)))
		if got, lerr := s.LocalTraces(man, nil); err != nil || lerr != nil || len(got) != n {
			t.Fatalf("adopting the packs of %d remote blobs: %d read, %v, %v", n, len(got), err, lerr)
		}
		fetches = append(fetches, lookups(inj.Ops()))

		s, inj = open(dir)
		if got, err := s.LocalTraces(man, nil); err != nil || len(got) != n {
			t.Fatalf("reading %d adopted blobs back: %d read, %v", n, len(got), err)
		}
		reads = append(reads, lookups(inj.Ops()))
	}
	for i := range puts {
		if puts[i] != puts[0] || fetches[i] != fetches[0] || reads[i] != reads[0] {
			t.Fatalf("filesystem lookups for 1, 100, 1000 blobs: PutAll %v, AdoptPacks %v, LocalTraces %v; want the same for every count", puts, fetches, reads)
		}
	}
}

// TestLocalTracesMixedSourcesOneListing: one manifest whose blobs lie in
// two packs the store indexed at Open and in a pack a peer published after
// Open reads in one LocalTraces call that lists the generation once, stats
// nothing and reads each file once. A blob nobody holds, met after such a
// listing, costs no second one.
func TestLocalTracesMixedSourcesOneListing(t *testing.T) {
	dir := t.TempDir()
	blobs := distinctBlobs(3)
	packed, packed2, late := blobs[0], blobs[1], blobs[2]
	for _, b := range []*store.Blob{packed, packed2} {
		if _, _, err := openStore(t, dir).PutAll([]*store.Blob{b}); err != nil {
			t.Fatal(err)
		}
	}
	inj := fsx.NewInject(nil)
	s, err := store.Open(dir, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := openStore(t, dir).PutAll([]*store.Blob{late}); err != nil {
		t.Fatal(err)
	}
	inj.StartRecording()
	if got, err := s.LocalTraces(manifestOver(packed, packed2, late, packed2), nil); err != nil || len(got) != 4 {
		t.Fatalf("mixed manifest: %d traces, %v", len(got), err)
	}
	ops := inj.Ops()
	listings, stats, reads := opCount(ops, fsx.OpGlob), opCount(ops, fsx.OpStat), opCount(ops, fsx.OpRead)
	// Two of the reads are the late pack's header and index, read by the
	// listing that finds it.
	if listings != 1 || stats != 0 || reads != 5 {
		t.Errorf("%d listings, %d stats, %d reads; want 1 listing, no stat and 5 reads (3 files + a new pack's index)", listings, stats, reads)
	}

	later := mkBlob(200, 2)
	if _, _, err := openStore(t, dir).PutAll([]*store.Blob{later}); err != nil {
		t.Fatal(err)
	}
	inj.StartRecording()
	if _, err := s.LocalTraces(manifestOver(later, mkBlob(201, 2)), nil); !errors.Is(err, store.ErrBlobMissing) {
		t.Fatalf("manifest with an absent blob: %v, want ErrBlobMissing", err)
	}
	if listings := opCount(inj.Ops(), fsx.OpGlob); listings != 1 {
		t.Errorf("a new pack, then an absent blob: %d listings, want 1", listings)
	}
}

// TestPackWrittenAfterOpenIsFound: a pack a peer publishes after Open is
// found by every read entry point, each through one listing of the
// generation. Only Missing stats a file: it checks once that the pack it
// resolved a blob to is still there.
func TestPackWrittenAfterOpenIsFound(t *testing.T) {
	dir := t.TempDir()
	inj := fsx.NewInject(nil)
	s, err := store.Open(dir, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	blobs := distinctBlobs(4)
	for i, read := range []struct {
		name  string
		stats int
		found func(*store.Blob) bool
	}{
		{"Get", 0, func(b *store.Blob) bool { _, err := s.Get(b.Hash()); return err == nil }},
		{"LocalTraces", 0, func(b *store.Blob) bool { _, err := s.LocalTraces(manifestOver(b), nil); return err == nil }},
		{"Missing", 1, func(b *store.Blob) bool { return len(s.Missing(manifestOver(b), nil)) == 0 }},
		{"SizeOf", 0, func(b *store.Blob) bool { _, ok := s.SizeOf(b.Hash()); return ok }},
	} {
		if _, _, err := openStore(t, dir).PutAll(blobs[i : i+1]); err != nil {
			t.Fatal(err)
		}
		inj.StartRecording()
		if !read.found(blobs[i]) {
			t.Errorf("%s does not find a pack published after Open", read.name)
		}
		listings, stats := opCount(inj.Ops(), fsx.OpGlob), opCount(inj.Ops(), fsx.OpStat)
		if listings != 1 || stats != read.stats {
			t.Errorf("%s listed the generation %d times and stat'ed %d files, want one listing and %d stats", read.name, listings, stats, read.stats)
		}
	}
}

// TestRemovedPackIsACleanMiss: a blob whose pack the store quarantines,
// one whose pack it compacts away and one whose pack a peer compacts away
// are each a plain ErrBlobMissing afterwards. The store's own removals
// leave its index at once, so the removed packs are not read again; a
// peer's removal is learnt the first time the store reads the pack.
func TestRemovedPackIsACleanMiss(t *testing.T) {
	dir := t.TempDir()
	blobs := distinctBlobs(3)
	bad, orphan, peerOrphan := blobs[0], blobs[1], blobs[2]
	for _, b := range blobs {
		if _, _, err := openStore(t, dir).PutAll([]*store.Blob{b}); err != nil {
			t.Fatal(err)
		}
	}
	badPack := packOf(t, dir, bad)
	data, err := os.ReadFile(badPack)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-8] ^= 0xff // the index still reads; the body does not
	if err := os.WriteFile(badPack, data, 0o644); err != nil {
		t.Fatal(err)
	}
	inj := fsx.NewInject(nil)
	s, err := store.Open(dir, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	peer := openStore(t, dir)

	if _, err := s.Get(bad.Hash()); !errors.Is(err, store.ErrBlobCorrupt) {
		t.Fatalf("corrupt pack: %v, want ErrBlobCorrupt", err)
	}
	if _, err := s.Compact(map[store.Hash]bool{peerOrphan.Hash(): true}); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Compact(nil); err != nil {
		t.Fatal(err)
	}
	inj.StartRecording()
	for _, b := range []*store.Blob{bad, orphan} {
		missIsClean(t, s, b)
	}
	for _, op := range inj.Ops() {
		if op.Op == fsx.OpRead {
			t.Errorf("a lookup of a blob the store removed read %s", op.Path)
		}
	}
	missIsClean(t, s, peerOrphan)
}

// packOf returns the path of the one pack under dir that holds b.
func packOf(t *testing.T, dir string, b *store.Blob) string {
	t.Helper()
	for _, p := range storeFiles(t, dir, ".pck") {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		hashes, err := store.PackHashes(data)
		if err == nil && len(hashes) == 1 && hashes[0] == b.Hash() {
			return p
		}
	}
	t.Fatalf("no pack holds %s alone", b.Hash())
	return ""
}

// missIsClean requires every read entry point to report b absent.
func missIsClean(t *testing.T, s *store.Store, b *store.Blob) {
	t.Helper()
	h := b.Hash()
	if _, err := s.Get(h); !errors.Is(err, store.ErrBlobMissing) {
		t.Errorf("Get(%s) = %v, want ErrBlobMissing", h, err)
	}
	if _, err := s.LocalTraces(manifestOver(b), nil); !errors.Is(err, store.ErrBlobMissing) {
		t.Errorf("LocalTraces over %s = %v, want ErrBlobMissing", h, err)
	}
	if len(s.Missing(manifestOver(b), nil)) != 1 {
		t.Errorf("Missing(%s) holds it after its pack was removed", h)
	}
	if _, ok := s.SizeOf(h); ok {
		t.Errorf("SizeOf(%s) after its pack was removed", h)
	}
}

// TestPackIndexUnderConcurrentPeers runs readers of the launch path against
// one store while a peer store in the same directory publishes two packs
// per turn, and the readers' store compacts after each: the race detector
// guards the pack index, and the blobs kept live stay readable throughout
// and after.
func TestPackIndexUnderConcurrentPeers(t *testing.T) {
	dir := t.TempDir()
	s, peer := openStore(t, dir), openStore(t, dir)
	blobs := distinctBlobs(40)
	kept := blobs[:8]
	if _, _, err := peer.PutAll(kept); err != nil {
		t.Fatal(err)
	}
	live := make(map[store.Hash]bool)
	for i, b := range blobs {
		live[b.Hash()] = i < len(kept)
	}
	keptMan, allMan := manifestOver(kept...), manifestOver(blobs...)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.LocalTraces(keptMan, nil); err != nil {
					t.Errorf("readers lost the blobs kept live: %v", err)
					return
				}
				s.Missing(allMan, nil)
				for _, b := range blobs[len(kept):] { // published or compacted away
					s.LocalTraces(manifestOver(b), nil)
				}
			}
		}()
	}
	for i := len(kept); i+1 < len(blobs); i += 2 {
		for _, b := range blobs[i : i+2] {
			if _, _, err := peer.PutAll([]*store.Blob{b}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Compact(live); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range []*store.Store{s, openStore(t, dir)} {
		for _, b := range kept {
			if _, err := st.Get(b.Hash()); err != nil {
				t.Errorf("live blob %s lost: %v", b.Hash(), err)
			}
		}
	}
}
