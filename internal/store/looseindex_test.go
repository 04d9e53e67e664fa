package store_test

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"persistcc/internal/fsx"
	"persistcc/internal/store"
)

// Tests for the index a listing builds of loose blob files: a miss costs map
// lookups and at most one listing per call, never a stat per hash; a file a
// peer writes after Open is found through that listing; a file the store
// quarantines or compacts away is a clean miss afterwards; and a compressed
// loose file cannot inflate without bound.

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

// TestLocalTracesMixedSourcesOneListing: one manifest whose blobs lie in a
// pack the store indexed at Open, in a loose file and in a pack a peer
// published after Open reads in one LocalTraces call that lists the
// generation once, stats nothing and reads each file once. A blob nobody
// holds, met after such a listing, costs no second one.
func TestLocalTracesMixedSourcesOneListing(t *testing.T) {
	dir := t.TempDir()
	blobs := distinctBlobs(3)
	packed, loose, late := blobs[0], blobs[1], blobs[2]
	if _, _, err := openStore(t, dir).PutAll([]*store.Blob{packed}); err != nil {
		t.Fatal(err)
	}
	inj := fsx.NewInject(nil)
	s, err := store.Open(dir, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	writeLoose(t, dir, "gen0000", loose)
	if _, _, err := openStore(t, dir).PutAll([]*store.Blob{late}); err != nil {
		t.Fatal(err)
	}
	inj.StartRecording()
	if got, err := s.LocalTraces(manifestOver(packed, loose, late, loose), nil); err != nil || len(got) != 4 {
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
	writeLoose(t, dir, "gen0000", later)
	inj.StartRecording()
	if _, err := s.LocalTraces(manifestOver(later, mkBlob(201, 2)), nil); !errors.Is(err, store.ErrBlobMissing) {
		t.Fatalf("manifest with an absent blob: %v, want ErrBlobMissing", err)
	}
	if listings := opCount(inj.Ops(), fsx.OpGlob); listings != 1 {
		t.Errorf("a new loose blob, then an absent one: %d listings, want 1", listings)
	}
}

// TestLooseFileWrittenAfterOpenIsFound: a loose blob file a peer writes
// after Open is found by every read entry point, each through one listing
// of the generation and no stat.
func TestLooseFileWrittenAfterOpenIsFound(t *testing.T) {
	dir := t.TempDir()
	inj := fsx.NewInject(nil)
	s, err := store.Open(dir, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	blobs := distinctBlobs(4)
	for i, read := range []struct {
		name  string
		found func(*store.Blob) bool
	}{
		{"Get", func(b *store.Blob) bool { _, err := s.Get(b.Hash()); return err == nil }},
		{"LocalTraces", func(b *store.Blob) bool { _, err := s.LocalTraces(manifestOver(b), nil); return err == nil }},
		{"Missing", func(b *store.Blob) bool { return len(s.Missing(manifestOver(b), nil)) == 0 }},
		{"SizeOf", func(b *store.Blob) bool { _, ok := s.SizeOf(b.Hash()); return ok }},
	} {
		writeLoose(t, dir, "gen0000", blobs[i])
		inj.StartRecording()
		if !read.found(blobs[i]) {
			t.Errorf("%s does not find a loose blob written after Open", read.name)
		}
		listings, stats := opCount(inj.Ops(), fsx.OpGlob), opCount(inj.Ops(), fsx.OpStat)
		if listings != 1 || stats != 0 {
			t.Errorf("%s listed the generation %d times and stat'ed %d files, want one listing and no stat", read.name, listings, stats)
		}
	}
}

// TestRemovedLooseFileIsACleanMiss: a loose blob the store quarantines, one
// it compacts away and one a peer compacts away are each a plain
// ErrBlobMissing afterwards. The store's own removals leave its index at
// once, so the removed paths are not read again; a peer's removal is learnt
// the first time the store reads the file.
func TestRemovedLooseFileIsACleanMiss(t *testing.T) {
	dir := t.TempDir()
	blobs := distinctBlobs(3)
	bad, orphan, peerOrphan := blobs[0], blobs[1], blobs[2]
	for _, b := range blobs {
		writeLoose(t, dir, "gen0000", b)
	}
	if err := os.WriteFile(filepath.Join(dir, "gen0000", bad.Hash().Hex()+".pcb"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	inj := fsx.NewInject(nil)
	s, err := store.Open(dir, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	peer := openStore(t, dir)

	if _, err := s.Get(bad.Hash()); !errors.Is(err, store.ErrBlobCorrupt) {
		t.Fatalf("corrupt loose blob: %v, want ErrBlobCorrupt", err)
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
		t.Errorf("Missing(%s) holds it after its file was removed", h)
	}
	if _, ok := s.SizeOf(h); ok {
		t.Errorf("SizeOf(%s) after its file was removed", h)
	}
}

// zipped is a blob file as earlier versions compressed one: the PCZ1 prefix,
// then a flate stream of payload.
func zipped(payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString("PCZ1")
	zw, _ := flate.NewWriter(&buf, flate.BestSpeed) // the level is valid
	zw.Write(payload)                               // a bytes.Buffer does not fail
	zw.Close()
	return buf.Bytes()
}

// TestLooseZipBombIsQuarantined: a compressed loose file whose stream
// inflates past the largest blob is corrupt — on the read path and in the
// scrub — and moves to quarantine, while a compressed real blob still reads.
func TestLooseZipBombIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	blobs := distinctBlobs(3)
	bomb := zipped(make([]byte, 8*store.PackMaxRaw))
	var bombs []string
	for i, b := range blobs {
		path := writeLoose(t, dir, "gen0000", b)
		data := zipped(b.Encode())
		if i > 0 {
			data, bombs = bomb, append(bombs, path)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openStore(t, dir)
	if _, err := s.Get(blobs[0].Hash()); err != nil {
		t.Fatalf("compressed loose blob: %v", err)
	}
	if _, err := s.Get(blobs[1].Hash()); !errors.Is(err, store.ErrBlobCorrupt) {
		t.Fatalf("zero bomb on the read path: %v, want ErrBlobCorrupt", err)
	}
	if rep, err := s.Recover(time.Hour); err != nil || rep.Quarantined != 1 || rep.Blobs != 1 {
		t.Fatalf("scrub: %+v, %v; want the other bomb quarantined and the real blob kept", rep, err)
	}
	for _, p := range bombs {
		if _, err := os.Stat(filepath.Join(dir, "quarantine", filepath.Base(p))); err != nil {
			t.Errorf("zero bomb not quarantined: %v", err)
		}
	}
}

// FuzzInflateBlob holds the loose-file reader to its bound on arbitrary
// bytes: a file without the PCZ1 prefix passes through untouched; one with
// it comes out as at most PackMaxRaw bytes, exactly what its flate stream
// holds, or as an error — never as whatever a small file can inflate to.
// The seeds are a compressed blob, a raw one and an 8 MiB zero bomb.
func FuzzInflateBlob(f *testing.F) {
	f.Add(zipped(mkBlob(1, 4).Encode()))
	f.Add(mkBlob(2, 4).Encode())
	f.Add(zipped(make([]byte, 8*store.PackMaxRaw)))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := store.InflateBlob(data)
		if !bytes.HasPrefix(data, []byte("PCZ1")) {
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("a raw payload did not pass through: %v", err)
			}
			return
		}
		if err != nil {
			return
		}
		if len(got) > store.PackMaxRaw {
			t.Fatalf("inflated to %d bytes, past the %d bound", len(got), store.PackMaxRaw)
		}
		want, werr := io.ReadAll(flate.NewReader(bytes.NewReader(data[4:])))
		if werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("inflated %d bytes, the stream holds %d (err %v)", len(got), len(want), werr)
		}
	})
}

// TestLooseIndexUnderConcurrentPeers runs readers of the launch path against
// one store while a peer store in the same directory publishes a pack and
// writes a loose file per turn, and the readers' store compacts after each:
// the race detector guards the index of packs and loose files, and the
// blobs kept live stay readable throughout and after.
func TestLooseIndexUnderConcurrentPeers(t *testing.T) {
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
				for _, b := range blobs[len(kept):] { // published, loose or compacted away
					s.LocalTraces(manifestOver(b), nil)
				}
			}
		}()
	}
	gen := filepath.Join(dir, "gen0000")
	for i := len(kept); i+1 < len(blobs); i += 2 {
		if _, _, err := peer.PutAll(blobs[i : i+1]); err != nil {
			t.Fatal(err)
		}
		loose := blobs[i+1]
		if err := os.WriteFile(filepath.Join(gen, loose.Hash().Hex()+".pcb"), loose.Encode(), 0o644); err != nil {
			t.Fatal(err)
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
