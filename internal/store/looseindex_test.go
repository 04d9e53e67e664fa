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

// TestStoreLookupOpsIndependentOfBlobCount: putting N new blobs into an
// empty store, and finding N hashes missing and adopting the remote packs
// that hold them (which writes them through), look at the filesystem the
// same number of times for every N — the misses are map lookups plus one
// listing per call, not a stat per hash per generation.
func TestStoreLookupOpsIndependentOfBlobCount(t *testing.T) {
	open := func() (*store.Store, *fsx.InjectFS) {
		inj := fsx.NewInject(nil)
		s, err := store.Open(t.TempDir(), inj, nil)
		if err != nil {
			t.Fatal(err)
		}
		inj.StartRecording()
		return s, inj
	}
	var puts, fetches []int
	for _, n := range []int{1, 100, 1000} {
		blobs := distinctBlobs(n)
		s, inj := open()
		if rep, _, err := s.PutAll(blobs); err != nil || rep.Added != n {
			t.Fatalf("PutAll of %d new blobs: %+v, %v", n, rep, err)
		}
		puts = append(puts, lookups(inj.Ops()))

		remote := newFakeRemote(t, blobs...)
		hashes := make([]store.Hash, n)
		for i, b := range blobs {
			hashes[i] = b.Hash()
		}
		s, inj = open()
		err := s.AdoptPacks(remote.packs(s.Missing(hashes)))
		if got, _ := s.GetAll(hashes); err != nil || len(got) != n {
			t.Fatalf("adopting the packs of %d remote blobs: %d resolved, %v", n, len(got), err)
		}
		fetches = append(fetches, lookups(inj.Ops()))
	}
	for i := range puts {
		if puts[i] != puts[0] || fetches[i] != fetches[0] {
			t.Fatalf("filesystem lookups for 1, 100, 1000 blobs: PutAll %v, AdoptPacks %v; want the same for every count", puts, fetches)
		}
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
		found func(store.Hash) bool
	}{
		{"Get", func(h store.Hash) bool { _, err := s.Get(h); return err == nil }},
		{"GetAll", func(h store.Hash) bool { got, _ := s.GetAll([]store.Hash{h}); return got[h] != nil }},
		{"Has", s.Has},
		{"SizeOf", func(h store.Hash) bool { _, ok := s.SizeOf(h); return ok }},
	} {
		writeLoose(t, dir, "gen0000", blobs[i])
		inj.StartRecording()
		if !read.found(blobs[i].Hash()) {
			t.Errorf("%s does not find a loose blob written after Open", read.name)
		}
		listings, stats := 0, 0
		for _, op := range inj.Ops() {
			switch op.Op {
			case fsx.OpGlob:
				listings++
			case fsx.OpStat:
				stats++
			}
		}
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
		missIsClean(t, s, b.Hash())
	}
	for _, op := range inj.Ops() {
		if op.Op == fsx.OpRead {
			t.Errorf("a lookup of a blob the store removed read %s", op.Path)
		}
	}
	missIsClean(t, s, peerOrphan.Hash())
}

// missIsClean requires every read entry point to report h absent.
func missIsClean(t *testing.T, s *store.Store, h store.Hash) {
	t.Helper()
	if _, err := s.Get(h); !errors.Is(err, store.ErrBlobMissing) {
		t.Errorf("Get(%s) = %v, want ErrBlobMissing", h, err)
	}
	if got, missing := s.GetAll([]store.Hash{h}); len(got) != 0 || len(missing) != 1 {
		t.Errorf("GetAll(%s) resolved it", h)
	}
	if s.Has(h) {
		t.Errorf("Has(%s) after its file was removed", h)
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

// TestLooseIndexUnderConcurrentPeers runs readers against one store while a
// peer store in the same directory publishes a pack and writes a loose file
// per turn, and the readers' store compacts after each: the race detector
// guards the index of packs and loose files, and the blobs kept live stay
// readable throughout and after.
func TestLooseIndexUnderConcurrentPeers(t *testing.T) {
	dir := t.TempDir()
	s, peer := openStore(t, dir), openStore(t, dir)
	blobs := distinctBlobs(40)
	kept := blobs[:8]
	if _, _, err := peer.PutAll(kept); err != nil {
		t.Fatal(err)
	}
	live := make(map[store.Hash]bool)
	hashes := make([]store.Hash, len(blobs))
	for i, b := range blobs {
		hashes[i] = b.Hash()
		live[hashes[i]] = i < len(kept)
	}

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
				if got, _ := s.GetAll(hashes); len(got) < len(kept) {
					t.Errorf("readers resolved %d blobs, fewer than the %d kept live", len(got), len(kept))
					return
				}
				for _, h := range hashes {
					s.Has(h)
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
