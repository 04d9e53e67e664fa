package store_test

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"persistcc/internal/store"
)

// Tests for the fold, the one reader of the loose one-file-per-blob files
// earlier versions wrote: until it runs they are invisible, and it moves
// every sound one into a pack and quarantines the rest.

// TestRecoverFoldsLooseBlobs: loose blobs are a miss to every read entry
// point and no dedup target. Recover folds the sound ones into one pack in
// the newest generation — a blob in two generations once, a blob a pack
// already holds not at all — quarantines the one whose bytes are not its
// name's, and leaves no loose file; every folded blob then reads.
func TestRecoverFoldsLooseBlobs(t *testing.T) {
	dir := t.TempDir()
	old, twice, bad, packed := mkBlob(30, 4), mkBlob(31, 4), mkBlob(32, 4), mkBlob(33, 4)
	writeLoose(t, dir, "gen0000", old)
	writeLoose(t, dir, "gen0000", twice)
	writeLoose(t, dir, "gen0001", twice)
	writeLoose(t, dir, "gen0001", packed)
	badPath := writeLoose(t, dir, "gen0001", bad)
	if err := os.WriteFile(badPath, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir)
	missIsClean(t, s, old)
	if rep, _, err := s.PutAll([]*store.Blob{packed}); err != nil || rep.Added != 1 {
		t.Fatalf("PutAll of a blob only a loose file holds: %+v, %v; want it written", rep, err)
	}
	if st := s.Stats(); st.Blobs != 1 || st.Packs != 1 || st.LooseBlobs != 5 {
		t.Fatalf("stats before the fold: %+v, want the 1 packed blob and 5 loose files", st)
	}

	rep, err := s.Recover(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 || rep.Folded != 4 || rep.Blobs != 3 {
		t.Fatalf("recover: %+v; want 1 file quarantined, 4 folded, 3 blobs scrubbed", rep)
	}
	if loose := storeFiles(t, dir, ".pcb"); len(loose) != 0 {
		t.Errorf("loose files left after the fold: %v", loose)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", filepath.Base(badPath))); err != nil {
		t.Errorf("corrupt loose blob not quarantined: %v", err)
	}
	packs := storeFiles(t, dir, ".pck")
	if len(packs) != 2 || filepath.Base(filepath.Dir(packs[0])) != "gen0001" || filepath.Base(filepath.Dir(packs[1])) != "gen0001" {
		t.Errorf("packs after the fold: %v, want the put's and the fold's, in gen0001", packs)
	}
	for _, st := range []*store.Store{s, openStore(t, dir)} {
		for _, b := range []*store.Blob{old, twice, packed} {
			if _, err := st.Get(b.Hash()); err != nil {
				t.Errorf("folded blob %s: %v", b.Hash(), err)
			}
		}
		if stats := st.Stats(); stats.Blobs != 3 || stats.Packs != 2 || stats.LooseBlobs != 0 {
			t.Errorf("stats after the fold: %+v, want 3 blobs in 2 packs", stats)
		}
	}
	before := fmt.Sprint(storeFiles(t, dir, ""))
	if folded, quarantined, err := s.FoldLoose(); err != nil || folded != 0 || quarantined != 0 || fmt.Sprint(storeFiles(t, dir, "")) != before {
		t.Errorf("a second fold: %d folded, %d quarantined, %v, store %v; want a no-op", folded, quarantined, err, storeFiles(t, dir, ""))
	}
}

// TestFoldLooseChunksAtPackBound: a fold of more raw bytes than one pack
// holds writes several packs, as a PutAll of as many bytes would.
func TestFoldLooseChunksAtPackBound(t *testing.T) {
	dir := t.TempDir()
	var blobs []*store.Blob
	for seed := byte(0); seed < 40; seed++ { // ~32 KB each: past the 1 MiB pack bound
		blobs = append(blobs, mkBlob(seed, 4000))
		writeLoose(t, dir, "gen0000", blobs[seed])
	}
	s := openStore(t, dir)
	if folded, quarantined, err := s.FoldLoose(); err != nil || folded != len(blobs) || quarantined != 0 {
		t.Fatalf("fold: %d folded, %d quarantined, %v; want %d folded", folded, quarantined, err, len(blobs))
	}
	if packs := storeFiles(t, dir, ".pck"); len(packs) != 2 || len(storeFiles(t, dir, ".pcb")) != 0 {
		t.Fatalf("%d loose blobs of ~32 KB folded into %d packs, left %d; want 2 packs and none left", len(blobs), len(packs), len(storeFiles(t, dir, ".pcb")))
	}
	fresh := openStore(t, dir)
	for _, b := range blobs {
		if _, err := fresh.Get(b.Hash()); err != nil {
			t.Fatalf("folded blob %s: %v", b.Hash(), err)
		}
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
// inflates past the largest blob is corrupt to the fold, which quarantines
// it, while a compressed real blob folds and reads.
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
	if rep, err := s.Recover(time.Hour); err != nil || rep.Quarantined != 2 || rep.Blobs != 1 {
		t.Fatalf("recover: %+v, %v; want both bombs quarantined and the real blob folded", rep, err)
	}
	if _, err := s.Get(blobs[0].Hash()); err != nil {
		t.Fatalf("compressed loose blob after the fold: %v", err)
	}
	for _, p := range bombs {
		if _, err := os.Stat(filepath.Join(dir, "quarantine", filepath.Base(p))); err != nil {
			t.Errorf("zero bomb not quarantined: %v", err)
		}
	}
}

// FuzzFoldLoose holds the fold to its contract on arbitrary loose file
// bytes, named by the address of what they hold: a file without the PCZ1
// prefix holds itself; one with it holds what its flate stream inflates to,
// unless that is more than PackMaxRaw bytes. The fold packs the file exactly
// when what it holds decodes as a blob, and the pack then serves that
// encoding; otherwise the file moves to quarantine. Either way no loose file
// is left, and the fold never inflates a file past the bound. The seeds are
// a compressed blob, a raw one and an 8 MiB zero bomb.
func FuzzFoldLoose(f *testing.F) {
	f.Add(zipped(mkBlob(1, 4).Encode()))
	f.Add(mkBlob(2, 4).Encode())
	f.Add(zipped(make([]byte, 8*store.PackMaxRaw)))

	f.Fuzz(func(t *testing.T, data []byte) {
		held, ok := data, true
		if bytes.HasPrefix(data, []byte("PCZ1")) {
			var err error
			held, err = io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(data[4:])), store.PackMaxRaw+1))
			ok = err == nil && len(held) <= store.PackMaxRaw
		}
		_, derr := store.DecodeBlob(held)
		ok = ok && derr == nil
		h := store.Sum(held)

		dir := t.TempDir()
		gen := filepath.Join(dir, "gen0000")
		if err := os.MkdirAll(gen, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(gen, h.Hex()+".pcb"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := openStore(t, dir)
		folded, quarantined, err := s.FoldLoose()
		if err != nil || folded+quarantined != 1 || (folded == 1) != ok {
			t.Fatalf("fold: %d folded, %d quarantined, %v; want the file folded: %t", folded, quarantined, err, ok)
		}
		if loose := storeFiles(t, dir, ".pcb"); len(loose) != 0 {
			t.Fatalf("the fold left %v", loose)
		}
		b, err := s.Get(h)
		switch {
		case ok && (err != nil || !bytes.Equal(b.Encode(), held)):
			t.Fatalf("folded blob reads back as %v, want the %d bytes the file held", err, len(held))
		case !ok && !errors.Is(err, store.ErrBlobMissing):
			t.Fatalf("a quarantined file's blob: %v, want ErrBlobMissing", err)
		}
	})
}
