package store_test

import (
	"os"
	"reflect"
	"testing"

	"persistcc/internal/store"
)

// FuzzDecodePack checks the pack parser is total on arbitrary bytes and
// honest about what it accepts: a pack that decodes has every member
// re-hashing to its index entry, and no length field made it allocate more
// than the input could back. Pack files are untrusted on-disk input — a
// shared store directory is written by every process on the machine. The
// checked-in corpus (testdata/fuzz/FuzzDecodePack) holds a valid pack and
// its mutations: truncated body, an index that runs past the stream, a
// hash listed twice, a bad index checksum, zero entries. Its valid pack was
// deflated at flate.BestCompression, and the seed generated below at the
// writer's current level, so streams of both levels are fuzzed. What a daemon
// sends is the same untrusted input, so AdoptPacks must take exactly what
// DecodePack accepts, and PackHashes — which a fleet client reads to route
// misses — must list an accepted pack's members.
func FuzzDecodePack(f *testing.F) {
	dir := f.TempDir()
	if _, _, err := openStoreF(f, dir).PutAll([]*store.Blob{mkBlob(1, 4), mkBlob(2, 9)}); err != nil {
		f.Fatal(err)
	}
	files, err := os.ReadDir(dir + "/gen0000")
	if err != nil || len(files) != 1 {
		f.Fatalf("seed store: %v, %v", files, err)
	}
	seed, err := os.ReadFile(dir + "/gen0000/" + files[0].Name())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := store.DecodePack(seed); err != nil {
		f.Fatalf("the store's own pack does not decode: %v", err)
	}
	f.Add(seed)
	adopter := openStoreF(f, f.TempDir())

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := store.DecodePack(data)
		if adoptErr := adopter.AdoptPacks([][]byte{data}); (adoptErr == nil) != (err == nil) {
			t.Fatalf("DecodePack says %v, AdoptPacks says %v", err, adoptErr)
		}
		if err != nil {
			return
		}
		if hashes, err := store.PackHashes(data); err != nil || !reflect.DeepEqual(hashes, p.Hashes) {
			t.Fatalf("PackHashes of an accepted pack: %v, %v; want %v", hashes, err, p.Hashes)
		}
		if len(p.Hashes) == 0 || len(p.Hashes) != len(p.Encs) {
			t.Fatalf("accepted a pack of %d hashes and %d members", len(p.Hashes), len(p.Encs))
		}
		total := 0
		seen := make(map[store.Hash]bool)
		for i, enc := range p.Encs {
			if store.Sum(enc) != p.Hashes[i] || seen[p.Hashes[i]] {
				t.Fatalf("member %d does not re-hash to its index entry, or repeats one", i)
			}
			seen[p.Hashes[i]] = true
			total += len(enc)
		}
		if total > 1032*len(data) {
			t.Fatalf("%d input bytes decoded to %d", len(data), total)
		}
	})
}

func openStoreF(f *testing.F, dir string) *store.Store {
	f.Helper()
	s, err := store.Open(dir, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	return s
}
