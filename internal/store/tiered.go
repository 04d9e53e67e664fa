package store

import (
	"fmt"
)

// RemoteBlobs is tier L3: a source that can return encoded blobs for a set
// of hashes — in practice the cache-server client's FetchBlobs. Hashes the
// remote does not hold are simply absent from the result map.
type RemoteBlobs interface {
	FetchBlobs(hashes []Hash) (map[Hash][]byte, error)
}

// Tiered is the single lookup interface over the three tiers: the
// in-process L1 map and local content store L2 live inside Store; a
// RemoteBlobs source is L3. Remote bytes are verified and written through
// to L2, so each shared blob moves across the network once per machine —
// not once per application.
type Tiered struct {
	Store  *Store
	Remote RemoteBlobs // nil = no L3
}

// Get resolves one hash through all tiers.
func (t *Tiered) Get(h Hash) (*Blob, error) {
	got, err := t.GetAll([]Hash{h})
	if err != nil {
		return nil, err
	}
	b, ok := got[h]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrBlobMissing, h)
	}
	return b, nil
}

// GetAll resolves a set of hashes, batching the L3 round trip for the
// misses. The result holds every hash that resolved; absent entries were
// found in no tier. Corrupt local blobs are quarantined by the store and
// then retried against L3 like any other miss.
func (t *Tiered) GetAll(hashes []Hash) (map[Hash]*Blob, error) {
	out, missing := t.Store.GetAll(hashes)
	if len(missing) == 0 || t.Remote == nil {
		return out, nil
	}
	fetched, err := t.Remote.FetchBlobs(missing)
	if err != nil {
		return out, err
	}
	var good []Hash
	var encs [][]byte
	for _, h := range missing {
		enc, ok := fetched[h]
		if !ok || Sum(enc) != h {
			continue // absent, or bad bytes from the remote: the trace re-translates
		}
		b, err := DecodeBlob(enc)
		if err != nil {
			continue
		}
		t.Store.cache(h, b)
		out[h] = b
		good, encs = append(good, h), append(encs, enc)
	}
	t.Store.met.hitsL3.Add(uint64(len(good)))
	// Write-through is one batch, so one pack. The blobs above are verified
	// and serve this run from L1 whether or not the disk takes them: a
	// failed write only means the next run fetches again.
	_, _ = t.Store.putEncoded(good, encs)
	return out, nil
}
