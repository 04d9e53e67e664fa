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
// found in no tier. Corrupt local blobs are quarantined by Store.Get and
// then retried against L3 like any other miss.
func (t *Tiered) GetAll(hashes []Hash) (map[Hash]*Blob, error) {
	out := make(map[Hash]*Blob, len(hashes))
	var missing []Hash
	for _, h := range hashes {
		if _, ok := out[h]; ok {
			continue
		}
		b, err := t.Store.Get(h)
		if err == nil {
			out[h] = b
			continue
		}
		missing = append(missing, h)
	}
	if len(missing) == 0 || t.Remote == nil {
		return out, nil
	}
	fetched, err := t.Remote.FetchBlobs(missing)
	if err != nil {
		return out, err
	}
	for _, h := range missing {
		enc, ok := fetched[h]
		if !ok {
			continue
		}
		b, err := t.Store.PutRaw(h, enc)
		if err != nil {
			// Bad bytes from the remote: skip; the trace re-translates.
			continue
		}
		t.Store.cache(h, b)
		out[h] = b
		t.Store.met.hits.With("l3").Inc()
	}
	return out, nil
}
