package cacheserver

import (
	"bytes"
	"testing"

	"persistcc/internal/core"
	"persistcc/internal/store"
)

// FuzzDecodeFrame checks the wire protocol's receive path end to end: the
// frame reader must be total on arbitrary byte streams, every frame it
// accepts must re-encode to the identical bytes it consumed, and every
// payload decoder must reject (never panic on) arbitrary payloads. The
// server feeds readFrame and the PUBLISH decoder bytes from untrusted
// clients, and the client feeds the read-path decoders bytes from a daemon
// it does not control, so this boundary has to hold under any input.
func FuzzDecodeFrame(f *testing.F) {
	frame := func(tag uint8, payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, tag, payload, MaxFrame); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	var h1, h2 store.Hash
	h1[0], h2[31] = 0xAB, 0xCD
	f.Add(frame(OpLookup, encodeKeyRequest(core.KeySet{}, ScopeInterApp)))
	f.Add(frame(OpFetchManifests, encodeKeyRequest(core.KeySet{App: [32]byte{1}}, ScopeBest)))
	f.Add(frame(OpStats, nil))
	f.Add(frame(StatusOK, encodeLookupInfo(&LookupInfo{File: "a.pcc", AppPath: "/bin/a", Traces: 3})))
	f.Add(frame(StatusOK, encodeCommitReport(&core.CommitReport{Traces: 2, File: "a.pcc"})))
	f.Add(frame(StatusOK, encodeDBStats(&core.DBStats{Files: 1, Classes: []core.KeyClassCount{{VM: "v", Tool: "t", Entries: 1}}})))
	f.Add(frame(StatusOK, encodeManifestItems([]ManifestItem{{Kind: ItemKindManifest, Data: []byte("manifest")}})))
	// Kind 0, the retired legacy-image kind, is unknown: the frame is refused.
	f.Add(frame(StatusOK, encodeManifestItems([]ManifestItem{
		{Kind: ItemKindManifest, Data: []byte("manifest")}, {Kind: 0, Data: []byte("image")}})))
	f.Add(frame(OpFetchPacks, encodePackRequest(core.KeySet{App: [32]byte{2}}, []store.Hash{h1, h2})))
	f.Add(frame(StatusOK, encodePackFiles([][]byte{[]byte("PCK1 pack"), {}})))
	empty, err := core.NewPublication(&core.CacheFile{}, false)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame(OpPublish, encodePublication(empty)))
	f.Add(frame(OpPublish, encodePublication(&core.Publication{
		Manifest: []byte("manifest"), Packs: [][]byte{[]byte("PCK1 pack")}, Fresh: 3})))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1}) // hostile length field
	f.Add([]byte{0, 0, 0, 0, 0})             // zero length

	f.Fuzz(func(t *testing.T, data []byte) {
		const max = 1 << 20
		tag, payload, err := readFrame(bytes.NewReader(data), max)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, tag, payload, max); err != nil {
			t.Fatalf("re-encode of an accepted frame failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("frame round trip changed bytes: % x != % x", buf.Bytes(), data[:buf.Len()])
		}
		// Every payload decoder must be total on whatever tag the frame
		// claims: a hostile peer controls both. Rejection is fine; only a
		// panic is a bug. Decoders that accept must round-trip.
		_, _ = decodeDBStats(payload)
		if li, err := decodeLookupInfo(payload); err == nil {
			if li2, err := decodeLookupInfo(encodeLookupInfo(li)); err != nil || *li2 != *li {
				t.Fatalf("LookupInfo round trip: %+v vs %+v (%v)", li, li2, err)
			}
		}
		if rep, err := decodeCommitReport(payload); err == nil {
			if rep2, err := decodeCommitReport(encodeCommitReport(rep)); err != nil || *rep2 != *rep {
				t.Fatalf("CommitReport round trip: %+v vs %+v (%v)", rep, rep2, err)
			}
		}
		// The read path's codecs are canonical: an accepted payload
		// re-encodes to exactly the bytes it was decoded from.
		if ks, scope, err := decodeKeyRequest(payload); err == nil {
			if got := encodeKeyRequest(ks, scope); !bytes.Equal(got, payload) {
				t.Fatalf("key request re-encodes to % x, decoded from % x", got, payload)
			}
		}
		if items, err := decodeManifestItems(payload); err == nil {
			if got := encodeManifestItems(items); !bytes.Equal(got, payload) {
				t.Fatalf("manifest items re-encode to % x, decoded from % x", got, payload)
			}
			// A prime takes manifests alone: an item of any other kind
			// fails the whole frame.
			for _, it := range items {
				if it.Kind != ItemKindManifest {
					t.Fatalf("an item of kind %d decoded", it.Kind)
				}
			}
		}
		if ks, hashes, err := decodePackRequest(payload); err == nil {
			if got := encodePackRequest(ks, hashes); !bytes.Equal(got, payload) {
				t.Fatalf("pack request re-encodes to % x, decoded from % x", got, payload)
			}
		}
		if packs, err := decodePackFiles(payload); err == nil {
			if got := encodePackFiles(packs); !bytes.Equal(got, payload) {
				t.Fatalf("pack files re-encode to % x, decoded from % x", got, payload)
			}
		}
		// So is the PUBLISH payload codec.
		if pub, err := decodePublication(payload); err == nil {
			if got := encodePublication(pub); !bytes.Equal(got, payload) {
				t.Fatalf("publication re-encodes to % x, decoded from % x", got, payload)
			}
		}
	})
}
