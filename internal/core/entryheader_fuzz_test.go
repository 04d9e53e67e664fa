package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"persistcc/internal/core"
	"persistcc/internal/store"
)

// asVersion1 rewrites the version-2 encoding of an entry whose last trace
// is unoptimized as version 1, which lacks that trace's one-byte
// optimization level: the last byte before the pool sizes.
func asVersion1(v2 []byte) []byte {
	payload := append([]byte(nil), v2[:len(v2)-32]...)
	cut := len(payload) - 16 - 1
	payload = append(payload[:cut], payload[cut+1:]...)
	binary.LittleEndian.PutUint32(payload[4:], 1)
	sum := sha256.Sum256(payload)
	return append(payload, sum[:]...)
}

// fullDecode is the entry a full decode of the manifest b lists.
func fullDecode(b []byte) (core.IndexEntry, bool) {
	man, err := store.DecodeManifest(b)
	if err != nil {
		return core.IndexEntry{}, false
	}
	e := core.IndexEntry{
		App: core.Key(man.AppKey).Hex(), VM: core.Key(man.VMKey).Hex(), Tool: core.Key(man.ToolKey).Hex(),
		AppPath: man.AppPath, Traces: len(man.Traces), CodePool: man.CodePool, DataPool: man.DataPool,
	}
	return e, true
}

// FuzzEntryHeader checks the header reader Entries lists the database with:
// on arbitrary bytes it never panics and never asks for more than an
// entry's prefix can hold; on every manifest a full decode accepts, every
// version, it reads exactly the fields the full decode does, without
// decoding the trace table; and it rejects every legacy image, which only
// migration reads.
func FuzzEntryHeader(f *testing.F) {
	legacy := seedCacheFileBytes(f)
	cf := new(core.CacheFile)
	if err := cf.UnmarshalBinary(legacy); err != nil {
		f.Fatal(err)
	}
	cf.AppKey[0], cf.VMKey[1], cf.ToolKey[2] = 1, 2, 3
	cf.Modules = append(cf.Modules, core.ModuleRecord{Path: "/lib/libc.so", Base: 0x8000, Size: 0x100})
	cf.CodePool, cf.DataPool = 77, 99
	legacy2, err := cf.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	man, _, err := core.ToStoreFormat(cf)
	if err != nil {
		f.Fatal(err)
	}
	manifest := man.Encode()
	empty := (&store.Manifest{AppPath: "/bin/none"}).Encode()
	for _, b := range [][]byte{manifest, asVersion1(manifest), empty} {
		if _, ok := fullDecode(b); !ok {
			f.Fatalf("seed %q... does not decode", b[:8])
		}
		f.Add(b)
	}
	for _, b := range [][]byte{legacy, asVersion1(legacy), legacy2, asVersion1(legacy2)} {
		if _, _, err := core.EntryHeaderForTest(b); err == nil {
			f.Fatalf("legacy seed %q... reads as an entry", b[:8])
		}
		f.Add(b)
	}
	for _, b := range [][]byte{legacy[:60], manifest[:len(manifest)-1], []byte("PCM1"), []byte("not an entry")} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, largest, err := core.EntryHeaderForTest(data)
		if largest > core.EntryPrefixMax {
			t.Fatalf("asked for a %d-byte read; an entry prefix is at most %d", largest, core.EntryPrefixMax)
		}
		if bytes.HasPrefix(data, legacy[:4]) && err == nil {
			t.Fatalf("header %+v read from a legacy image", got)
		}
		want, ok := fullDecode(data)
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("header of a valid entry: %v", err)
		}
		if got != want {
			t.Fatalf("header %+v, full decode %+v", got, want)
		}
	})
}

// TestEntryHeaderBounds walks the header reader's edges one case at a time:
// each limit the prefix enforces, a version no manifest has, a trace count
// the trailer cuts short, a legacy image at any version, and a module table
// too long for the first 4 KiB read, which must be read in larger chunks to
// the same fields a full decode gives.
func TestEntryHeaderBounds(t *testing.T) {
	cf := new(core.CacheFile)
	if err := cf.UnmarshalBinary(seedCacheFileBytes(t)); err != nil {
		t.Fatal(err)
	}
	legacy, err := cf.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	man, _, err := core.ToStoreFormat(cf)
	if err != nil {
		t.Fatal(err)
	}
	manifest := man.Encode()
	empty := (&store.Manifest{AppPath: "/bin/none"}).Encode()
	wide := *cf
	wide.Modules = append([]core.ModuleRecord(nil), cf.Modules...)
	for i := 0; i < 40; i++ {
		wide.Modules = append(wide.Modules, core.ModuleRecord{Path: fmt.Sprintf("/lib/%0200d.so", i), Base: 0x10000 + uint32(i)<<12})
	}
	wideLegacy, err := wide.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wideMan, _, err := core.ToStoreFormat(&wide)
	if err != nil {
		t.Fatal(err)
	}

	// A manifest puts the application path's length right after magic,
	// version and three keys; with no modules the trace count follows the
	// path and an empty module table.
	const pathOff = 4 + 4 + 3*32
	tracesOff := pathOff + 4 + len("/bin/none") + 4
	put32 := func(b []byte, off int, v uint32) []byte {
		b = append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	for _, tc := range []struct {
		name  string
		data  []byte
		valid bool // the header reads, to the full decode's fields
	}{
		{"empty", nil, false},
		{"trailer-only", manifest[len(manifest)-48:], false},
		{"unknown-magic", append([]byte("XXXX"), manifest[4:]...), false},
		{"legacy-image", legacy, false},
		{"legacy-version-0", put32(legacy, 4, 0), false},
		{"legacy-version-next", put32(legacy, 4, 3), false},
		{"legacy-modules-past-4KiB", wideLegacy, false},
		{"manifest-version-0", put32(manifest, 4, 0), false},
		{"manifest-version-next", put32(manifest, 4, store.ManifestVersion+1), false},
		{"app-path-past-limit", put32(manifest, pathOff, 4097), false},
		{"modules-past-limit", put32(empty, tracesOff-4, 4097), false},
		{"traces-past-limit", put32(empty, tracesOff, 4<<20+1), false},
		{"trace-count-cut-by-trailer", append(append([]byte(nil), empty[:tracesOff+2]...), empty[len(empty)-48:]...), false},
		{"manifest-modules-past-4KiB", wideMan.Encode(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, largest, err := core.EntryHeaderForTest(tc.data)
			if largest > core.EntryPrefixMax {
				t.Fatalf("asked for a %d-byte read; an entry prefix is at most %d", largest, core.EntryPrefixMax)
			}
			if !tc.valid {
				if err == nil {
					t.Fatalf("header %+v of a malformed entry read without error", got)
				}
				return
			}
			want, ok := fullDecode(tc.data)
			if !ok || err != nil {
				t.Fatalf("full decode ok=%v, header error %v", ok, err)
			}
			if got != want {
				t.Fatalf("header %+v, full decode %+v", got, want)
			}
			if largest <= 4096 {
				t.Fatalf("largest read %d bytes of a %d-byte entry; the module table lies past the first 4 KiB", largest, len(tc.data))
			}
		})
	}
}
