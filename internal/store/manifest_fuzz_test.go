package store_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"persistcc/internal/store"
)

// fuzzManifest is a manifest with every field set: two modules, and traces
// with one and with two refs, one of them optimized.
func fuzzManifest() *store.Manifest {
	m := &store.Manifest{AppPath: "gftp", CodePool: 4096, DataPool: 8192}
	m.AppKey[0], m.VMKey[1], m.ToolKey[2] = 1, 2, 3
	for i, path := range []string{"gftp", "libgtk.so"} {
		mod := store.Module{Path: path, Base: 0x10000 << i, Size: 0x3000, MTime: int64(i + 7)}
		mod.Digest[0], mod.Key[1], mod.Content[2] = byte(i), byte(i+1), byte(i+2)
		m.Modules = append(m.Modules, mod)
	}
	m.Traces = []store.TraceRef{
		{Blob: mkBlob(1, 3).Hash(), Refs: []int32{0}},
		{Blob: mkBlob(2, 5).Hash(), Refs: []int32{1, 0}, OptLevel: 1},
		{Blob: mkBlob(3, 2).Hash(), Refs: []int32{1}},
	}
	return m
}

// payloadOf is an encoding without its integrity trailer: what
// FuzzDecodeManifest mutates.
func payloadOf(enc []byte) []byte { return enc[:len(enc)-sha256.Size] }

// withTrailer appends the integrity trailer a payload needs to be decoded.
func withTrailer(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(append([]byte(nil), payload...), sum[:]...)
}

// FuzzDecodeManifest holds the manifest decoder to its contract on arbitrary
// bytes. Manifests reach a process from its database directory, which any
// local process may write, and from the PUBLISH frames a daemon receives.
// The fuzzer mutates a manifest's payload and the target appends the
// payload's SHA-256 trailer, so that a mutation reaches the decoder instead
// of stopping at the integrity check. (1) No count allocates beyond what the
// input's bytes can back: one decode allocates at most four bytes per input
// byte, plus a constant. (2) An accepted manifest re-encodes to exactly its
// input, except a version-1 one, which Encode never writes: it re-encodes
// to a version-2 manifest that decodes to the same thing. The seeds are a
// manifest with every field set, its version-1 form, and payloads whose
// module count, trace count or ref count the bytes after it cannot back.
func FuzzDecodeManifest(f *testing.F) {
	valid := payloadOf(fuzzManifest().Encode())
	f.Add(valid)
	f.Add(versionOne(f, fuzzManifest()))
	// Modules nobody wrote: a count right after the application path.
	keys := 4 + 4 + 3*32 + 4 + len("gftp")
	f.Add(binary.LittleEndian.AppendUint32(bytes.Clone(valid[:keys]), 4096))
	// ~4M traces in a few bytes: the trace count, then nothing.
	section := len(valid) - 16
	for _, tr := range fuzzManifest().Traces {
		section -= 32 + 4 + 4*len(tr.Refs) + 1
	}
	traces := bytes.Clone(valid[:section])
	binary.LittleEndian.PutUint32(traces[section-4:], 4<<20)
	f.Add(traces)
	// 64 refs, none of them there.
	f.Add(binary.LittleEndian.AppendUint32(bytes.Clone(valid[:section+32]), 64))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		enc := withTrailer(payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := store.DecodeManifest(enc)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(enc))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(enc), grew)
		}
		if err != nil {
			return
		}
		again := m.Encode()
		if binary.LittleEndian.Uint32(payload[4:]) == store.ManifestVersion {
			if !bytes.Equal(again, enc) {
				t.Fatalf("an accepted manifest re-encodes to other bytes:\n in  %x\n out %x", enc, again)
			}
			return
		}
		back, err := store.DecodeManifest(again)
		if err != nil {
			t.Fatalf("a version-1 manifest re-encodes to one that does not decode: %v", err)
		}
		back.EncodedBytes, m.EncodedBytes = 0, 0
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("a version-1 manifest re-encodes to another manifest:\n in  %+v\n out %+v", m, back)
		}
	})
}

// versionOne is m's payload in the version-1 layout: no optimization level
// per trace. Every trace of m must be unoptimized.
func versionOne(tb testing.TB, m *store.Manifest) []byte {
	for i := range m.Traces {
		m.Traces[i].OptLevel = 0
	}
	v2 := payloadOf(m.Encode())
	binary.LittleEndian.PutUint32(v2[4:], 1)
	// The trace section is the last before the two pools; drop the level
	// byte each trace ends with, from the back.
	out := bytes.Clone(v2[:len(v2)-16])
	end := len(out)
	for i := len(m.Traces) - 1; i >= 0; i-- {
		out = append(out[:end-1], out[end:]...)
		end -= 1 + 32 + 4 + 4*len(m.Traces[i].Refs)
	}
	out = append(out, v2[len(v2)-16:]...)
	if got, err := store.DecodeManifest(withTrailer(out)); err != nil || !reflect.DeepEqual(got.Traces, m.Traces) {
		tb.Fatalf("version-1 seed: %v", err)
	}
	return out
}
