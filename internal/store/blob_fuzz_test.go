package store_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"persistcc/internal/store"
	"persistcc/internal/vm"
)

// optBlob is mkBlob after an optimizer pass dropped the middle of it: a
// PCB2 encoding with a level, an original length and a source map.
func optBlob(seed byte) *store.Blob {
	b := mkBlob(seed, 4)
	b.OptLevel, b.OrigLen, b.SrcIdx = 1, 9, []uint16{0, 1, 3, 6, 8}
	return b
}

// manifestFor builds the manifest view of an encoding without decoding it:
// the ref section sits at a fixed offset, so the module table can be read
// off the bytes whether or not the rest of the blob is sound. Module 0 is a
// stranger, so ref slot i maps to module i+1 and a decoder that forgot to
// remap note targets is caught. level is the optimization level the manifest
// recorded, right or wrong; tweak bends the manifest away from the blob the
// other ways CheckBlob must notice: a module at another base, a ref short.
func manifestFor(enc []byte, level, tweak uint8) (*store.Manifest, store.TraceRef) {
	man := &store.Manifest{Modules: []store.Module{{Path: "stranger"}}}
	tr := store.TraceRef{OptLevel: level}
	if len(enc) >= 8 {
		n := int(binary.LittleEndian.Uint32(enc[4:]))
		for i := 0; i < n && i < 64 && 8+(i+1)*36 <= len(enc); i++ {
			e := enc[8+i*36:]
			mod := store.Module{Path: "m", Base: binary.LittleEndian.Uint32(e[32:])}
			copy(mod.Content[:], e)
			man.Modules = append(man.Modules, mod)
			tr.Refs = append(tr.Refs, int32(i+1))
		}
	}
	if tweak&1 != 0 && len(man.Modules) > 1 {
		man.Modules[1].Base += 0x1000
	}
	if tweak&2 != 0 && len(tr.Refs) > 0 {
		tr.Refs = tr.Refs[:len(tr.Refs)-1]
	}
	return man, tr
}

// viaBlob is the retained path: interchange form, manifest check, copy.
func viaBlob(enc []byte, man *store.Manifest, tr store.TraceRef) (*vm.Trace, error) {
	b, err := store.DecodeBlob(enc)
	if err != nil {
		return nil, err
	}
	if err := man.CheckBlob(tr, b); err != nil {
		return nil, err
	}
	return b.Materialize(tr.Refs)
}

// FuzzDecodeBlob holds the two blob decoders to their contract on arbitrary
// bytes. Blob encodings reach a process from pack files any local process
// may have written and from the remote tier. (1) DecodeBlob sizes every
// slice from bytes that are there: a count field the input cannot back
// reserves nothing. (2) What it accepts survives encode → decode unchanged.
// (3) The launch path's decode-to-trace accepts exactly what DecodeBlob +
// CheckBlob + Materialize accept, for a manifest that matches the blob and
// for ones that do not, and yields the same trace field for field. (4) The
// commit's encoder (AppendBlob, against the manifest's module table and the
// trace's ref slots, each of which manifestFor gives a module of its own)
// writes a trace decoded to trace back to exactly the input, at exactly
// BlobLen bytes: the two are inverses, and a trace read from a blob and
// written back by its address keeps that address. The corpus
// (testdata/fuzz/FuzzDecodeBlob) holds both encodings, a 20-byte header
// claiming 4 096 instructions, and one blob per rejection rule.
func FuzzDecodeBlob(f *testing.F) {
	f.Add(mkBlob(1, 4).Encode(), uint8(0), uint8(0))
	f.Add(optBlob(2).Encode(), uint8(1), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, level, tweak uint8) {
		b, err := store.DecodeBlob(data)
		if err == nil {
			held := cap(b.Refs)*36 + cap(b.Insts)*8 + cap(b.Ops)*24 + cap(b.Notes)*16 + cap(b.SrcIdx)*2
			if held > 2*len(data) {
				t.Fatalf("%d input bytes decoded into %d bytes of slices", len(data), held)
			}
			again, err := store.DecodeBlob(b.Encode())
			if err != nil || !reflect.DeepEqual(again, b) {
				t.Fatalf("decode(encode(b)) != b (err %v)\n got %+v\nwant %+v", err, again, b)
			}
		}

		man, tr := manifestFor(data, level, tweak)
		want, werr := viaBlob(data, man, tr)
		got, gerr := store.DecodeTrace(data, man, tr)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("level %d tweak %d: via Blob err = %v, decode-to-trace err = %v", level, tweak, werr, gerr)
		}
		if werr != nil {
			return
		}
		// Every exported field of a fresh trace, nil-ness of the slices
		// included (SrcIdx == nil is how an unoptimized trace says so).
		if !reflect.DeepEqual(*got, *want) {
			t.Fatalf("level %d tweak %d: decode-to-trace\n got %+v\nwant %+v", level, tweak, *got, *want)
		}
		if got.CodeBytes() != want.CodeBytes() || got.DataBytes() != want.DataBytes() {
			t.Fatalf("pool bytes differ: %d/%d vs %d/%d", got.CodeBytes(), got.DataBytes(), want.CodeBytes(), want.DataBytes())
		}

		mods := make([]store.Ref, len(man.Modules))
		for i, mod := range man.Modules {
			mods[i] = store.Ref{Content: mod.Content, Base: mod.Base}
		}
		if n := store.BlobLen(got, len(tr.Refs)); n != len(data) {
			t.Fatalf("BlobLen %d for a %d-byte encoding", n, len(data))
		}
		if again := store.AppendBlob(nil, got, mods, tr.Refs); !bytes.Equal(again, data) {
			t.Fatalf("the commit encoder writes the decoded trace as\n%x\nnot\n%x", again, data)
		}
	})
}
