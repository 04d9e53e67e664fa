package store

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"persistcc/internal/isa"
)

// testMembers returns n encodings of a few hundred bytes each, distinct for
// distinct seeds, and their hashes.
func testMembers(seed, n int) ([]Hash, [][]byte) {
	hashes := make([]Hash, n)
	encs := make([][]byte, n)
	for i := range encs {
		encs[i] = fmt.Appendf(nil, "member %d of seed %d:", i, seed)
		for j := 0; j < 40; j++ {
			encs[i] = fmt.Appendf(encs[i], " %d", (seed*7919+i*104729+j*j)%1000)
		}
		hashes[i] = Sum(encs[i])
	}
	return hashes, encs
}

// packRoundTrip writes one pack and inflates its stream back, checking
// every member against its index entry.
func packRoundTrip(t testing.TB, seed int) {
	hashes, encs := testMembers(seed, 4)
	_, ix, data := encodePack(hashes, encs)
	raw, err := inflate(data[indexLen(len(hashes)):], ix.rawLen())
	if err != nil {
		t.Errorf("seed %d: %v", seed, err)
		return
	}
	for i, h := range hashes {
		if Sum(raw[ix.offs[i]:ix.offs[i+1]]) != h {
			t.Errorf("seed %d: member %d does not re-hash to its index entry", seed, i)
		}
	}
}

// TestPackCodecsSurviveGC: a commit after a garbage collection reuses the
// deflater and inflater the last one used instead of building ~1.2 MB of
// compressor tables again.
func TestPackCodecsSurviveGC(t *testing.T) {
	packRoundTrip(t, 1)
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	packRoundTrip(t, 2)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 256<<10 {
		t.Fatalf("a pack round trip after two GCs allocated %d bytes; the codecs did not survive", n)
	}
}

// TestPackCodecsConcurrent: goroutines sharing the free lists never share a
// codec, so every stream inflates to exactly its own members.
func TestPackCodecsConcurrent(t *testing.T) {
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				packRoundTrip(t, w*rounds+r)
			}
		}()
	}
	wg.Wait()
}

// testPublication returns n distinct blob encodings of one module, their
// hashes, and the manifest that names each as a trace of that module.
func testPublication(n int) (*Manifest, []Hash, [][]byte) {
	mod := Module{Path: "m", Base: 0x40000000}
	mod.Content[0] = 1
	man := &Manifest{Modules: []Module{mod}}
	hashes := make([]Hash, n)
	encs := make([][]byte, n)
	for i := range encs {
		b := &Blob{Refs: []Ref{{Content: mod.Content, Base: mod.Base}}, ModOff: uint32(i) * 8}
		for j := 0; j < 24; j++ {
			b.Insts = append(b.Insts, isa.Inst{Op: isa.OpAddI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: int32(i*24 + j)})
		}
		encs[i] = b.Encode()
		hashes[i] = Sum(encs[i])
		man.Traces = append(man.Traces, TraceRef{Blob: hashes[i], Refs: []int32{0}})
	}
	return man, hashes, encs
}

// TestPutPacksStoresWhatEncodePacksBuilt: the packs a publication carries,
// split past packMaxRaw as a put splits its packs, land in a receiving store
// as the same files, byte for byte, and stay hot; receiving them again
// writes nothing, and a member the manifest does not reference is not
// stored. A publication one of whose members is not the blob its trace
// describes writes nothing at all.
func TestPutPacksStoresWhatEncodePacksBuilt(t *testing.T) {
	all, hashes, encs := testPublication(6000)
	files := EncodePacks(hashes, encs)
	if len(files) < 2 {
		t.Fatalf("%d members in %d pack, want them split", len(hashes), len(files))
	}
	moved := *all
	moved.Modules = []Module{all.Modules[0]}
	moved.Modules[0].Base += 0x1000
	refused := t.TempDir()
	rs, err := Open(refused, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.PutPacks(files, &moved); err == nil {
		t.Error("a publication whose blobs disagree with its module table was taken")
	}
	if packs, _ := filepath.Glob(filepath.Join(refused, "gen*", "*.pck")); len(packs) != 0 {
		t.Errorf("the refused publication wrote %d packs", len(packs))
	}
	dir := t.TempDir()
	s, err := Open(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	stored := func() map[string]bool {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(dir, "gen*", "*.pck"))
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]bool)
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			out[string(b)] = true
		}
		return out
	}
	for i := 0; i < 2; i++ {
		if err := s.PutPacks(files, all); err != nil {
			t.Fatal(err)
		}
		got := stored()
		if len(got) != len(files) {
			t.Fatalf("receive %d: the store holds %d packs, want the %d sent", i+1, len(got), len(files))
		}
		for j, f := range files {
			if !got[string(f)] {
				t.Errorf("receive %d: sent pack %d is not among the stored files", i+1, j)
			}
		}
	}
	if hot := HotPacks(s); len(hot) != len(files) {
		t.Errorf("%d packs hot, want the %d written", len(hot), len(files))
	}

	fresh, err := Open(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.PutPacks(files, &Manifest{Modules: all.Modules, Traces: all.Traces[1:]}); err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.SizeOf(hashes[0]); ok {
		t.Error("a member the manifest does not reference was stored")
	}
	if _, ok := fresh.SizeOf(hashes[1]); !ok {
		t.Error("a referenced member was not stored")
	}
}

// TestPackIndexRejectsListedTwice: an index that lists a hash twice is
// refused, wherever the two entries sit and whether or not other hashes
// share its first eight bytes; distinct hashes that share them are not.
func TestPackIndexRejectsListedTwice(t *testing.T) {
	hashes, encs := testMembers(1, 1000)
	near := hashes[5] // the first eight bytes of hashes[5], then other bytes
	near[31] ^= 0xff
	cases := []struct {
		name  string
		order []int // indices into hashes; -1 is near
		twice int   // the index listed twice, or -1
	}{
		{"distinct", []int{0, 1, 2, 3}, -1},
		{"adjacent", []int{0, 1, 1, 2}, 1},
		{"apart", []int{7, 0, 1, 2, 3, 4, 7}, 7},
		{"prefix shared, hashes differ", []int{5, 0, -1, 1}, -1},
		{"prefix shared, listed twice", []int{5, -1, 0, 5}, 5},
		{"thousand distinct", seq(1000), -1},
		{"thousand, first and last alike", append(seq(999), 0), 0},
	}
	for _, c := range cases {
		hs, es := make([]Hash, len(c.order)), make([][]byte, len(c.order))
		for i, k := range c.order {
			if k < 0 {
				hs[i], es[i] = near, encs[5]
			} else {
				hs[i], es[i] = hashes[k], encs[k]
			}
		}
		_, _, data := encodePack(hs, es)
		ix, err := parsePackIndex(data[:indexLen(len(hs))])
		if c.twice < 0 {
			if err != nil || len(ix.hashes) != len(hs) {
				t.Errorf("%s: %v, want the index accepted", c.name, err)
			}
			continue
		}
		want := fmt.Sprintf("store: pack lists %s twice", hashes[c.twice])
		if err == nil || err.Error() != want {
			t.Errorf("%s: %v, want %q", c.name, err, want)
		}
		if _, err := DecodePack(data); err == nil {
			t.Errorf("%s: DecodePack accepts the pack", c.name)
		}
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
