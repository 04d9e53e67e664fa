package store_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"persistcc/internal/isa"
	"persistcc/internal/obj"
	"persistcc/internal/store"
	"persistcc/internal/vm"
)

// mkBlob builds a distinct, decodable blob: seed varies the module content
// key (and therefore the hash), n sizes the instruction body.
func mkBlob(seed byte, n int) *store.Blob {
	ref := store.Ref{Base: 0x40000000}
	ref.Content[0] = seed
	b := &store.Blob{Refs: []store.Ref{ref}, ModOff: 0x40}
	for i := 0; i < n; i++ {
		b.Insts = append(b.Insts, isa.Inst{Op: isa.OpAddI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: int32(i + 1)})
	}
	b.Insts = append(b.Insts, isa.Inst{Op: isa.OpJalr, Rd: isa.RegZero, Rs1: isa.RegRA})
	b.Ops = append(b.Ops, vm.AnalysisOp{Pos: 0, Kind: vm.OpKindCount, Arg: 7, Cost: 1})
	b.Notes = append(b.Notes, vm.RelocNote{InstIdx: 0, Type: obj.RelPC32, Target: 0, TargetOff: 0x40})
	return b
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBlobRoundTrip(t *testing.T) {
	b := mkBlob(1, 5)
	enc := b.Encode()
	h := store.Sum(enc)
	if b.Hash() != h {
		t.Fatal("Hash() disagrees with Sum(Encode())")
	}
	got, err := store.DecodeBlob(enc)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Encode()) != string(enc) {
		t.Fatal("decode/re-encode is not the identity")
	}
	// Materialize maps blob-local ref slots back to module-table indices
	// and derives the start address from ref 0.
	tr, err := got.Materialize([]int32{3})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Module != 3 || tr.Start != 0x40000040 || tr.ModOff != 0x40 {
		t.Fatalf("materialized trace: module %d start %#x modoff %#x", tr.Module, tr.Start, tr.ModOff)
	}
	if len(tr.Notes) != 1 || tr.Notes[0].Target != 3 {
		t.Fatalf("materialized notes not remapped: %+v", tr.Notes)
	}
	if _, err := got.Materialize([]int32{1, 2}); err == nil {
		t.Fatal("materialize accepted a wrong-arity module mapping")
	}
}

func TestDecodeBlobRejectsCorruption(t *testing.T) {
	enc := mkBlob(2, 3).Encode()
	if _, err := store.DecodeBlob(enc[:len(enc)-4]); err == nil {
		t.Error("truncated blob decoded")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, err := store.DecodeBlob(bad); err == nil {
		t.Error("bad magic decoded")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &store.Manifest{AppPath: "app.vxe", CodePool: 123, DataPool: 456}
	m.AppKey[0], m.VMKey[0], m.ToolKey[0] = 1, 2, 3
	mod := store.Module{Path: "libwork.so", Base: 0x40000000, Size: 0x1000, MTime: 42}
	mod.Content[0] = 9
	m.Modules = []store.Module{mod}
	b := mkBlob(9, 2)
	m.Traces = []store.TraceRef{{Blob: b.Hash(), Refs: []int32{0}}}

	enc := m.Encode()
	if m.EncodedBytes != uint64(len(enc)) {
		t.Errorf("EncodedBytes %d, want %d", m.EncodedBytes, len(enc))
	}
	got, err := store.DecodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.AppPath != m.AppPath || len(got.Modules) != 1 || len(got.Traces) != 1 || got.Traces[0].Blob != b.Hash() {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if hs := got.BlobHashes(); len(hs) != 1 || hs[0] != b.Hash() {
		t.Fatalf("BlobHashes: %v", hs)
	}
	// CheckBlob accepts the matching blob and rejects a placement mismatch.
	if err := got.CheckBlob(got.Traces[0], b); err != nil {
		t.Errorf("CheckBlob rejected the written blob: %v", err)
	}
	other := mkBlob(9, 2)
	other.Refs[0].Base++
	if err := got.CheckBlob(got.Traces[0], other); err == nil {
		t.Error("CheckBlob accepted a blob translated at a different base")
	}
	// Flip one payload byte: the integrity trailer must catch it.
	bad := append([]byte(nil), enc...)
	bad[8] ^= 0x01
	if _, err := store.DecodeManifest(bad); err == nil {
		t.Error("corrupt manifest decoded")
	}
}

func TestPutAllDedup(t *testing.T) {
	s := openStore(t, t.TempDir())
	a, b := mkBlob(1, 4), mkBlob(2, 4)
	rep, hashes, err := s.PutAll([]*store.Blob{a, b, a})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Added != 2 || rep.Deduped != 1 {
		t.Fatalf("added %d deduped %d, want 2/1", rep.Added, rep.Deduped)
	}
	if len(hashes) != 3 || hashes[0] != a.Hash() || hashes[2] != a.Hash() {
		t.Fatalf("hashes: %v", hashes)
	}
	if rep.DedupBytes != uint64(len(a.Encode())) {
		t.Errorf("dedup bytes %d, want %d", rep.DedupBytes, len(a.Encode()))
	}
	// A second batch with the same content writes nothing new.
	rep2, _, err := s.PutAll([]*store.Blob{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Added != 0 || rep2.Deduped != 2 {
		t.Fatalf("second batch added %d deduped %d, want 0/2", rep2.Added, rep2.Deduped)
	}
	st := s.Stats()
	if st.Blobs != 2 {
		t.Fatalf("store holds %d blobs, want 2", st.Blobs)
	}
	got, err := s.Get(a.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Encode()) != string(a.Encode()) {
		t.Fatal("stored blob differs from the original")
	}
}

func TestGetQuarantinesCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	b := mkBlob(3, 4)
	if _, _, err := s.PutAll([]*store.Blob{b}); err != nil {
		t.Fatal(err)
	}
	// Flip a byte on disk: content no longer hashes to its name.
	path := filepath.Join(dir, "gen0000", b.Hash().Hex()+".pcb")
	enc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	enc[len(enc)-1] ^= 0xff
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(b.Hash()); !errors.Is(err, store.ErrBlobCorrupt) {
		t.Fatalf("want ErrBlobCorrupt, got %v", err)
	}
	// The corrupt file moved to quarantine; the hash is now a clean miss.
	if _, err := os.Stat(filepath.Join(dir, "quarantine", b.Hash().Hex()+".pcb")); err != nil {
		t.Errorf("corrupt blob not quarantined: %v", err)
	}
	if _, err := s.Get(b.Hash()); !errors.Is(err, store.ErrBlobMissing) {
		t.Fatalf("want ErrBlobMissing after quarantine, got %v", err)
	}
	// And the content can be rewritten cleanly.
	if _, _, err := s.PutAll([]*store.Blob{b}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(b.Hash()); err != nil {
		t.Fatalf("rewrite after quarantine not served: %v", err)
	}
}

func TestRecoverScrubsBlobsAndTemps(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	a, b := mkBlob(4, 4), mkBlob(5, 6)
	if _, _, err := s.PutAll([]*store.Blob{a, b}); err != nil {
		t.Fatal(err)
	}
	// Corrupt one blob and leave temp debris: the scrub quarantines the
	// bad blob and sweeps the temps.
	path := filepath.Join(dir, "gen0000", a.Hash().Hex()+".pcb")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tmp := range []string{"x.tmp", filepath.Join("gen0000", "y.pcb.1.1.tmp")} {
		if err := os.WriteFile(filepath.Join(dir, tmp), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blobs != 1 || rep.Quarantined != 1 || rep.TmpRemoved != 2 {
		t.Fatalf("recover: %+v, want 1 blob, 1 quarantined, 2 tmp removed", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", a.Hash().Hex()+".pcb")); err != nil {
		t.Errorf("corrupt blob not quarantined: %v", err)
	}
	if _, err := s.Get(b.Hash()); err != nil {
		t.Errorf("surviving blob unreadable after recover: %v", err)
	}
	if _, err := s.Get(a.Hash()); err == nil {
		t.Error("corrupt blob still served after recover")
	}
	// A fresh Open serves the surviving blob straight from the directory.
	s2 := openStore(t, dir)
	if _, err := s2.Get(b.Hash()); err != nil {
		t.Errorf("reopen lost the surviving blob: %v", err)
	}
	if st := s2.Stats(); st.Blobs != 1 {
		t.Fatalf("reopen counts %d blobs, want 1", st.Blobs)
	}
}

// TestOpenAndRecoverSpareLiveTemp: a peer between its sync and its rename
// owns a fresh temp in the shared directory. Neither Open nor a Recover
// within the staleness bound may touch it, or the peer's rename fails.
func TestOpenAndRecoverSpareLiveTemp(t *testing.T) {
	dir := t.TempDir()
	b := mkBlob(14, 4)
	gen := filepath.Join(dir, "gen0000")
	if err := os.MkdirAll(gen, 0o755); err != nil {
		t.Fatal(err)
	}
	final := filepath.Join(gen, b.Hash().Hex()+".pcb")
	tmp := final + ".4242.1.tmp"
	if err := os.WriteFile(tmp, b.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir)
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 1 {
		t.Fatalf("Open wrote into the store root: %v", names)
	}
	rep, err := s.Recover(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TmpRemoved != 0 {
		t.Fatalf("recover swept %d temps younger than the staleness bound", rep.TmpRemoved)
	}
	if err := os.Rename(tmp, final); err != nil {
		t.Fatalf("peer's rename failed after Open+Recover: %v", err)
	}
	if _, err := s.Get(b.Hash()); err != nil {
		t.Errorf("peer's blob not served once published: %v", err)
	}
}

func TestCompactPrunesOrphans(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	kept, orphan := mkBlob(6, 8), mkBlob(8, 4)
	if _, _, err := s.PutAll([]*store.Blob{kept, orphan}); err != nil {
		t.Fatal(err)
	}
	live := map[store.Hash]bool{kept.Hash(): true}
	rep, err := s.Compact(live)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrunedOrphans != 1 || rep.ReclaimedBytes == 0 {
		t.Fatalf("compact: %+v, want 1 orphan and its bytes reclaimed", rep)
	}
	if _, err := s.Get(kept.Hash()); err != nil {
		t.Errorf("live blob lost by compaction: %v", err)
	}
	if s.Has(orphan.Hash()) {
		t.Error("pruned blob still resident")
	}
	// Live blobs are not moved, and a second run finds nothing to do.
	if _, err := os.Stat(filepath.Join(dir, "gen0000", kept.Hash().Hex()+".pcb")); err != nil {
		t.Errorf("live blob moved by compaction: %v", err)
	}
	if rep, err := s.Compact(live); err != nil || rep.PrunedOrphans != 0 {
		t.Fatalf("second compact: %+v, %v; want a no-op", rep, err)
	}
	if st := s.Stats(); st.Blobs != 1 {
		t.Fatalf("stats after compact: %+v", st)
	}
}

// TestOlderGenerationsStayReadable: a store an earlier version compacted
// keeps blobs in several generations; lookups search them all and new
// blobs join the newest.
func TestOlderGenerationsStayReadable(t *testing.T) {
	dir := t.TempDir()
	old, older, fresh := mkBlob(17, 3), mkBlob(18, 3), mkBlob(19, 3)
	for gen, b := range map[string]*store.Blob{"gen0000": older, "gen0002": old} {
		if err := os.MkdirAll(filepath.Join(dir, gen), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, gen, b.Hash().Hex()+".pcb"), b.Encode(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openStore(t, dir)
	rep, _, err := s.PutAll([]*store.Blob{old, older, fresh})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Added != 1 || rep.Deduped != 2 {
		t.Fatalf("added %d deduped %d, want 1/2", rep.Added, rep.Deduped)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen0002", fresh.Hash().Hex()+".pcb")); err != nil {
		t.Errorf("new blob not in the newest generation: %v", err)
	}
	for _, b := range []*store.Blob{old, older, fresh} {
		if _, err := s.Get(b.Hash()); err != nil {
			t.Errorf("blob %s: %v", b.Hash(), err)
		}
	}
	if st := s.Stats(); st.Gen != 2 || st.Blobs != 3 || st.Generations != 2 {
		t.Fatalf("stats: %+v, want gen 2, 3 blobs, 2 generations", st)
	}
}

// fakeRemote is an in-memory L3 that counts round trips.
type fakeRemote struct {
	blobs map[store.Hash][]byte
	calls int
}

func (f *fakeRemote) FetchBlobs(hashes []store.Hash) (map[store.Hash][]byte, error) {
	f.calls++
	out := make(map[store.Hash][]byte)
	for _, h := range hashes {
		if b, ok := f.blobs[h]; ok {
			out[h] = b
		}
	}
	return out, nil
}

func TestTieredWriteThrough(t *testing.T) {
	s := openStore(t, t.TempDir())
	local, remote := mkBlob(10, 3), mkBlob(11, 3)
	if _, _, err := s.PutAll([]*store.Blob{local}); err != nil {
		t.Fatal(err)
	}
	fr := &fakeRemote{blobs: map[store.Hash][]byte{remote.Hash(): remote.Encode()}}
	tiers := &store.Tiered{Store: s, Remote: fr}

	absent := mkBlob(12, 3).Hash()
	got, err := tiers.GetAll([]store.Hash{local.Hash(), remote.Hash(), absent})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("resolved %d of 2 resolvable hashes", len(got))
	}
	if fr.calls != 1 {
		t.Fatalf("remote called %d times, want 1 batched trip", fr.calls)
	}
	// The fetched blob was written through to L2: the next lookup is local.
	if !s.Has(remote.Hash()) {
		t.Fatal("remote blob not written through to the local store")
	}
	if _, err := tiers.Get(remote.Hash()); err != nil {
		t.Fatal(err)
	}
	if fr.calls != 1 {
		t.Fatalf("write-through did not stick: %d remote trips", fr.calls)
	}
	// A remote serving corrupt bytes is skipped, not installed.
	junk := mkBlob(13, 3)
	fr.blobs[junk.Hash()] = []byte("not a blob")
	if got, _ := tiers.GetAll([]store.Hash{junk.Hash()}); len(got) != 0 {
		t.Error("corrupt remote bytes were installed")
	}
	if s.Has(junk.Hash()) {
		t.Error("corrupt remote bytes reached the local store")
	}
}
