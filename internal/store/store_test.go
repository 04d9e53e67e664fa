package store_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"persistcc/internal/fsx"
	"persistcc/internal/isa"
	"persistcc/internal/metrics"
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
	if cap(enc) != len(enc) {
		t.Errorf("a %d-byte blob encoded into a %d-byte buffer", len(enc), cap(enc))
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
	if cap(enc) != len(enc) {
		t.Errorf("a %d-byte manifest encoded into a %d-byte buffer", len(enc), cap(enc))
	}
	got, err := store.DecodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.AppPath != m.AppPath || len(got.Modules) != 1 || len(got.Traces) != 1 || got.Traces[0].Blob != b.Hash() {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.EncodedBytes != uint64(len(enc)) {
		t.Errorf("decoded EncodedBytes %d, want %d", got.EncodedBytes, len(enc))
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

// storeFiles lists what one kind of file the store holds, across
// generations.
func storeFiles(t *testing.T, dir, ext string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "gen*", "*"+ext))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// writeLoose plants a blob the way earlier versions stored it: one file
// named by its hash (here with the encoding uncompressed, which they wrote
// whenever deflating did not shrink it).
func writeLoose(t *testing.T, dir, gen string, b *store.Blob) string {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, gen), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, gen, b.Hash().Hex()+".pcb")
	if err := os.WriteFile(path, b.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPutAllDedup(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
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
	// The batch is one pack, and its size is what the report calls written.
	packs := storeFiles(t, dir, ".pck")
	if len(packs) != 1 || len(storeFiles(t, dir, "")) != 1 {
		t.Fatalf("one PutAll left %v in the store, want one pack and nothing else", storeFiles(t, dir, ""))
	}
	if fi, _ := os.Stat(packs[0]); uint64(fi.Size()) != rep.AddedBytes {
		t.Errorf("pack is %d bytes, report says %d written", fi.Size(), rep.AddedBytes)
	}
	// A second batch with the same content writes nothing new.
	rep2, _, err := s.PutAll([]*store.Blob{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Added != 0 || rep2.Deduped != 2 || len(storeFiles(t, dir, "")) != 1 {
		t.Fatalf("second batch added %d deduped %d, want 0/2 and no new file", rep2.Added, rep2.Deduped)
	}
	st := s.Stats()
	if st.Blobs != 2 || st.Packs != 1 || st.LooseBlobs != 0 || st.BlobBytes != rep.AddedBytes {
		t.Fatalf("stats %+v, want 2 blobs in 1 pack of %d bytes", st, rep.AddedBytes)
	}
	for _, st := range []*store.Store{s, openStore(t, dir)} {
		got, err := st.Get(a.Hash())
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Encode()) != string(a.Encode()) {
			t.Fatal("stored blob differs from the original")
		}
		if n, ok := st.SizeOf(b.Hash()); !ok || n != uint64(len(b.Encode())) {
			t.Errorf("SizeOf = %d, %t; want the encoded length %d", n, ok, len(b.Encode()))
		}
	}
}

// TestPacksAreContentNamedAndBounded: the same blobs in the same order
// make the same file whoever writes them, and a batch larger than the pack
// bound is split.
func TestPacksAreContentNamedAndBounded(t *testing.T) {
	var blobs []*store.Blob
	raw := 0
	for seed := byte(0); seed < 40; seed++ { // ~32 KB each: past the 1 MiB pack bound
		blobs = append(blobs, mkBlob(seed, 4000))
		raw += len(blobs[seed].Encode())
	}
	var names [2][]string
	for i := range names {
		dir := t.TempDir()
		s := openStore(t, dir)
		rep, hashes, err := s.PutAll(blobs)
		if err != nil || rep.Added != len(blobs) {
			t.Fatalf("PutAll: %+v, %v", rep, err)
		}
		for _, p := range storeFiles(t, dir, ".pck") {
			fi, _ := os.Stat(p)
			names[i] = append(names[i], fmt.Sprint(filepath.Base(p), " ", fi.Size()))
		}
		if len(names[i]) != 2 {
			t.Fatalf("%d raw bytes landed in %d packs, want 2", raw, len(names[i]))
		}
		fresh := openStore(t, dir)
		for j, h := range hashes {
			if got, err := fresh.Get(h); err != nil || got.Hash() != blobs[j].Hash() {
				t.Fatalf("blob %d after reopen: %v", j, err)
			}
		}
	}
	if fmt.Sprint(names[0]) != fmt.Sprint(names[1]) {
		t.Errorf("two fresh stores disagree on pack names or sizes:\n%v\n%v", names[0], names[1])
	}
}

func TestGetQuarantinesCorruptPack(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	a, b := mkBlob(3, 4), mkBlob(4, 40)
	if _, _, err := s.PutAll([]*store.Blob{a, b}); err != nil {
		t.Fatal(err)
	}
	// Flip a byte of the stream on disk: some member no longer hashes to
	// its index entry (or the stream no longer inflates).
	path := storeFiles(t, dir, ".pck")[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-8] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s = openStore(t, dir) // nothing inflated yet
	_, errA := s.Get(a.Hash())
	_, errB := s.Get(b.Hash())
	if !errors.Is(errA, store.ErrBlobCorrupt) && !errors.Is(errB, store.ErrBlobCorrupt) {
		t.Fatalf("want ErrBlobCorrupt from one of the members, got %v and %v", errA, errB)
	}
	// The pack moved to quarantine whole; both hashes are now clean misses.
	if _, err := os.Stat(filepath.Join(dir, "quarantine", filepath.Base(path))); err != nil {
		t.Errorf("corrupt pack not quarantined: %v", err)
	}
	for _, h := range []store.Hash{a.Hash(), b.Hash()} {
		if _, err := s.Get(h); !errors.Is(err, store.ErrBlobMissing) {
			t.Fatalf("want ErrBlobMissing after quarantine, got %v", err)
		}
	}
	// And the content can be rewritten cleanly.
	if rep, _, err := s.PutAll([]*store.Blob{a, b}); err != nil || rep.Added != 2 {
		t.Fatalf("rewrite after quarantine: %+v, %v", rep, err)
	}
	if _, err := s.Get(a.Hash()); err != nil {
		t.Fatalf("rewrite after quarantine not served: %v", err)
	}
}

func TestRecoverScrubsPacksBlobsAndTemps(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	a, b, c := mkBlob(4, 4), mkBlob(5, 6), mkBlob(6, 6)
	for _, batch := range [][]*store.Blob{{a}, {b, c}} {
		if _, _, err := s.PutAll(batch); err != nil {
			t.Fatal(err)
		}
	}
	loose := writeLoose(t, dir, "gen0000", mkBlob(7, 4))
	// Corrupt a's pack and the loose blob, and leave temp debris: the scrub
	// quarantines the bad files and sweeps the temps.
	var aPack string
	for _, p := range storeFiles(t, dir, ".pck") {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if pk, err := store.DecodePack(data); err != nil {
			t.Fatal(err)
		} else if len(pk.Hashes) == 1 {
			aPack = p
		}
	}
	for _, p := range []string{aPack, loose} {
		if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tmp := range []string{"x.tmp", filepath.Join("gen0000", "y.pck.1.1.tmp")} {
		if err := os.WriteFile(filepath.Join(dir, tmp), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blobs != 2 || rep.Quarantined != 2 || rep.TmpRemoved != 2 {
		t.Fatalf("recover: %+v, want 2 blobs, 2 quarantined, 2 tmp removed", rep)
	}
	for _, p := range []string{aPack, loose} {
		if _, err := os.Stat(filepath.Join(dir, "quarantine", filepath.Base(p))); err != nil {
			t.Errorf("corrupt file not quarantined: %v", err)
		}
	}
	// The same store and a fresh Open both serve exactly what survived.
	for _, st := range []*store.Store{s, openStore(t, dir)} {
		if _, err := st.Get(b.Hash()); err != nil {
			t.Errorf("surviving blob unreadable after recover: %v", err)
		}
		if _, err := st.Get(a.Hash()); err == nil {
			t.Error("corrupt blob still served after recover")
		}
		if stats := st.Stats(); stats.Blobs != 2 || stats.Packs != 1 {
			t.Fatalf("stats after recover: %+v, want 2 blobs in 1 pack", stats)
		}
	}
}

// TestOpenAndRecoverSpareLiveTemp: a peer between its sync and its rename
// owns a fresh temp in the shared directory. Neither Open nor a Recover
// within the staleness bound may touch it, or the peer's rename fails.
func TestOpenAndRecoverSpareLiveTemp(t *testing.T) {
	// The peer's finished pack, to be replayed as its in-flight temp.
	peerDir := t.TempDir()
	b := mkBlob(14, 4)
	if _, _, err := openStore(t, peerDir).PutAll([]*store.Blob{b}); err != nil {
		t.Fatal(err)
	}
	pack := storeFiles(t, peerDir, ".pck")[0]
	data, err := os.ReadFile(pack)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	gen := filepath.Join(dir, "gen0000")
	if err := os.MkdirAll(gen, 0o755); err != nil {
		t.Fatal(err)
	}
	final := filepath.Join(gen, filepath.Base(pack))
	tmps := []string{final + ".4242.1.tmp", filepath.Join(gen, b.Hash().Hex()+".pcb.4242.2.tmp")}
	for _, tmp := range tmps { // a pack temp, and an older version's blob temp
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openStore(t, dir)
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 1 {
		t.Fatalf("Open wrote into the store root: %v", names)
	}
	if len(s.Missing(manifestOver(b), nil)) != 1 {
		t.Fatal("a temp's content is addressable before its rename")
	}
	rep, err := s.Recover(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TmpRemoved != 0 {
		t.Fatalf("recover swept %d temps younger than the staleness bound", rep.TmpRemoved)
	}
	if err := os.Rename(tmps[0], final); err != nil {
		t.Fatalf("peer's rename failed after Open+Recover: %v", err)
	}
	if _, err := s.Get(b.Hash()); err != nil {
		t.Errorf("peer's pack not served once published: %v", err)
	}
}

// TestReloadOnMiss: a store opened before a peer's commit finds the peer's
// pack when it meets a hash it does not know — listing the pack names once
// per call, however many hashes are unknown.
func TestReloadOnMiss(t *testing.T) {
	dir := t.TempDir()
	inj := fsx.NewInject(nil)
	early, err := store.Open(dir, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	var blobs []*store.Blob
	for seed := byte(0); seed < 20; seed++ {
		blobs = append(blobs, mkBlob(seed, 3))
	}
	if _, _, err := openStore(t, dir).PutAll(blobs[:10]); err != nil {
		t.Fatal(err)
	}
	listings := func() (n int) {
		for _, op := range inj.Ops() {
			if op.Op == fsx.OpGlob && strings.HasSuffix(op.Path, string(filepath.Separator)+"*.pck") {
				n++
			}
		}
		return n
	}
	inj.StartRecording()
	var unwritten []store.Hash
	for _, b := range blobs[10:] {
		unwritten = append(unwritten, b.Hash())
	}
	if missing := early.Missing(manifestOver(blobs...), nil); !slices.Equal(missing, unwritten) {
		t.Fatalf("missed %d hashes; want the 10 the peer did not write", len(missing))
	}
	if n := listings(); n != 1 {
		t.Errorf("Missing with 20 unknown hashes listed the packs %d times, want 1", n)
	}
	// The peer's pack, found by that listing, now reads through the one
	// path without another.
	inj.StartRecording()
	if trs, err := early.LocalTraces(manifestOver(blobs[:10]...), nil); err != nil || len(trs) != 10 {
		t.Fatalf("LocalTraces over the peer's blobs: %d traces, %v", len(trs), err)
	}
	if n := listings(); n != 0 {
		t.Errorf("reading the indexed peer pack listed the packs %d times, want 0", n)
	}
	// A put of known, peer-written and new blobs dedups against the peer's
	// pack found above, and lists once more for the ones still unknown.
	inj.StartRecording()
	rep, _, err := early.PutAll(blobs[5:15])
	if err != nil || rep.Deduped != 5 || rep.Added != 5 {
		t.Fatalf("PutAll: %+v, %v; want 5 deduped against the peer's pack, 5 added", rep, err)
	}
	if n := listings(); n != 1 {
		t.Errorf("PutAll with 5 unknown hashes listed the packs %d times, want 1", n)
	}
}

func TestCompactPrunesOrphans(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	kept, orphan, dead1, dead2 := mkBlob(6, 8), mkBlob(8, 4), mkBlob(9, 4), mkBlob(10, 4)
	for _, batch := range [][]*store.Blob{{kept, orphan}, {dead1, dead2}} {
		if _, _, err := s.PutAll(batch); err != nil {
			t.Fatal(err)
		}
	}
	reader := openStore(t, dir) // a peer that indexed the packs before they move
	before := s.Stats().BlobBytes
	live := map[store.Hash]bool{kept.Hash(): true}
	rep, err := s.Compact(live)
	if err != nil {
		t.Fatal(err)
	}
	// The all-dead pack is removed; the mixed pack is rewritten as a pack of
	// its one live blob.
	after := s.Stats()
	if rep.PrunedOrphans != 3 || rep.ReclaimedBytes != before-after.BlobBytes {
		t.Fatalf("compact: %+v, want 3 orphans and the %d bytes the store shrank by", rep, before-after.BlobBytes)
	}
	if after.Blobs != 1 || after.Packs != 1 || after.LooseBlobs != 0 {
		t.Fatalf("stats after compact: %+v, want 1 blob in 1 pack", after)
	}
	for _, st := range []*store.Store{s, reader, openStore(t, dir)} {
		if _, err := st.Get(kept.Hash()); err != nil {
			t.Errorf("live blob lost by compaction: %v", err)
		}
		// (The peer still has the removed packs indexed: it learns they
		// are gone when it reads from them.)
		_, errOrphan := st.Get(orphan.Hash())
		_, errDead := st.Get(dead1.Hash())
		if !errors.Is(errOrphan, store.ErrBlobMissing) || !errors.Is(errDead, store.ErrBlobMissing) || len(st.Missing(manifestOver(orphan), nil)) != 1 {
			t.Errorf("pruned blobs still served: %v, %v", errOrphan, errDead)
		}
	}
	// A second run finds nothing to do and touches nothing.
	names := fmt.Sprint(storeFiles(t, dir, ""))
	if rep, err := s.Compact(live); err != nil || rep.PrunedOrphans != 0 {
		t.Fatalf("second compact: %+v, %v; want a no-op", rep, err)
	}
	if got := fmt.Sprint(storeFiles(t, dir, "")); got != names {
		t.Errorf("second compact changed the store: %s, was %s", got, names)
	}
}

// TestStatsForgetsPacksAPeerDeleted: a pack a peer compacts away after
// this store indexed it leaves the stats — its blobs included — as it
// leaves a read.
func TestStatsForgetsPacksAPeerDeleted(t *testing.T) {
	dir := t.TempDir()
	s, peer := openStore(t, dir), openStore(t, dir)
	if _, _, err := peer.PutAll([]*store.Blob{mkBlob(60, 3), mkBlob(61, 3)}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Blobs != 2 || st.Packs != 1 {
		t.Fatalf("stats after the peer's put: %+v, want 2 blobs in 1 pack", st)
	}
	if _, err := peer.Compact(nil); err != nil {
		t.Fatal(err)
	}
	want := openStore(t, dir).Stats()
	if st := s.Stats(); st != want || st.Blobs != 0 || st.Packs != 0 || st.BlobBytes != 0 {
		t.Errorf("stats after the peer compacted the pack away: %+v, want those of a fresh store: %+v", st, want)
	}
}

// TestCompactInterruptedLeavesDuplicatesNotLosses: a crash between writing
// the repacked live blobs and removing the pack they came from leaves them
// in two packs; the next run removes the old one.
func TestCompactInterruptedLeavesDuplicatesNotLosses(t *testing.T) {
	dir := t.TempDir()
	kept, orphan := mkBlob(6, 8), mkBlob(8, 4)
	if _, _, err := openStore(t, dir).PutAll([]*store.Blob{kept, orphan}); err != nil {
		t.Fatal(err)
	}
	live := map[store.Hash]bool{kept.Hash(): true}
	inj := fsx.NewInject(nil)
	inj.CrashAt(fsx.OpRemove, ".pck", 1)
	s, err := store.Open(dir, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Compact(live)
	if !inj.Crashed() || len(storeFiles(t, dir, ".pck")) != 2 {
		t.Fatalf("crash at the pack removal left %v, want the old and the new pack", storeFiles(t, dir, ".pck"))
	}
	s = openStore(t, dir)
	if _, err := s.Get(kept.Hash()); err != nil {
		t.Fatalf("live blob after the crash: %v", err)
	}
	rep, err := s.Compact(live)
	if err != nil || rep.PrunedOrphans != 1 || len(storeFiles(t, dir, ".pck")) != 1 {
		t.Fatalf("compact after the crash: %+v, %v, packs %v", rep, err, storeFiles(t, dir, ".pck"))
	}
	for _, st := range []*store.Store{s, openStore(t, dir)} {
		if _, err := st.Get(kept.Hash()); err != nil {
			t.Errorf("live blob lost: %v", err)
		}
	}
}

// TestOlderGenerationsStayReadable: a store an earlier version compacted
// keeps blobs in several generations; lookups search them all and new
// packs join the newest.
func TestOlderGenerationsStayReadable(t *testing.T) {
	dir := t.TempDir()
	old, older, fresh := mkBlob(17, 3), mkBlob(18, 3), mkBlob(19, 3)
	writePackIn(t, dir, "gen0000", older)
	writePackIn(t, dir, "gen0002", old)
	s := openStore(t, dir)
	rep, _, err := s.PutAll([]*store.Blob{old, older, fresh})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Added != 1 || rep.Deduped != 2 {
		t.Fatalf("added %d deduped %d, want 1/2", rep.Added, rep.Deduped)
	}
	if packs := storeFiles(t, dir, ".pck"); len(packs) != 3 || filepath.Base(filepath.Dir(packs[2])) != "gen0002" {
		t.Errorf("new pack not in the newest generation: %v", packs)
	}
	for _, st := range []*store.Store{s, openStore(t, dir)} {
		for _, b := range []*store.Blob{old, older, fresh} {
			if _, err := st.Get(b.Hash()); err != nil {
				t.Errorf("blob %s: %v", b.Hash(), err)
			}
		}
		if stats := st.Stats(); stats.Gen != 2 || stats.Blobs != 3 || stats.Generations != 2 {
			t.Fatalf("stats: %+v, want gen 2, 3 blobs, 2 generations", stats)
		}
	}
}

// writePackIn publishes a pack holding b in generation gen of the store at
// dir, as a store whose newest generation that was would have.
func writePackIn(t *testing.T, dir, gen string, b *store.Blob) {
	t.Helper()
	scratch := t.TempDir()
	if _, _, err := openStore(t, scratch).PutAll([]*store.Blob{b}); err != nil {
		t.Fatal(err)
	}
	pack := storeFiles(t, scratch, ".pck")[0]
	data, err := os.ReadFile(pack)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, gen), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, gen, filepath.Base(pack)), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// fakeRemote is another machine's store serving whole pack files, as a
// daemon answers FETCHPACKS, and counting round trips.
type fakeRemote struct {
	s     *store.Store
	calls int
}

func newFakeRemote(t *testing.T, blobs ...*store.Blob) *fakeRemote {
	t.Helper()
	s := openStore(t, t.TempDir())
	if _, _, err := s.PutAll(blobs); err != nil {
		t.Fatal(err)
	}
	return &fakeRemote{s: s}
}

func (f *fakeRemote) packs(hashes []store.Hash) [][]byte {
	f.calls++
	return f.s.PackFiles(hashes, 1<<30)
}

// TestAdoptedPacksWriteThrough: the blobs a store is missing arrive as the
// remote's pack files in one batched trip and are written through whole,
// so the next lookup is local; a pack that fails verification is refused
// and nothing of it reaches the store.
func TestAdoptedPacksWriteThrough(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	local, remote := mkBlob(10, 3), mkBlob(11, 3)
	if _, _, err := s.PutAll([]*store.Blob{local}); err != nil {
		t.Fatal(err)
	}
	fr := newFakeRemote(t, remote)
	fetch := func(man *store.Manifest) {
		t.Helper()
		if missing := s.Missing(man, nil); len(missing) > 0 {
			if err := s.AdoptPacks(fr.packs(missing)); err != nil {
				t.Fatal(err)
			}
		}
	}

	absent := mkBlob(12, 3)
	all := manifestOver(local, remote, absent)
	if missing := s.Missing(all, nil); len(missing) != 2 {
		t.Fatalf("missing %d of the 3 hashes, want the 2 not stored locally", len(missing))
	}
	fetch(all)
	if missing := s.Missing(all, nil); len(missing) != 1 || missing[0] != absent.Hash() {
		t.Fatalf("after the fetch %d hashes are missing, want only the one nobody holds", len(missing))
	}
	if fr.calls != 1 {
		t.Fatalf("remote called %d times, want 1 batched trip", fr.calls)
	}
	// The fetched blob was written through to L2: the next lookup is local,
	// in this process and the next.
	for _, st := range []*store.Store{s, openStore(t, dir)} {
		if _, err := st.LocalTraces(manifestOver(local, remote), nil); err != nil {
			t.Fatalf("remote blob not written through to the local store: %v", err)
		}
	}
	fetch(manifestOver(remote))
	if _, err := s.Get(remote.Hash()); err != nil {
		t.Fatal(err)
	}
	if fr.calls != 1 {
		t.Fatalf("write-through did not stick: %d remote trips", fr.calls)
	}
	// A remote serving corrupt bytes is refused, not installed.
	junk := mkBlob(13, 3)
	packs := newFakeRemote(t, junk).packs([]store.Hash{junk.Hash()})
	torn := packs[0][:len(packs[0])-1]
	before := storeFiles(t, dir, ".pck")
	if err := s.AdoptPacks([][]byte{torn}); err == nil {
		t.Error("corrupt remote bytes were adopted")
	}
	if len(s.Missing(manifestOver(junk), nil)) != 1 {
		t.Error("corrupt remote bytes reached the local store")
	}
	if after := storeFiles(t, dir, ".pck"); len(after) != len(before) {
		t.Errorf("a refused pack left a file: %d packs, want %d", len(after), len(before))
	}
}

// TestAdoptedPackPrimesWithoutRereading: a prime right after AdoptPacks
// reads the adopted pack from the stream verification inflated — no file
// read — and counts its blobs as l3 hits; once the pack is on disk a later
// process reads it as any local pack (l2).
func TestAdoptedPackPrimesWithoutRereading(t *testing.T) {
	dir := t.TempDir()
	a, b := mkBlob(50, 3), mkBlob(51, 5)
	inj := fsx.NewInject(nil)
	reg := metrics.NewRegistry()
	s, err := store.Open(dir, inj, reg)
	if err != nil {
		t.Fatal(err)
	}
	man := manifestOver(a, b)
	if err := s.AdoptPacks(newFakeRemote(t, a, b).packs(s.Missing(man, nil))); err != nil {
		t.Fatal(err)
	}
	inj.StartRecording()
	if _, err := s.LocalTraces(man, nil); err != nil {
		t.Fatalf("LocalTraces refused the adopted pack: %v", err)
	}
	for _, op := range inj.Ops() {
		if op.Op == fsx.OpRead {
			t.Errorf("the prime read %s: the adopted stream was not kept", op.Path)
		}
	}
	hits := func(reg *metrics.Registry, tier string) float64 {
		n, _ := reg.Snapshot().Value("pcc_store_blob_hits_total", tier)
		return n
	}
	if hits(reg, "l3") != 2 || hits(reg, "l2") != 0 {
		t.Errorf("hits l2=%v l3=%v, want 0 and 2", hits(reg, "l2"), hits(reg, "l3"))
	}
	next := metrics.NewRegistry()
	s2, err := store.Open(dir, nil, next)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.LocalTraces(man, nil); err != nil || hits(next, "l2") != 2 || hits(next, "l3") != 0 {
		t.Errorf("reopened store: %v, hits l2=%v l3=%v, want 2 and 0", err, hits(next, "l2"), hits(next, "l3"))
	}
}

// manifestOver builds the manifest an application holding blobs would have
// written: one module per distinct content key, one trace per blob.
func manifestOver(blobs ...*store.Blob) *store.Manifest {
	man := &store.Manifest{}
	slot := make(map[[32]byte]int32)
	for _, b := range blobs {
		ref := b.Refs[0]
		if _, ok := slot[ref.Content]; !ok {
			slot[ref.Content] = int32(len(man.Modules))
			man.Modules = append(man.Modules, store.Module{Path: fmt.Sprint("m", len(man.Modules)), Base: ref.Base, Content: ref.Content})
		}
		man.Traces = append(man.Traces, store.TraceRef{Blob: b.Hash(), Refs: []int32{slot[ref.Content]}, OptLevel: b.OptLevel})
	}
	return man
}

// TestLocalTraces: the one read path answers a manifest with the traces
// the Blob path builds, in whichever pack each blob lies, counting
// one l2 hit per distinct blob. A blob nobody holds is ErrBlobMissing; one
// that decodes but is not the blob the manifest describes is an error of
// its own, and its pack stays; a damaged pack is ErrBlobCorrupt and moves
// to quarantine. Refused manifests count no hits.
func TestLocalTraces(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s, err := store.Open(dir, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := mkBlob(40, 3), mkBlob(41, 7), optBlob(42)
	if _, _, err := s.PutAll([]*store.Blob{a, b}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.PutAll([]*store.Blob{c}); err != nil { // a second pack
		t.Fatal(err)
	}
	third := mkBlob(43, 2)
	if _, _, err := s.PutAll([]*store.Blob{third}); err != nil { // and a third
		t.Fatal(err)
	}
	hits := func(tier string) float64 {
		n, _ := reg.Snapshot().Value("pcc_store_blob_hits_total", tier)
		return n
	}

	man := manifestOver(a, c, third, b, a, third) // three packs interleaved, two blobs twice
	got, err := s.LocalTraces(man, nil)
	if err != nil || len(got) != 6 {
		t.Fatalf("LocalTraces: %d traces, %v", len(got), err)
	}
	if hits("l2") != 4 {
		t.Errorf("hits l2=%v, want 4 (a blob referenced twice is one lookup)", hits("l2"))
	}
	enc := map[store.Hash][]byte{a.Hash(): a.Encode(), b.Hash(): b.Encode(), c.Hash(): c.Encode(), third.Hash(): third.Encode()}
	for i, tr := range man.Traces {
		if got[i].Addr == nil || *got[i].Addr != tr.Blob {
			t.Errorf("trace %d carries address %x, want the %s it was read under", i, got[i].Addr, tr.Blob)
		}
		want, err := viaBlob(enc[tr.Blob], man, tr)
		read := *got[i]
		read.Addr = nil
		if err != nil || !reflect.DeepEqual(read, *want) {
			t.Errorf("trace %d differs from the Blob path (err %v)\n got %+v\nwant %+v", i, err, read, want)
		}
	}
	if got[0] == got[4] || &got[0].Insts[0] == &got[4].Insts[0] {
		t.Error("two references to one blob share a trace")
	}
	// Nothing is kept decoded: each Get builds a blob of its own.
	if g1, err1 := s.Get(a.Hash()); err1 != nil {
		t.Fatal(err1)
	} else if g2, err2 := s.Get(a.Hash()); err2 != nil || g1 == g2 {
		t.Errorf("two Gets returned one blob (err %v)", err2)
	}

	before := hits("l2")
	if _, err := s.LocalTraces(manifestOver(a, mkBlob(44, 2)), nil); !errors.Is(err, store.ErrBlobMissing) {
		t.Errorf("absent blob: %v, want ErrBlobMissing", err)
	}
	bent := manifestOver(a, b)
	bent.Modules[1].Base += 0x1000
	_, err = s.LocalTraces(bent, nil)
	if err == nil || errors.Is(err, store.ErrBlobMissing) || errors.Is(err, store.ErrBlobCorrupt) {
		t.Errorf("mismatched module: %v, want an error that blames the manifest", err)
	}
	if hits("l2") != before {
		t.Errorf("refused manifests counted %v hits", hits("l2")-before)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*")); len(q) != 0 {
		t.Errorf("a miss or a mismatch quarantined %v", q)
	}

	// A damaged pack is this path's to judge: it moves to quarantine, and
	// what it held is a clean miss afterwards.
	path := storeFiles(t, dir, ".pck")[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-8] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s = openStore(t, dir)
	if _, err := s.LocalTraces(manifestOver(a, b, c, third), nil); !errors.Is(err, store.ErrBlobCorrupt) {
		t.Fatalf("damaged pack: %v, want ErrBlobCorrupt", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", filepath.Base(path))); err != nil {
		t.Errorf("damaged pack not quarantined: %v", err)
	}
	if _, err := s.LocalTraces(manifestOver(a, b, c, third), nil); !errors.Is(err, store.ErrBlobMissing) {
		t.Errorf("after quarantine: %v, want ErrBlobMissing", err)
	}
}

// TestLocalTracesReadsOnlyKept: with a keep mask, LocalTraces returns the
// kept traces in manifest order and reads nothing else — a damaged pack
// none of whose members is kept is not opened, judged or quarantined, and
// counts no hit. The first read that keeps one of its members quarantines
// it.
func TestLocalTracesReadsOnlyKept(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s, err := store.Open(dir, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := mkBlob(50, 3), mkBlob(51, 5), mkBlob(52, 4)
	if _, _, err := s.PutAll([]*store.Blob{a, b}); err != nil {
		t.Fatal(err)
	}
	before := storeFiles(t, dir, ".pck")
	if _, _, err := s.PutAll([]*store.Blob{c}); err != nil {
		t.Fatal(err)
	}
	var damaged string
	for _, p := range storeFiles(t, dir, ".pck") {
		if !slices.Contains(before, p) {
			damaged = p
		}
	}
	data, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-8] ^= 0xff
	if err := os.WriteFile(damaged, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = store.Open(dir, nil, reg)
	if err != nil {
		t.Fatal(err)
	}

	man := manifestOver(c, a, c, b)
	got, err := s.LocalTraces(man, []bool{false, true, false, true})
	if err != nil || len(got) != 2 {
		t.Fatalf("kept a and b: %d traces, %v", len(got), err)
	}
	for i, want := range []store.Hash{a.Hash(), b.Hash()} {
		if got[i].Addr == nil || *got[i].Addr != want {
			t.Errorf("kept trace %d carries %x, want %s", i, got[i].Addr, want)
		}
	}
	if n, _ := reg.Snapshot().Value("pcc_store_blob_hits_total", "l2"); n != 2 {
		t.Errorf("hits l2=%v, want 2: only kept blobs are read", n)
	}
	if none, err := s.LocalTraces(man, make([]bool, 4)); err != nil || len(none) != 0 {
		t.Errorf("nothing kept: %d traces, %v", len(none), err)
	}
	if _, err := os.Stat(damaged); err != nil {
		t.Fatalf("a pack nothing kept was judged: %v", err)
	}
	if _, err := s.LocalTraces(man, []bool{false, false, true, false}); !errors.Is(err, store.ErrBlobCorrupt) {
		t.Fatalf("kept c: %v, want ErrBlobCorrupt", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", filepath.Base(damaged))); err != nil {
		t.Errorf("damaged pack not quarantined once a kept member was in it: %v", err)
	}
}

// TestPutByAddress: a blob named by an address the store holds is a dedup
// hit of the stored encoding's length, and nothing is encoded for it; one
// the store does not hold is encoded and written under the address its
// encoding hashes to.
func TestPutByAddress(t *testing.T) {
	s := openStore(t, t.TempDir())
	a, b := mkBlob(60, 3), mkBlob(61, 6)
	if _, _, err := s.PutAll([]*store.Blob{a}); err != nil {
		t.Fatal(err)
	}
	built := 0
	blobs := []*store.Blob{a, b, b}
	rep, hashes, err := s.Put([]store.Hash{a.Hash(), b.Hash(), {}}, func(i int) []byte {
		built++
		return blobs[i].Encode()
	})
	if err != nil {
		t.Fatal(err)
	}
	if built != 2 || !slices.Equal(hashes, []store.Hash{a.Hash(), b.Hash(), b.Hash()}) {
		t.Errorf("encoded %d blobs, hashes %v: want b encoded twice (gone, then unknown), a never", built, hashes)
	}
	if rep.Added != 1 || rep.Deduped != 2 || rep.DedupBytes != uint64(len(a.Encode())+len(b.Encode())) {
		t.Errorf("put report %+v: want b added once, a and the second b deduped at their lengths", rep)
	}
	if _, err := s.Get(b.Hash()); err != nil {
		t.Errorf("b after the put: %v", err)
	}
}

// TestDecodePackRejectsDamage: no proper prefix of a pack file decodes, and
// a flipped byte is either caught or (a spare bit of the flate stream)
// changes nothing — the index is under its crc, the stream must inflate to
// exactly the indexed length and end there, and every member must hash to
// its entry.
func TestDecodePackRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := openStore(t, dir).PutAll([]*store.Blob{mkBlob(1, 4), mkBlob(2, 9)}); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(storeFiles(t, dir, ".pck")[0])
	if err != nil {
		t.Fatal(err)
	}
	intact, err := store.DecodePack(valid)
	if err != nil || len(intact.Hashes) != 2 {
		t.Fatalf("intact pack: %v", err)
	}
	for n := range valid {
		if _, err := store.DecodePack(valid[:n]); err == nil {
			t.Errorf("the first %d of %d bytes decode as a pack", n, len(valid))
		}
		flipped := append([]byte(nil), valid...)
		flipped[n] ^= 0x10
		if p, err := store.DecodePack(flipped); err == nil && fmt.Sprint(p) != fmt.Sprint(intact) {
			t.Errorf("pack with byte %d flipped decodes to something else", n)
		}
	}
}
