package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"persistcc/internal/fsx"
	"persistcc/internal/metrics"
	"persistcc/internal/vm"
)

// quarantineDir receives store files whose bytes fail a content check,
// mirroring the cache database's self-healing idiom.
const quarantineDir = "quarantine"

// ErrBlobMissing reports a hash with no local blob.
var ErrBlobMissing = errors.New("store: blob missing")

// ErrBlobCorrupt reports a blob whose bytes fail the content-address or
// decode check; callers treat it like a miss after the store quarantines
// the file.
var ErrBlobCorrupt = errors.New("store: blob corrupt")

// maxHotPacks bounds how many packs keep their inflated stream in memory
// (at most packRawLimit bytes each): enough that a prime or a shard's blob
// fetch inflates each pack it touches once, not once per blob.
const maxHotPacks = 8

// pack is one indexed pack file.
type pack struct {
	path string
	ix   *packIndex
	raw  []byte // the inflated stream while the pack is hot; guarded by Store.pmu

	// remote marks a pack this process received from another machine
	// (AdoptPacks): blobs read from it count as l3 hits.
	remote bool
	// served marks a pack PackFiles verified whole and may send again
	// unverified.
	served atomic.Bool
}

// member addresses one blob inside a pack.
type member struct {
	p *pack
	i int
}

// size is the length of the member's encoding.
func (m member) size() uint64 { return uint64(m.p.ix.offs[m.i+1] - m.p.ix.offs[m.i]) }

// Store is the local content-addressed blob store (tier L2). The pack files
// <generation>/<id>.pck are the on-disk state: each holds the new blobs of
// one commit, is published by renaming a synced, writer-unique temp onto a
// name derived from its content, and is never rewritten in place — so any
// number of stores, in any number of processes, share one directory without
// a lock or a shared index to keep coherent. Each store indexes the packs
// it has seen in memory and lists the directory again when it meets a hash
// it does not know, so a lookup never stats a file: a miss is map lookups
// plus at most one listing per call. Packs are the only format read; the
// loose one-file-per-blob files earlier versions wrote are invisible until
// FoldLoose (run by Recover) moves them into packs.
// Packs move between machines whole: a daemon serves the files that hold
// the blobs a client asks for (PackFiles), and the client verifies each and
// publishes it under the same name (AdoptPacks), so blobs that come over
// the wire (tier L3) are read like any other pack.
type Store struct {
	dir string
	fs  fsx.FS
	met *storeMetrics

	// gens lists the generation directories, newest first, fixed at Open.
	// New packs land in gens[0]; older generations exist only in stores an
	// earlier version compacted, and stay readable.
	gens []string

	// mu serializes this instance's writers, so a hash put twice through
	// one store is written once and counted as one write and one dedup.
	mu sync.Mutex

	pmu   sync.RWMutex
	packs map[string]*pack // by path: the pack files indexed so far
	index map[Hash]member  // where each blob lives
	hot   []*pack          // packs holding their inflated stream, oldest first
}

// Open opens the store rooted at dir. All I/O goes through fsys — the
// chaos seam. Open lists the generation directories once each, reading the
// index of every pack, never a pack body: it writes nothing (the first put
// creates what it needs) and scrubs nothing, so it is safe while peers are
// writing.
func Open(dir string, fsys fsx.FS, reg *metrics.Registry) (*Store, error) {
	if fsys == nil {
		fsys = fsx.OS
	}
	gens, err := fsys.Glob(filepath.Join(dir, "gen[0-9][0-9][0-9][0-9]"))
	if err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		gens = []string{filepath.Join(dir, "gen0000")}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(gens)))
	s := &Store{
		dir:   dir,
		fs:    fsys,
		met:   newStoreMetrics(reg),
		gens:  gens,
		packs: make(map[string]*pack),
	}
	s.relist()
	return s, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// relist lists the packs of every generation once and indexes each it has
// not seen before by reading its index. A pack whose index cannot be read
// is skipped, not remembered: its blobs are misses until a later listing
// reads it or Recover quarantines it.
func (s *Store) relist() {
	var found []*pack
	for _, g := range s.gens {
		names, _ := s.fs.Glob(filepath.Join(g, "*.pck")) // a failed listing finds nothing new
		for _, path := range names {
			s.pmu.RLock()
			_, known := s.packs[path]
			s.pmu.RUnlock()
			if known {
				continue
			}
			if ix, err := s.readPackIndex(path); err == nil {
				found = append(found, &pack{path: path, ix: ix})
			}
		}
	}
	s.pmu.Lock()
	defer s.pmu.Unlock()
	for _, p := range found {
		s.addPackLocked(p)
	}
}

// readPackIndex reads a pack's header, then exactly its index.
func (s *Store) readPackIndex(path string) (*packIndex, error) {
	header, err := s.fs.ReadFileRange(path, 0, packHeaderLen)
	if err != nil {
		return nil, err
	}
	count, err := packCount(header)
	if err != nil {
		return nil, err
	}
	prefix, err := s.fs.ReadFileRange(path, 0, indexLen(count))
	if err != nil {
		return nil, err
	}
	return parsePackIndex(prefix)
}

// addPackLocked indexes p and points its members' hashes at it. A blob
// that several packs hold (two writers raced, or a compaction was
// interrupted) resolves to the pack indexed last.
func (s *Store) addPackLocked(p *pack) {
	if s.index == nil { // sized by the first pack indexed
		s.index = make(map[Hash]member, len(p.ix.hashes))
	}
	s.packs[p.path] = p
	for i, h := range p.ix.hashes {
		s.index[h] = member{p, i}
	}
}

// forget drops a pack whose file is gone from the index.
func (s *Store) forget(p *pack) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	delete(s.packs, p.path)
	for _, h := range p.ix.hashes {
		if s.index[h].p == p {
			delete(s.index, h)
		}
	}
}

// packed looks h up in the pack index.
func (s *Store) packed(h Hash) (member, bool) {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	m, ok := s.index[h]
	return m, ok
}

// locate finds h in the pack index, else — once per *relisted, which the
// caller shares across all the hashes of one call — after listing the
// generations again, which is how a pack a peer wrote after Open is found.
// The index is consulted again after the listing whatever it found: a
// concurrent call may have indexed h meanwhile.
func (s *Store) locate(h Hash, relisted *bool) (member, bool) {
	if m, ok := s.packed(h); ok || *relisted {
		return m, ok
	}
	*relisted = true
	s.relist()
	return s.packed(h)
}

// sortedPacks snapshots the indexed packs in path order.
func (s *Store) sortedPacks() []*pack {
	s.pmu.RLock()
	packs := make([]*pack, 0, len(s.packs))
	for _, p := range s.packs {
		packs = append(packs, p)
	}
	s.pmu.RUnlock()
	sort.Slice(packs, func(i, j int) bool { return packs[i].path < packs[j].path })
	return packs
}

// PutReport summarizes one batch of blob writes.
type PutReport struct {
	Added      int    // blobs newly written
	Deduped    int    // blobs already present (content hit)
	AddedBytes uint64 // bytes written for new blobs
	DedupBytes uint64 // bytes NOT written because the content already existed
}

// PutAll writes a batch of blobs, deduplicating against the existing
// content, and returns their hashes index-for-index.
func (s *Store) PutAll(blobs []*Blob) (PutReport, []Hash, error) {
	return s.Put(make([]Hash, len(blobs)), func(i int) []byte { return blobs[i].Encode() })
}

// Put writes a batch of n = len(known) blobs, deduplicating against the
// existing content, and returns their hashes index-for-index. known[i] is
// blob i's address when the caller has it — a trace read from a store
// carries the address it was read under (vm.Trace.Addr) — and zero
// otherwise. A known address the store holds is a dedup hit and nothing is
// encoded for it; encode(i) returns every other blob's encoding, a known
// one's only when its blob has gone, and that one is then written under the
// address its encoding hashes to.
func (s *Store) Put(known []Hash, encode func(i int) []byte) (PutReport, []Hash, error) {
	hashes := make([]Hash, len(known))
	encs := make([][]byte, len(known))
	for i, h := range known {
		if h != (Hash{}) {
			hashes[i] = h
			continue
		}
		encs[i] = encode(i)
		hashes[i] = Sum(encs[i])
	}
	rep, err := s.putEncoded(hashes, encs, encode, false)
	return rep, hashes, err
}

// PutPacks stores, through the deduplicating put, the members of pack files
// another machine sent that man references, and no other. The files are
// untrusted, and nothing is written until all of it is judged: each file is
// verified whole (DecodePack), and each member a trace of man names is
// checked against that trace as a read would check it — a blob (scanBlob),
// and the one the trace describes (matches). The packs written stay hot, so
// a read of man that follows does not inflate again what arrived a moment
// ago.
func (s *Store) PutPacks(files [][]byte, man *Manifest) error {
	received := make(map[Hash][]byte, len(man.Traces)) // nil until a pack holds it
	for _, tr := range man.Traces {
		received[tr.Blob] = nil
	}
	var hashes []Hash
	var encs [][]byte
	for i, data := range files {
		p, err := DecodePack(data)
		if err != nil {
			return fmt.Errorf("store: received pack %d of %d: %w", i+1, len(files), err)
		}
		for j, h := range p.Hashes {
			if _, want := received[h]; want {
				received[h] = p.Encs[j]
				hashes, encs = append(hashes, h), append(encs, p.Encs[j])
			}
		}
	}
	for _, tr := range man.Traces {
		enc := received[tr.Blob]
		if enc == nil {
			continue
		}
		l, err := scanBlob(enc)
		if err == nil {
			err = l.matches(man, tr)
		}
		if err != nil {
			return fmt.Errorf("store: received blob %s: %w", tr.Blob, err)
		}
	}
	_, err := s.putEncoded(hashes, encs, nil, true)
	return err
}

// putEncoded lands the encodings the store does not hold yet — none of them
// twice — as packs of at most packMaxRaw raw bytes, usually one. encs[i]
// must hash to hashes[i]; a nil encs[i] is a known address, encoded with
// encode only when the store does not hold it (hashes[i] then becomes the
// address of what was encoded). With hot set, the packs written keep their
// stream.
func (s *Store) putEncoded(hashes []Hash, encs [][]byte, encode func(i int) []byte, hot bool) (PutReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep PutReport
	encoded := 0 // the blobs most likely new: those the caller had no address for
	for _, enc := range encs {
		if enc != nil {
			encoded++
		}
	}
	newHashes, newEncs := make([]Hash, 0, encoded), make([][]byte, 0, encoded)
	relisted := false
	batch := make(map[Hash]int, len(hashes)) // encoded length of each blob this batch writes
	for i, h := range hashes {
		size, present := s.held(h, encs[i], batch, &relisted)
		if !present && encs[i] == nil {
			encs[i] = encode(i)
			h = Sum(encs[i])
			hashes[i] = h
			size, present = s.held(h, encs[i], batch, &relisted)
		}
		if present {
			rep.Deduped++
			rep.DedupBytes += size
			s.met.dedupBlobs.Inc()
			s.met.dedupBytes.Add(size)
			continue
		}
		batch[h] = len(encs[i])
		newHashes, newEncs = append(newHashes, h), append(newEncs, encs[i])
	}
	start := 0
	for _, end := range packEnds(newEncs) {
		n, err := s.writePack(newHashes[start:end], newEncs[start:end], hot)
		if err != nil {
			return rep, err
		}
		rep.Added += end - start
		rep.AddedBytes += n
		s.met.written.Add(uint64(end - start))
		s.met.writtenBytes.Add(n)
		start = end
	}
	return rep, nil
}

// held reports whether the store or the batch being written holds h, and
// the length of its encoding: enc's when the caller has it, else the
// batch's or the store's record of it.
func (s *Store) held(h Hash, enc []byte, batch map[Hash]int, relisted *bool) (uint64, bool) {
	size, inBatch := batch[h]
	m, inStore := member{}, false
	if !inBatch {
		m, inStore = s.locate(h, relisted)
	}
	switch {
	case !inBatch && !inStore:
		return 0, false
	case enc != nil:
		return uint64(len(enc)), true
	case inBatch:
		return uint64(size), true
	}
	return m.size(), true
}

// tmpSeq makes temp names unique within the process; the pid makes them
// unique across processes.
var tmpSeq atomic.Uint64

// writePack publishes one pack holding encs and returns the bytes written.
// The file is written and synced under a temp name no other writer can
// share (a peer truncating a shared temp between our sync and rename would
// publish a short pack), then renamed into the newest generation: every
// blob byte is durable before any name makes it reachable. A pack this
// store already indexes under the same content-derived name is not written
// again. With hot set, the pack keeps its stream. Callers hold s.mu.
func (s *Store) writePack(hashes []Hash, encs [][]byte, hot bool) (uint64, error) {
	id, ix, data := encodePack(hashes, encs)
	path := filepath.Join(s.gens[0], id.Hex()+".pck")
	s.pmu.RLock()
	p := s.packs[path]
	s.pmu.RUnlock()
	written := uint64(0)
	if p == nil {
		if err := s.publish(path, data); err != nil {
			return 0, err
		}
		p, written = &pack{path: path, ix: ix}, uint64(len(data))
	}
	s.pmu.Lock()
	s.addPackLocked(p)
	if hot {
		s.heatLocked(p, bytes.Join(encs, nil))
	}
	s.pmu.Unlock()
	return written, nil
}

// publish makes data the file at path: written and synced under a temp
// name no other writer can share, then renamed into place.
func (s *Store) publish(path string, data []byte) error {
	if err := s.fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.%d.%d.tmp", path, os.Getpid(), tmpSeq.Add(1))
	err := s.fs.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = s.fs.Rename(tmp, path)
	}
	if err != nil {
		s.fs.Remove(tmp)
	}
	return err
}

// Missing returns, each once, the hashes of the blobs man references that
// this store holds in no pack — what a machine must fetch
// before it can prime from man. keep, when not nil, narrows that to the
// traces it marks, as it narrows LocalTraces. It lists the generations at
// most once, and stats each distinct pack it resolves a blob to once: a
// pack a peer deleted since it was indexed is forgotten and its blobs
// looked up again, as a read would.
func (s *Store) Missing(man *Manifest, keep []bool) []Hash {
	var out []Hash
	var seen map[Hash]bool // allocated by the first miss: a warm launch has none
	onDisk := make(map[*pack]bool)
	relisted := false
	for i, tr := range man.Traces {
		if keep != nil && !keep[i] {
			continue
		}
		h := tr.Blob
		if s.present(h, &relisted, onDisk) || seen[h] {
			continue
		}
		if seen == nil {
			seen = make(map[Hash]bool)
		}
		seen[h] = true
		out = append(out, h)
	}
	return out
}

// present is Missing's lookup of h: found in the index, in a pack whose
// file is still there. onDisk records the packs stat-ed so far.
func (s *Store) present(h Hash, relisted *bool, onDisk map[*pack]bool) bool {
	for {
		m, ok := s.locate(h, relisted)
		if !ok {
			return false
		}
		there, checked := onDisk[m.p]
		if !checked {
			_, err := s.fs.Stat(m.p.path)
			there = !errors.Is(err, fs.ErrNotExist)
			onDisk[m.p] = there
		}
		if there {
			return true
		}
		s.forget(m.p)
	}
}

// AdoptPacks takes pack files received from another machine into the
// store. The files are untrusted: every one is verified whole first
// (decodePack: index crc, stream length, every member re-hashed), and if
// any fails none is taken and the error says which. Each is then published
// byte for byte under the name its own bytes derive — so the same pack has
// the same name on every machine and adopting it twice writes it once —
// indexed, and kept hot with the stream verification inflated, so the
// prime that follows reads it without inflating again. Nothing is deflated.
// A pack the disk refuses is an error: a blob is held only once it is on
// disk, so the prime that wanted it degrades and the next one fetches again.
func (s *Store) AdoptPacks(files [][]byte) error {
	type received struct {
		id  Hash
		ix  *packIndex
		raw []byte
	}
	in := make([]received, len(files))
	for i, data := range files {
		id, ix, raw, err := decodePack(data)
		if err != nil {
			return fmt.Errorf("store: received pack %d of %d: %w", i+1, len(files), err)
		}
		in[i] = received{id, ix, raw}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range in {
		path := filepath.Join(s.gens[0], r.id.Hex()+".pck")
		s.pmu.RLock()
		p := s.packs[path]
		s.pmu.RUnlock()
		if p == nil {
			if err := s.publish(path, files[i]); err != nil {
				return fmt.Errorf("store: adopting pack %s: %w", r.id, err)
			}
			p = &pack{path: path, ix: r.ix, remote: true}
			s.met.written.Add(uint64(len(r.ix.hashes)))
			s.met.writtenBytes.Add(uint64(len(files[i])))
		}
		s.pmu.Lock()
		s.addPackLocked(p)
		s.heatLocked(p, r.raw)
		s.pmu.Unlock()
	}
	return nil
}

// PackFiles returns the files that hold the blobs with the given hashes, at
// most maxBytes of them in all: each pack holding one, byte for byte as it
// lies on disk and each once. Hashes the store does not hold are in none of them, and
// a pack may hold blobs nobody asked for. A pack is verified whole the
// first time it is served; one that fails is quarantined, as a failed read
// would have it, and is never served.
func (s *Store) PackFiles(hashes []Hash, maxBytes int) [][]byte {
	var out [][]byte
	total := 0
	sent := make(map[*pack]bool)
	relisted := false
	for _, h := range hashes {
		data, p, ok := s.packFile(h, &relisted, sent)
		if !ok {
			continue
		}
		if total+len(data) > maxBytes {
			break
		}
		sent[p] = true
		out = append(out, data)
		total += len(data)
	}
	return out
}

// packFile returns the file PackFiles serves h in and the pack it is, or
// false when h is nowhere servable or its pack is in sent already.
func (s *Store) packFile(h Hash, relisted *bool, sent map[*pack]bool) ([]byte, *pack, bool) {
	for {
		m, ok := s.locate(h, relisted)
		if !ok || sent[m.p] {
			return nil, nil, false
		}
		data, err := s.fs.ReadFile(m.p.path)
		if err == nil && !m.p.served.Load() {
			if _, _, _, err = decodePack(data); err != nil {
				err = fmt.Errorf("%w: %v", ErrBlobCorrupt, err)
			}
		}
		switch {
		case err == nil:
			m.p.served.Store(true)
			return data, m.p, true
		case errors.Is(err, ErrBlobCorrupt):
			s.quarantine(m.p)
			return nil, nil, false
		case errors.Is(err, fs.ErrNotExist):
			s.forget(m.p) // compacted away since indexed: look again
		default:
			return nil, nil, false
		}
	}
}

// SizeOf returns the length of a blob's encoding. Blobs share one
// compressed stream per pack, so a blob has no physical size of its own.
func (s *Store) SizeOf(h Hash) (uint64, bool) {
	relisted := false
	m, ok := s.locate(h, &relisted)
	if !ok {
		return 0, false
	}
	return m.size(), true
}

// Get reads and decodes one blob from the local disk; each call returns a
// blob of its own. A blob that fails the content-address or decode check
// has its pack quarantined and is
// reported as ErrBlobCorrupt; an absent blob returns ErrBlobMissing. A
// launch reads a manifest through LocalTraces, not blob by blob.
func (s *Store) Get(h Hash) (*Blob, error) {
	relisted := false
	enc, m, err := s.readRaw(h, &relisted)
	if err != nil {
		return nil, err
	}
	b, err := DecodeBlob(enc)
	if err != nil {
		s.quarantine(m.p)
		return nil, fmt.Errorf("%w: %v", ErrBlobCorrupt, err)
	}
	if m.p.remote {
		s.met.hitsL3.Inc()
	} else {
		s.met.hitsL2.Inc()
	}
	return b, nil
}

// openFile is a pack LocalTraces has read: its inflated stream, with the
// members it has counted. A pack that was not hot inflates into raw beside
// the read (z) until LocalTraces has its verdict.
type openFile struct {
	p    *pack
	raw  []byte
	seen []bool
	z    *inflation // nil once raw is whole and judged
}

// member returns m's encoding from f once its bytes have arrived and hash
// to h; a stream that ends before they arrive, or bytes that do not, are
// ErrBlobCorrupt.
func (f *openFile) member(m member, h Hash) ([]byte, error) {
	lo, hi := m.p.ix.offs[m.i], m.p.ix.offs[m.i+1]
	if f.z != nil && f.z.have < int(hi) {
		if err := f.z.await(int(hi)); err != nil {
			return nil, corruptPack(m.p, err)
		}
	}
	enc := f.raw[lo:hi]
	if Sum(enc) != h {
		return nil, fmt.Errorf("%w: %s fails content check", ErrBlobCorrupt, h)
	}
	return enc, nil
}

// manifestRead is one LocalTraces call's state: the packs it has opened, in
// the order it opened them and by pack, and whether it has listed the
// generations again.
type manifestRead struct {
	s        *Store
	files    []*openFile
	open     map[*pack]*openFile
	relisted bool
}

// LocalTraces is the one way a manifest becomes traces: the traces man
// references that keep marks (every one when keep is nil), in manifest
// order, decoded straight out of this store's files into the traces a VM
// will run, with no Blob built and nothing kept. A trace keep leaves out is
// not read, and a file none of the kept traces is in is not opened. Each
// encoding is verified against its content address and against the
// manifest's view of it (decodeTrace) exactly as Get, Manifest.CheckBlob and
// Blob.Materialize would between them, and each distinct blob is counted
// once as a hit of the tier that held it; each trace carries the address it
// was read under (vm.Trace.Addr). A warm launch finds every blob in a pack
// it has indexed; anything else — a pack a peer published since, a pack
// gone or damaged — is openBlob's, so the loop pays nothing
// for it. A pack that is not hot inflates on a goroutine of its own while
// the loop verifies and decodes the members that have arrived; before
// returning, LocalTraces has every such stream's verdict — whole, and
// ending exactly at its indexed length — and heats each sound pack, or has
// stopped every one it started. The error is ErrBlobMissing when a blob is
// nowhere, ErrBlobCorrupt when its bytes fail a check (that file is
// quarantined), and any other error when a blob decodes but is not the one
// the manifest was written against. A launch primed from another machine
// reads here too, once AdoptPacks has taken the packs it received.
//
//pcc:hotpath
func (s *Store) LocalTraces(man *Manifest, keep []bool) ([]*vm.Trace, error) {
	r := manifestRead{s: s, open: make(map[*pack]*openFile)}
	n := len(man.Traces)
	if keep != nil {
		n = 0
		for _, k := range keep {
			if k {
				n++
			}
		}
	}
	traces := make([]*vm.Trace, n)
	structs := make([]vm.Trace, n) // one allocation; traces[j] = &structs[j]
	var slabs traceSlabs
	var local, remote uint64
	j := 0
	for i := range man.Traces {
		if keep != nil && !keep[i] {
			continue
		}
		tr := &man.Traces[i]
		m, f, enc, err := r.read(tr.Blob)
		if err != nil {
			return nil, err
		}
		if err := decodeTrace(&structs[j], &slabs, enc, man, *tr); err != nil {
			return nil, r.fail(f, err)
		}
		structs[j].Addr = (*[32]byte)(&tr.Blob)
		traces[j] = &structs[j]
		j++
		if !f.seen[m.i] {
			f.seen[m.i] = true
			if m.p.remote {
				remote++
			} else {
				local++
			}
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	s.met.hitsL2.Add(local)
	s.met.hitsL3.Add(remote)
	return traces, nil
}

// read returns h's verified encoding and the file it is in, opening the
// file if this read has not. On an error every stream the read started is
// stopped, and a file that failed is quarantined.
func (r *manifestRead) read(h Hash) (member, *openFile, []byte, error) {
	m, found := r.s.packed(h)
	f := r.open[m.p]
	if !found || f == nil {
		var err error
		if m, f, err = r.openBlob(h); err != nil {
			return m, nil, nil, r.abandon(err)
		}
	}
	enc, err := f.member(m, h)
	if err != nil {
		return m, f, nil, r.fail(f, err)
	}
	return m, f, enc, nil
}

// openBlob finds h for LocalTraces when no pack it has open holds it: in a
// pack not opened yet, or in one the index learns of by listing the
// generations again (once per call). find forgets a pack gone since it was
// indexed and quarantines one that fails to read back.
func (r *manifestRead) openBlob(h Hash) (member, *openFile, error) {
	m, raw, z, err := r.s.find(h, &r.relisted)
	if err != nil {
		return member{}, nil, err
	}
	f := r.open[m.p]
	if f == nil {
		f = &openFile{p: m.p, raw: raw, seen: make([]bool, len(m.p.ix.hashes)), z: z}
		r.open[m.p] = f
		r.files = append(r.files, f)
	} else if z != nil {
		z.abandon() // a pack that another blob's lookup opened as well: keep the first stream
	}
	return m, f, nil
}

// finish waits for the verdict on every stream this read is inflating, in
// the order it opened them, and heats each sound pack. The first that
// fails is quarantined and the rest are stopped.
func (r *manifestRead) finish() error {
	for _, f := range r.files {
		if f.z == nil {
			continue
		}
		err := r.s.settle(f.p, f.z)
		f.z = nil
		if err != nil {
			return r.fail(f, err)
		}
	}
	return nil
}

// abandon stops every stream this read is still inflating, waits for each
// inflater to end, and returns err.
func (r *manifestRead) abandon(err error) error {
	for _, f := range r.files {
		if f.z != nil {
			f.z.abandon()
			f.z = nil
		}
	}
	return err
}

// fail stops this read's streams and quarantines the pack f when err says
// its bytes are bad — the whole pack, since one bad member means the file
// cannot be trusted — and returns err.
func (r *manifestRead) fail(f *openFile, err error) error {
	r.abandon(nil)
	if errors.Is(err, ErrBlobCorrupt) {
		r.s.quarantine(f.p)
	}
	return err
}

// find locates h and reads the pack that holds it. A pack that is not hot
// comes back still inflating into raw (z): the caller has its verdict from
// settle, or stops it. A pack gone since it was indexed — a peer's
// compaction removed it; the blob, if still live, is in a pack not listed
// yet — is forgotten and h looked up again. A pack that fails to read back
// is quarantined (ErrBlobCorrupt); h nowhere, or a pack that cannot be read
// now, is ErrBlobMissing.
func (s *Store) find(h Hash, relisted *bool) (member, []byte, *inflation, error) {
	for {
		m, ok := s.locate(h, relisted)
		if !ok {
			s.met.misses.Inc()
			return m, nil, nil, fmt.Errorf("%w: %s", ErrBlobMissing, h)
		}
		raw, z, err := s.packStream(m.p)
		switch {
		case err == nil:
			return m, raw, z, nil
		case errors.Is(err, ErrBlobCorrupt):
			s.quarantine(m.p)
			return m, nil, nil, err
		case errors.Is(err, fs.ErrNotExist):
			s.forget(m.p)
		default:
			s.met.misses.Inc()
			return m, nil, nil, fmt.Errorf("%w: %s: %v", ErrBlobMissing, h, err)
		}
	}
}

// readRaw loads and hash-verifies one blob's bytes from disk, inflating
// its pack to the end first when it is not hot.
func (s *Store) readRaw(h Hash, relisted *bool) ([]byte, member, error) {
	m, raw, z, err := s.find(h, relisted)
	if err != nil {
		return nil, m, err
	}
	if z != nil {
		if err := s.settle(m.p, z); err != nil {
			s.quarantine(m.p)
			return nil, m, err
		}
	}
	enc := raw[m.p.ix.offs[m.i]:m.p.ix.offs[m.i+1]]
	if Sum(enc) != h {
		s.quarantine(m.p)
		return nil, m, fmt.Errorf("%w: %s fails content check", ErrBlobCorrupt, h)
	}
	return enc, m, nil
}

// packStream returns p's inflated stream when the pack is hot; otherwise
// it reads the file, checks the index against its crc and starts the body
// inflating, returning the buffer it inflates into. Members are verified
// against their hashes as they are read.
func (s *Store) packStream(p *pack) ([]byte, *inflation, error) {
	s.pmu.RLock()
	raw := p.raw
	s.pmu.RUnlock()
	if raw != nil {
		return raw, nil, nil
	}
	data, err := s.fs.ReadFile(p.path)
	if err != nil {
		return nil, nil, err
	}
	count := len(p.ix.hashes)
	if !indexIntact(data, count) {
		return nil, nil, fmt.Errorf("%w: pack %s: index fails its checksum", ErrBlobCorrupt, filepath.Base(p.path))
	}
	z, err := startInflate(data[indexLen(count):], p.ix.rawLen())
	if err != nil {
		return nil, nil, corruptPack(p, err)
	}
	return z.raw, z, nil
}

// corruptPack is the error for a pack whose stream fails to inflate.
func corruptPack(p *pack, err error) error {
	return fmt.Errorf("%w: pack %s: %v", ErrBlobCorrupt, filepath.Base(p.path), err)
}

// settle waits for the verdict on p's stream and heats p with it when it
// is sound; a stream that is not is ErrBlobCorrupt.
func (s *Store) settle(p *pack, z *inflation) error {
	if err := z.finish(); err != nil {
		return corruptPack(p, err)
	}
	s.pmu.Lock()
	defer s.pmu.Unlock()
	s.heatLocked(p, z.raw)
	return nil
}

// heatLocked keeps raw as p's inflated stream unless p is hot already,
// cooling the pack that has been hot longest beyond maxHotPacks.
func (s *Store) heatLocked(p *pack, raw []byte) {
	if p.raw != nil {
		return
	}
	p.raw = raw
	if s.hot = append(s.hot, p); len(s.hot) > maxHotPacks {
		s.hot[0].raw = nil
		s.hot = s.hot[1:]
	}
}

// quarantine moves pack p out of the addressable space — the whole pack,
// since one bad member means the file cannot be trusted — so the next
// lookup of any blob in it is a clean miss (and the next commit can
// rewrite it).
func (s *Store) quarantine(p *pack) {
	s.quarantineFile(p.path)
	s.forget(p)
}

// quarantineFile moves one store file into the quarantine directory,
// deleting it when the move fails, and reports whether it left the
// addressable space either way.
func (s *Store) quarantineFile(path string) bool {
	s.met.quarantined.Inc()
	qdir := filepath.Join(s.dir, quarantineDir)
	if s.fs.MkdirAll(qdir, 0o755) == nil && s.fs.Rename(path, filepath.Join(qdir, filepath.Base(path))) == nil {
		return true
	}
	return s.fs.Remove(path) == nil
}

// Stats summarizes the store's physical state.
type Stats struct {
	Gen         int    `json:"gen"`
	Blobs       int    `json:"blobs"`      // distinct addressable blobs: the packed ones
	BlobBytes   uint64 `json:"blob_bytes"` // physical bytes: pack files (indexes included) and loose files
	Generations int    `json:"generations"`
	Packs       int    `json:"packs"`
	LooseBlobs  int    `json:"loose_blobs"` // one-file-per-blob leftovers of earlier versions, not folded yet
}

// Stats walks the store directory for blob count and physical bytes, and
// refreshes the pcc_store_blobs/blob_bytes/generation gauges from it. A
// pack a peer deleted since it was indexed is forgotten, as a read would.
func (s *Store) Stats() Stats {
	var st Stats
	fmt.Sscanf(filepath.Base(s.gens[0]), "gen%d", &st.Gen)
	s.relist()
	gens := make(map[string]bool)
	for _, p := range s.sortedPacks() {
		fi, err := s.fs.Stat(p.path)
		if errors.Is(err, fs.ErrNotExist) {
			s.forget(p)
		}
		if err != nil {
			continue
		}
		st.Packs++
		st.BlobBytes += uint64(fi.Size())
		gens[filepath.Dir(p.path)] = true
	}
	files, _ := s.looseFiles()
	for _, p := range files {
		if fi, err := s.fs.Stat(p); err == nil {
			st.LooseBlobs++
			st.BlobBytes += uint64(fi.Size())
			gens[filepath.Dir(p)] = true
		}
	}
	s.pmu.RLock()
	st.Blobs = len(s.index)
	s.pmu.RUnlock()
	st.Generations = len(gens)
	s.met.blobs.Set(float64(st.Blobs))
	s.met.blobBytes.Set(float64(st.BlobBytes))
	s.met.generation.Set(float64(st.Gen))
	return st
}

// RecoverReport summarizes a store recovery pass.
type RecoverReport struct {
	Blobs       int // blobs that passed the scrub
	Folded      int // loose blob files folded into packs
	Quarantined int // files (packs or loose blobs) that failed it
	TmpRemoved  int // abandoned temp files deleted
}

// Recover scrubs the store: loose blob files are folded into packs first
// (FoldLoose), then every pack is read whole and every blob re-hashed
// against its address and decoded (a pack that fails is quarantined), and
// temp files older than staleAfter are deleted. A younger temp may be a live
// writer's, between its sync and its rename, and is left alone.
func (s *Store) Recover(staleAfter time.Duration) (*RecoverReport, error) {
	folded, quarantined, err := s.FoldLoose()
	if err != nil {
		return nil, err
	}
	rep := &RecoverReport{Folded: folded, Quarantined: quarantined}
	cutoff := time.Now().Add(-staleAfter)
	for _, d := range append([]string{s.dir}, s.gens...) {
		tmps, err := s.fs.Glob(filepath.Join(d, "*.tmp"))
		if err != nil {
			return nil, err
		}
		for _, p := range tmps {
			fi, err := s.fs.Stat(p)
			if err != nil || fi.ModTime().After(cutoff) {
				continue
			}
			if s.fs.Remove(p) == nil {
				rep.TmpRemoved++
			}
		}
	}
	var packFiles []string
	for _, g := range s.gens {
		packs, err := s.fs.Glob(filepath.Join(g, "*.pck"))
		if err != nil {
			return nil, err
		}
		packFiles = append(packFiles, packs...)
	}
	for _, p := range packFiles {
		data, err := s.fs.ReadFile(p)
		if err != nil {
			continue
		}
		if n, ok := scrubPack(data); ok {
			rep.Blobs += n
		} else if s.quarantineFile(p) {
			rep.Quarantined++
		}
	}
	// Start over from what survived: nothing inflated before the scrub is
	// trusted after it.
	s.pmu.Lock()
	s.packs, s.index, s.hot = make(map[string]*pack), nil, nil
	s.pmu.Unlock()
	s.relist()
	return rep, nil
}

// scrubPack reports how many blobs a pack file holds and whether all of it
// verifies: the index, the stream, every member's hash and encoding.
func scrubPack(data []byte) (int, bool) {
	p, err := DecodePack(data)
	if err != nil {
		return 0, false
	}
	for _, enc := range p.Encs {
		if _, err := DecodeBlob(enc); err != nil {
			return 0, false
		}
	}
	return len(p.Encs), true
}
