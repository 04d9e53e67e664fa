package core

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"

	"persistcc/internal/store"
	"persistcc/internal/vm"
)

// This file is the bridge between the manager's CacheFile world and the
// content-addressed store (internal/store): per-application manifests
// reference shared blobs instead of embedding trace bodies, so
// applications that translate the same shared-library code at the same
// placement share one on-disk copy.
//
// A launch reads a manifest straight into traces; a commit judges the run's
// Delta on the entry's manifest, writes reused traces by address and
// encodes the rest; a publish sends the same (Publication). A CacheFile is
// what a merge builds.
// The store format is the only one the database holds: a legacy `.pcc`
// image is invisible to every path but MigrateToStore, which converts it,
// so until it runs the entry is a miss and its launch runs cold.

// WithStore selects nothing; it stays for callers that still pass it.
//
// Deprecated: every commit writes the store format.
func WithStore() ManagerOption {
	return func(*Manager) {}
}

// WithStoreDir overrides where the blob store lives (default:
// <dbdir>/store). Pointing several application databases at one shared
// store directory gives machine-wide deduplication: each shared blob is
// stored — and fetched from a cache server — once per machine, not once
// per application.
func WithStoreDir(dir string) ManagerOption {
	return func(m *Manager) {
		if dir != "" {
			m.storeDir = dir
		}
	}
}

// Store returns the manager's blob store, opening it on first use. Opening
// creates nothing: the store's directories appear with its first pack.
func (m *Manager) Store() (*store.Store, error) {
	m.stOnce.Do(func() {
		dir := m.storeDir
		if dir == "" {
			dir = filepath.Join(m.dir, "store")
		}
		m.st, m.stErr = store.Open(dir, m.fs, m.metrics)
	})
	return m.st, m.stErr
}

// errBlobsUnavailable marks a manifest whose blobs could not all be
// resolved right now (a local miss the remote could not fill). Unlike
// corruption this is not quarantine-worthy at lookup time — the remote
// may simply be down — so the lookup degrades to a miss. RecoverIndex,
// which judges with only local state, does quarantine such manifests.
var errBlobsUnavailable = errors.New("core: manifest blobs unavailable")

// storeModules converts the manager's module records to the store's
// dependency-free mirror of them.
func storeModules(records []ModuleRecord) []store.Module {
	out := make([]store.Module, len(records))
	for i, r := range records {
		out[i] = store.Module{
			Path: r.Path, Base: r.Base, Size: r.Size, MTime: r.MTime,
			Digest: r.Digest, Key: [32]byte(r.Key), Content: [32]byte(r.Content),
		}
	}
	return out
}

// RecordModules converts a manifest's module table back to the manager's
// module records.
func RecordModules(mods []store.Module) []ModuleRecord {
	out := make([]ModuleRecord, len(mods))
	for i, s := range mods {
		out[i] = ModuleRecord{
			Path: s.Path, Base: s.Base, Size: s.Size, MTime: s.MTime,
			Digest: s.Digest, Key: Key(s.Key), Content: Key(s.Content),
		}
	}
	return out
}

// ToStoreFormat converts a cache file into a manifest plus one blob per
// trace, aligned index-for-index with the manifest's trace refs. Blob
// hashes in the manifest are left zero; the caller fills them from the
// store's PutAll (which hashes while writing) to avoid encoding twice.
func ToStoreFormat(cf *CacheFile) (*store.Manifest, []*store.Blob, error) {
	man, mods, err := manifestOf(cf)
	if err != nil {
		return nil, nil, err
	}
	refOf := func(mi int32) (store.Ref, error) { return mods[mi], nil }
	blobs := make([]*store.Blob, len(cf.Traces))
	for i, t := range cf.Traces {
		if blobs[i], _, err = store.BlobFromTrace(t, refOf); err != nil {
			return nil, nil, err
		}
	}
	return man, blobs, nil
}

// manifestOf is cf's manifest with every trace ref but its blob hash filled
// in, and the identity (content key, base) of each of cf's modules, which
// is what a trace's blob records of the modules it refers to. Every module
// index in cf's traces is checked to be in the table.
func manifestOf(cf *CacheFile) (*store.Manifest, []store.Ref, error) {
	if err := cf.checkTraceModules(); err != nil {
		return nil, nil, err
	}
	man := &store.Manifest{
		AppKey: [32]byte(cf.AppKey), VMKey: [32]byte(cf.VMKey), ToolKey: [32]byte(cf.ToolKey),
		AppPath:  cf.AppPath,
		Modules:  storeModules(cf.Modules),
		CodePool: cf.CodePool, DataPool: cf.DataPool,
		Traces: make([]store.TraceRef, len(cf.Traces)),
	}
	for i, t := range cf.Traces {
		man.Traces[i] = store.TraceRef{Refs: store.TraceRefs(t), OptLevel: t.OptLevel}
	}
	mods := make([]store.Ref, len(cf.Modules))
	for i, rec := range cf.Modules {
		mods[i] = store.Ref{Content: [32]byte(rec.Content), Base: rec.Base}
	}
	return man, mods, nil
}

// encodeBlobs returns the blob encodings of the traces of cf that want
// marks, index for index (nil for the others), each appended straight into
// one arena sized exactly for all of them. Ref slot j of trace i is module
// man.Traces[i].Refs[j], and mods holds each module's identity.
func encodeBlobs(cf *CacheFile, man *store.Manifest, mods []store.Ref, want func(*vm.Trace) bool) [][]byte {
	size := 0
	for i, t := range cf.Traces {
		if want(t) {
			size += store.BlobLen(t, len(man.Traces[i].Refs))
		}
	}
	arena := make([]byte, 0, size)
	encs := make([][]byte, len(cf.Traces))
	for i, t := range cf.Traces {
		if want(t) {
			start := len(arena)
			arena = store.AppendBlob(arena, t, mods, man.Traces[i].Refs)
			encs[i] = arena[start:len(arena):len(arena)]
		}
	}
	return encs
}

// Publication is a run's commit as PUBLISH carries it: the run's manifest,
// the pack files of the blobs of the traces it encoded, and how many traces
// it translated.
type Publication struct {
	Manifest []byte
	Packs    [][]byte
	Fresh    int
}

// NewPublication builds cf's publication. A trace read from a blob and
// unchanged since (vm.Trace.Addr) is named by that address, as a commit
// writes it, unless all is set; every other trace is encoded into the
// packs. Fresh counts the traces not Persisted. cf's traces must be
// distinct, as a Delta's are: a pack lists each blob once.
func NewPublication(cf *CacheFile, all bool) (*Publication, error) {
	man, mods, err := manifestOf(cf)
	if err != nil {
		return nil, err
	}
	pub := &Publication{}
	encoded := encodeBlobs(cf, man, mods, func(t *vm.Trace) bool { return t.Addr == nil || all })
	var hashes []store.Hash
	var encs [][]byte
	for i, t := range cf.Traces {
		if !t.Persisted {
			pub.Fresh++
		}
		if enc := encoded[i]; enc != nil {
			man.Traces[i].Blob = store.Sum(enc)
			hashes, encs = append(hashes, man.Traces[i].Blob), append(encs, enc)
		} else {
			man.Traces[i].Blob = *t.Addr
		}
	}
	pub.Manifest, pub.Packs = man.Encode(), store.EncodePacks(hashes, encs)
	return pub, nil
}

// CommitPublication commits a publication another machine sent: its
// manifest and packs are verified whole before the store takes the members
// the manifest references (Store.PutPacks), then the manifest is read back
// as a launch reads it, each blob checked against its hash and the module
// table, and committed as the run's Delta. A blob the store cannot supply
// is ErrNoCache, on which the sender sends every blob.
func (m *Manager) CommitPublication(pub *Publication) (*CommitReport, error) {
	man, err := store.DecodeManifest(pub.Manifest)
	if err != nil {
		return nil, err
	}
	st, err := m.Store()
	if err == nil {
		err = st.PutPacks(pub.Packs, man)
	}
	var cf *CacheFile
	if err == nil {
		cf, err = materializeManifest(man, st, nil)
	}
	if errors.Is(err, errBlobsUnavailable) {
		err = fmt.Errorf("%w: %v", ErrNoCache, err)
	}
	if err != nil {
		return nil, err
	}
	d := deltaOf(cf)
	d.Fresh = min(pub.Fresh, d.Len())
	return m.CommitFile(d)
}

// MaterializeManifest rebuilds a cache file from a manifest and the local
// store: each blob is read from disk, wherever it lies, and decoded once,
// straight into the trace (store.LocalTraces), which keeps the address it
// was read under. The caller owns the file and every trace in it. A blob
// the store does not hold, or whose file fails a check (the store
// quarantines that file), returns errBlobsUnavailable; a blob that is not
// the one the manifest was written against is any other error.
func (m *Manager) MaterializeManifest(man *store.Manifest) (*CacheFile, error) {
	st, err := m.Store()
	if err != nil {
		return nil, err
	}
	return materializeManifest(man, st, nil)
}

// PackSource fetches from another machine the pack files that hold the
// blobs with the given hashes — in practice a cache-server transport's
// FETCHPACKS.
type PackSource func(missing []store.Hash) ([][]byte, error)

// MaterializeFrom is MaterializeManifest for a manifest another machine
// served: the blobs the local store lacks arrive from src as whole pack
// files, which the store verifies and adopts (store.AdoptPacks), and the
// manifest is then read exactly as a local warm launch reads it. Packs that
// fail verification are refused whole, and the blobs they held stay
// missing.
func (m *Manager) MaterializeFrom(man *store.Manifest, src PackSource) (*CacheFile, error) {
	st, err := m.Store()
	if err != nil {
		return nil, err
	}
	if err := fetchMissing(st, man, nil, src); err != nil {
		return nil, err
	}
	return materializeManifest(man, st, nil)
}

// fetchMissing has src bring the packs that hold the blobs of man's traces
// keep marks (every one when keep is nil) that st lacks, and st adopt them.
func fetchMissing(st *store.Store, man *store.Manifest, keep []bool, src PackSource) error {
	missing := st.Missing(man, keep)
	if len(missing) == 0 {
		return nil
	}
	packs, err := src(missing)
	if err == nil {
		err = st.AdoptPacks(packs)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", errBlobsUnavailable, err)
	}
	return nil
}

// materializeManifest is MaterializeManifest over an explicit store, for the
// traces keep marks (every one when keep is nil).
func materializeManifest(man *store.Manifest, st *store.Store, keep []bool) (*CacheFile, error) {
	cf := &CacheFile{
		AppKey: Key(man.AppKey), VMKey: Key(man.VMKey), ToolKey: Key(man.ToolKey),
		AppPath: man.AppPath,
		Modules: RecordModules(man.Modules),
	}
	traces, err := st.LocalTraces(man, keep)
	if errors.Is(err, store.ErrBlobMissing) || errors.Is(err, store.ErrBlobCorrupt) {
		return nil, fmt.Errorf("%w: %v", errBlobsUnavailable, err)
	}
	if err != nil {
		return nil, err
	}
	cf.Traces = traces
	cf.recomputePools()
	cf.EncodedBytes = man.EncodedBytes
	return cf, nil
}

// decodeManifestAt reads and decodes the manifest at path. Read errors pass
// through untouched; a manifest that does not decode is quarantined
// (errQuarantined). A file that still holds the bytes the manager decoded
// last is not decoded again: a launch primes from its entry and, a run
// later, commits into the same entry.
func (m *Manager) decodeManifestAt(path string) (*store.Manifest, error) {
	b, err := m.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if last := m.lastDecoded.Load(); last != nil && last.path == path && bytes.Equal(last.raw, b) {
		return last.man, nil
	}
	man, err := store.DecodeManifest(b)
	if err != nil {
		m.quarantine(path, "manifest")
		return nil, fmt.Errorf("%w: %s: %v", errQuarantined, path, err)
	}
	m.lastDecoded.Store(&decodedManifest{path: path, raw: b, man: man})
	return man, nil
}

// decodedManifest is the manifest the manager decoded last: where it was,
// the bytes it was decoded from, and the decode, which nothing modifies.
type decodedManifest struct {
	path string
	raw  []byte
	man  *store.Manifest
}

// readVerifiedTraces materializes the traces keep marks (every one when
// keep is nil) of man, the manifest at path, and — when enabled —
// deep-verifies them. Blobs that cannot all be resolved degrade to a miss
// (fs.ErrNotExist) without quarantine; a manifest whose blobs are not the
// ones it was written against, or traces the deep verifier rejects, are
// quarantined like a corrupt cache file. What keep leaves out is neither
// read nor judged.
func (m *Manager) readVerifiedTraces(path string, man *store.Manifest, keep []bool) (*CacheFile, error) {
	st, err := m.Store()
	var cf *CacheFile
	if err == nil {
		cf, err = materializeManifest(man, st, keep)
	}
	switch {
	case err == nil:
	case errors.Is(err, errBlobsUnavailable):
		return nil, fmt.Errorf("%w: %s", fs.ErrNotExist, path)
	default:
		m.quarantine(path, "manifest")
		return nil, fmt.Errorf("%w: %s: %v", errQuarantined, path, err)
	}
	if m.deepVerify {
		if rep := cf.VerifyDeep(); !rep.OK() {
			m.countVerifyRejects(rep)
			m.quarantine(path, "verify")
			return nil, fmt.Errorf("%w: %s: %v", errQuarantined, path, rep.Err())
		}
	}
	return cf, nil
}

// PrimeFromManifest primes v from a manifest another machine served, the
// way a launch primes from a local one: what installs is decided from the
// manifest alone (planPrime), and only the blobs of the traces that do are
// fetched — src brings the packs holding those the local store lacks, which
// the store verifies and adopts — and read. A manifest none of whose traces
// can install in v costs no fetch at all.
func (m *Manager) PrimeFromManifest(v *vm.VM, man *store.Manifest, src PackSource) (*PrimeReport, error) {
	rep, states, keep, err := m.planPrime(v, man)
	if err != nil {
		return rep, err
	}
	st, err := m.Store()
	if err == nil {
		err = fetchMissing(st, man, keep, src)
	}
	var cf *CacheFile
	if err == nil {
		cf, err = materializeManifest(man, st, keep)
	}
	if err != nil {
		return &PrimeReport{}, err
	}
	m.installTraces(v, cf.Traces, states, true, rep)
	return rep, nil
}

// planPrime is what a prime decides from a manifest before it reads a
// blob: admit checks the keys and classifies the module table against v's
// mappings, once, and each trace ref is judged by the modules its Refs
// name, which are the trace's own and those its relocation notes target.
// keep marks the traces to read and install (nil: every one), and rep
// counts the others by reason, as install would have counted them.
func (m *Manager) planPrime(v *vm.VM, man *store.Manifest) (rep *PrimeReport, states []modState, keep []bool, err error) {
	rep = &PrimeReport{Found: true, CacheTraces: len(man.Traces)}
	states, err = m.admit(v, Key(man.VMKey), Key(man.ToolKey), RecordModules(man.Modules))
	if err != nil {
		return rep, nil, nil, err
	}
	for i, tr := range man.Traces {
		switch worstRef(states, tr.Refs) {
		case modOK, modRebase:
			continue
		case modMissing:
			rep.InvalidMissing++
		case modContent:
			rep.InvalidContent++
		case modBaseOnly:
			rep.InvalidBase++
		}
		if keep == nil {
			keep = make([]bool, len(man.Traces))
			for j := range keep {
				keep[j] = true
			}
		}
		keep[i] = false
	}
	return rep, states, keep, nil
}

// priorManifest reads the manifest of the entry at path for a commit into
// it. An entry that is missing or does not decode is no prior, as for
// Lookup, and neither is one whose blobs the store does not all hold.
func (m *Manager) priorManifest(path string) (*store.Manifest, error) {
	man, err := m.decodeManifestAt(path)
	if err != nil {
		return nil, err
	}
	st, err := m.Store()
	if err == nil && len(st.Missing(man, nil)) > 0 {
		err = fmt.Errorf("%w: %s: blobs missing", fs.ErrNotExist, path)
	}
	return man, err
}

// mergeManifest is CommitFile's merge of d into the store-format entry at
// path, under the lock, decided on the entry's manifest before any of its
// blobs is read:
//   - a prior trace whose blob the run reused (same address, same module
//     path) is in the merge already;
//   - one whose mappings do not validate against the run's module table is
//     dropped unread;
//   - only the rest, normally none, is read and accumulated as
//     MergeCacheFiles accumulates a prior trace.
//
// A prior that priorManifest refuses, or whose rest cannot be read, is no
// prior.
func (m *Manager) mergeManifest(d *Delta, path string) (*CacheFile, *CommitReport, error) {
	man, err := m.priorManifest(path)
	if err != nil {
		return newMerge(d, m.relocatable).withoutPrior(m.lookupFailed("exact", err))
	}
	modules := RecordModules(man.Modules)
	if d.AddsNothing(len(man.Traces), modules) {
		return nil, m.skipped(man, path), nil
	}
	g := newMerge(d, m.relocatable)
	states := g.classify(modules)
	reused := make(map[store.Hash]string, len(d.Reused))
	for _, t := range d.Reused {
		reused[*t.Addr] = d.Modules[t.Module].Path
	}
	dropped := 0
	var keep []bool
	for i, tr := range man.Traces {
		if p, ok := reused[tr.Blob]; ok && p == man.Modules[tr.Refs[0]].Path {
			continue
		}
		if worstRef(states, tr.Refs) > modRebase {
			dropped++
			continue
		}
		if keep == nil {
			keep = make([]bool, len(man.Traces))
		}
		keep[i] = true
	}
	if keep != nil {
		prior, err := m.readVerifiedTraces(path, man, keep)
		if err != nil {
			return g.withoutPrior(m.lookupFailed("exact", err))
		}
		for _, t := range prior.Traces {
			g.add(t, states, true)
		}
	}
	m.lookupHit("exact", man.EncodedBytes)
	g.rep.Accumulate = true
	g.rep.Dropped += dropped
	cf, rep := g.finish()
	return cf, rep, nil
}

// writeStoreFormat writes cf at path in manifest+blob form: blobs land in
// the content store first (deduplicated against existing content), then
// the manifest is written atomically — a crash between the two strands
// only orphan blobs, which compaction collects. Returns the bytes
// physically written (new blobs + manifest) and the store's put report.
func (m *Manager) writeStoreFormat(cf *CacheFile, path string) (uint64, store.PutReport, error) {
	man, mods, err := manifestOf(cf)
	if err != nil {
		return 0, store.PutReport{}, err
	}
	st, err := m.Store()
	if err != nil {
		return 0, store.PutReport{}, err
	}
	// A trace read from a blob is written by the address it was read under;
	// only the others are encoded, into the commit's arena (and one whose
	// blob has gone since, on its own).
	known := make([]store.Hash, len(cf.Traces))
	for i, t := range cf.Traces {
		if t.Addr != nil {
			known[i] = *t.Addr
		}
	}
	encs := encodeBlobs(cf, man, mods, func(t *vm.Trace) bool { return t.Addr == nil })
	putRep, hashes, err := st.Put(known, func(i int) []byte {
		if encs[i] == nil {
			return store.AppendBlob(nil, cf.Traces[i], mods, man.Traces[i].Refs)
		}
		return encs[i]
	})
	if err != nil {
		return 0, putRep, err
	}
	for i := range man.Traces {
		man.Traces[i].Blob = hashes[i]
	}
	enc := man.Encode()
	tmp := path + ".tmp"
	if err := m.fs.WriteFile(tmp, enc, 0o644); err != nil {
		return 0, putRep, err
	}
	if err := m.fs.Rename(tmp, path); err != nil {
		return 0, putRep, err
	}
	return putRep.AddedBytes + uint64(len(enc)), putRep, nil
}

// FileStem strips the format extension, leaving the key-set lookup hash —
// the identity an entry's manifest and its legacy image share. The cache
// server names entries on the wire by stem.
func FileStem(file string) string {
	return strings.TrimSuffix(strings.TrimSuffix(file, ".pcc"), ".pcm")
}

// MigrateReport summarizes one in-place format migration.
type MigrateReport struct {
	Scanned     int    `json:"scanned"`      // legacy cache files examined
	Migrated    int    `json:"migrated"`     // converted to manifest+blobs
	Quarantined int    `json:"quarantined"`  // images, manifests, packs and loose blobs that failed decode or verification
	BlobsAdded  int    `json:"blobs_added"`  // new blobs written to the store
	BlobsShared int    `json:"blobs_shared"` // blob writes elided by dedup
	BlobsFolded int    `json:"blobs_folded"` // loose blob files folded into packs
	BytesBefore uint64 `json:"bytes_before"` // legacy bytes of migrated files
	BytesAfter  uint64 `json:"bytes_after"`  // manifest + new blob bytes written
}

// MigrateToStore converts every legacy cache file in the database to the
// manifest+blob format in place; it is the one reader of a legacy image.
// Files that fail decoding or the deep trace verifier are quarantined —
// migration refuses to launder corrupt state into the new format. An entry
// a launch has committed a manifest for since its image was written keeps
// that manifest, which is authoritative for the layout, with the image
// merged into it as the prior (MergeCacheFiles). The store's loose blob
// files are folded into packs first (store.FoldLoose), so the images' blobs
// dedup against them. A recovery pass runs afterwards, so the database ends
// exactly as one would leave it.
func (m *Manager) MigrateToStore() (*MigrateReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	unlock, err := m.lockDB()
	if err != nil {
		return nil, err
	}
	defer unlock()

	st, err := m.Store()
	if err != nil {
		return nil, err
	}
	folded, quarantined, err := st.FoldLoose()
	if err != nil {
		return nil, err
	}
	rep := &MigrateReport{BlobsFolded: folded, Quarantined: quarantined}
	files, err := m.fs.Glob(filepath.Join(m.dir, "*.pcc"))
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		rep.Scanned++
		size := m.fileSize(f)
		// The deep verifier gates migration unconditionally: a semantically
		// broken file must not survive the format change.
		cf, err := ReadCacheFileFS(m.fs, f)
		if cf = m.verifiedOrQuarantine(f, "cachefile", cf, err); cf == nil {
			rep.Quarantined++
			continue
		}
		manPath := strings.TrimSuffix(f, ".pcc") + ".pcm"
		newer, err := m.readVerified(manPath)
		switch {
		case err == nil:
			if cf, _, err = MergeCacheFiles(newer, cf, m.relocatable); err != nil {
				return rep, err
			}
		case errors.Is(err, errQuarantined):
			rep.Quarantined++
		case !errors.Is(err, fs.ErrNotExist):
			return rep, err
		}
		written, putRep, err := m.writeStoreFormat(cf, manPath)
		if err != nil {
			return rep, err
		}
		if err := m.fs.Remove(f); err != nil {
			return rep, err
		}
		rep.Migrated++
		rep.BytesBefore += size
		rep.BytesAfter += written
		rep.BlobsAdded += putRep.Added
		rep.BlobsShared += putRep.Deduped
	}
	// Recover what survived; this also deep-verifies the migrated entries
	// end to end through the manifest path.
	rrep, err := m.recoverLocked()
	if err != nil {
		return rep, err
	}
	rep.Quarantined += rrep.FilesQuarantined
	rep.BlobsFolded += rrep.BlobsFolded
	return rep, nil
}

// CompactStore reclaims the blobs no manifest in this database references
// any more (left behind by merges, evictions and interrupted commits).
func (m *Manager) CompactStore() (*store.CompactReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	unlock, err := m.lockDB()
	if err != nil {
		return nil, err
	}
	defer unlock()

	st, err := m.Store()
	if err != nil {
		return nil, err
	}

	manifests, err := m.fs.Glob(filepath.Join(m.dir, "*.pcm"))
	if err != nil {
		return nil, err
	}
	live := make(map[store.Hash]bool)
	for _, f := range manifests {
		// A manifest that cannot be read now is not evidence its blobs are
		// dead: only one that is gone leaves the live set.
		b, err := m.fs.ReadFile(f)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		man, err := store.DecodeManifest(b)
		if err != nil {
			m.quarantine(f, "manifest")
			continue
		}
		for _, h := range man.BlobHashes() {
			live[h] = true
		}
	}
	return st.Compact(live)
}

// StoreDBStats extends DBStats with the content-store view: how many
// blob bytes the manifests logically reference versus how many distinct
// ones there are — the deduplication win.
type StoreDBStats struct {
	Manifests    int     `json:"manifests"`
	Blobs        int     `json:"blobs"`
	BlobBytes    uint64  `json:"blob_bytes"`    // physical bytes in the store (packs, indexes included, and loose files)
	LogicalBytes uint64  `json:"logical_bytes"` // per-manifest referenced bytes, duplicates counted
	DedupRatio   float64 `json:"dedup_ratio"`   // 1 - referenced-once/logical
	Generations  int     `json:"generations"`
	Packs        int     `json:"packs"`       // not carried by the wire STATS response
	LooseBlobs   int     `json:"loose_blobs"` // likewise: one-file-per-blob leftovers of earlier versions, not folded yet
}

// StoreStats computes the dedup summary; the cache server attaches it to
// its STATS response.
func (m *Manager) StoreStats() (*StoreDBStats, error) {
	st, err := m.Store()
	if err != nil {
		return nil, err
	}
	manifests, err := m.fs.Glob(filepath.Join(m.dir, "*.pcm"))
	if err != nil {
		return nil, err
	}
	ss := st.Stats()
	out := &StoreDBStats{
		Blobs: ss.Blobs, BlobBytes: ss.BlobBytes, Generations: ss.Generations,
		Packs: ss.Packs, LooseBlobs: ss.LooseBlobs,
	}
	// Both sides of the ratio count a blob at its encoded length
	// (Store.SizeOf): blobs of one commit share a compressed stream, so
	// none has a physical size of its own, and the ratio is what content
	// addressing saves, apart from what compression saves (BlobBytes).
	var logical, physical uint64
	sizes := make(map[store.Hash]uint64) // each referenced blob is sized once
	for _, f := range manifests {
		b, err := m.fs.ReadFile(f)
		if err != nil {
			continue
		}
		man, err := store.DecodeManifest(b)
		if err != nil {
			continue
		}
		out.Manifests++
		logical += man.EncodedBytes
		for _, h := range man.BlobHashes() {
			size, seen := sizes[h]
			if !seen {
				var ok bool
				if size, ok = st.SizeOf(h); !ok {
					continue
				}
				sizes[h] = size
				physical += size
			}
			logical += size
		}
		physical += man.EncodedBytes
	}
	out.LogicalBytes = logical
	if logical > 0 {
		out.DedupRatio = 1 - float64(physical)/float64(logical)
	}
	return out, nil
}

// ManifestBytes returns a database entry's manifest verbatim, or ErrNoCache
// when it is missing: the cache server's serving path. Nothing is
// materialized or re-encoded; the client verifies what it receives.
func (m *Manager) ManifestBytes(file string) ([]byte, error) {
	b, err := m.fs.ReadFile(filepath.Join(m.dir, file))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNoCache
	}
	return b, err
}

// CacheFileNameFor returns the database file name a commit for ks writes:
// its manifest's.
func (m *Manager) CacheFileNameFor(ks KeySet) string {
	return ks.ManifestFileName()
}
