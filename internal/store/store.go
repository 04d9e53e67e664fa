package store

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"persistcc/internal/fsx"
	"persistcc/internal/metrics"
)

// quarantineDir receives blobs whose bytes no longer hash to their name,
// mirroring the cache database's self-healing idiom.
const quarantineDir = "quarantine"

// blobZipMagic prefixes flate-compressed blob files at rest. The content
// address stays the SHA-256 of the *uncompressed* encoding, so compression
// is purely a storage detail: the wire format, the hash a file is named
// by, and every API boundary carry uncompressed bytes. A valid uncompressed
// encoding starts with the blob magic, never this one, so the prefix is
// unambiguous.
var blobZipMagic = [4]byte{'P', 'C', 'Z', '1'}

// deflateBlob compresses encoded blob bytes for storage. Payloads that do
// not shrink are stored raw (no magic); the reader distinguishes the two
// by prefix.
func deflateBlob(enc []byte) []byte {
	var buf bytes.Buffer
	buf.Write(blobZipMagic[:])
	zw, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		return enc
	}
	if _, err := zw.Write(enc); err != nil || zw.Close() != nil {
		return enc
	}
	if buf.Len() >= len(enc) {
		return enc
	}
	return buf.Bytes()
}

// inflateBlob undoes deflateBlob; raw payloads pass through untouched.
func inflateBlob(data []byte) ([]byte, error) {
	if len(data) < 4 || string(data[:4]) != string(blobZipMagic[:]) {
		return data, nil
	}
	zr := flate.NewReader(bytes.NewReader(data[4:]))
	defer zr.Close()
	return io.ReadAll(zr)
}

// ErrBlobMissing reports a hash with no local blob.
var ErrBlobMissing = errors.New("store: blob missing")

// ErrBlobCorrupt reports a blob whose bytes fail the content-address or
// decode check; callers treat it like a miss after the store quarantines
// the file.
var ErrBlobCorrupt = errors.New("store: blob corrupt")

// Store is the local content-addressed blob store (tier L2) plus its
// in-process decoded-blob map (tier L1). The blob files
// <generation>/<sha256>.pcb are the only on-disk state: presence is a
// Stat, a blob is published by renaming a synced, writer-unique temp onto
// its content address, and no file is ever rewritten in place — so any
// number of stores, in any number of processes, share one directory
// without a lock or an index to keep coherent.
type Store struct {
	dir string
	fs  fsx.FS
	met *storeMetrics

	// gens lists the generation directories, newest first, fixed at Open.
	// New blobs land in gens[0]; older generations exist only in stores an
	// earlier version compacted, and stay readable.
	gens []string

	// mu serializes this instance's writers, so a hash put twice through
	// one store is written once and counted as one write and one dedup.
	mu sync.Mutex

	l1mu sync.RWMutex
	l1   map[Hash]*Blob
}

// Open opens the store rooted at dir. All I/O goes through fsys — the
// chaos seam. Open only lists the generation directories: it writes
// nothing (the first put creates what it needs) and scrubs nothing, so it
// is safe while peers are writing.
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
	return &Store{
		dir:  dir,
		fs:   fsys,
		met:  newStoreMetrics(reg),
		gens: gens,
		l1:   make(map[Hash]*Blob),
	}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// locate finds the newest generation holding h: one Stat per generation,
// never a directory listing — this is the put and get hot path.
func (s *Store) locate(h Hash) (string, fs.FileInfo, bool) {
	name := h.Hex() + ".pcb"
	for _, g := range s.gens {
		p := filepath.Join(g, name)
		if fi, err := s.fs.Stat(p); err == nil {
			return p, fi, true
		}
	}
	return "", nil, false
}

// blobFiles lists every blob file, generation by generation. Maintenance
// only (stats, scrub, compaction): it reads whole directories.
func (s *Store) blobFiles() ([]string, error) {
	var all []string
	for _, g := range s.gens {
		files, err := s.fs.Glob(filepath.Join(g, "*.pcb"))
		if err != nil {
			return nil, err
		}
		all = append(all, files...)
	}
	return all, nil
}

// hashOf parses a blob file's name back into its content address.
func hashOf(path string) (Hash, error) {
	return ParseHash(strings.TrimSuffix(filepath.Base(path), ".pcb"))
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
	var rep PutReport
	hashes := make([]Hash, 0, len(blobs))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range blobs {
		enc := b.Encode()
		h := Sum(enc)
		hashes = append(hashes, h)
		written, err := s.put(h, enc)
		switch {
		case err != nil:
			return rep, hashes, err
		case written == 0:
			rep.Deduped++
			rep.DedupBytes += uint64(len(enc))
		default:
			rep.Added++
			rep.AddedBytes += written
		}
	}
	return rep, hashes, nil
}

// PutRaw stores already-encoded blob bytes fetched from a remote tier,
// verifying the content address and the encoding first, and returns the
// decoded blob.
func (s *Store) PutRaw(h Hash, enc []byte) (*Blob, error) {
	if Sum(enc) != h {
		return nil, fmt.Errorf("%w: fetched bytes do not hash to %s", ErrBlobCorrupt, h)
	}
	b, err := DecodeBlob(enc)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.put(h, enc); err != nil {
		return nil, err
	}
	return b, nil
}

// tmpSeq makes temp names unique within the process; the pid makes them
// unique across processes.
var tmpSeq atomic.Uint64

// put lands enc under its content address h and returns the bytes written,
// 0 when the content was already present. A new blob is deflated, written
// and synced under a temp name no other writer can share (a peer
// truncating a shared temp between our sync and rename would publish a
// short blob), then renamed into the newest generation. Callers hold s.mu.
func (s *Store) put(h Hash, enc []byte) (uint64, error) {
	if _, _, ok := s.locate(h); ok {
		s.met.dedupBlobs.Inc()
		s.met.dedupBytes.Add(uint64(len(enc)))
		return 0, nil
	}
	if err := s.fs.MkdirAll(s.gens[0], 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(s.gens[0], h.Hex()+".pcb")
	tmp := fmt.Sprintf("%s.%d.%d.tmp", path, os.Getpid(), tmpSeq.Add(1))
	stored := deflateBlob(enc)
	err := s.fs.WriteFile(tmp, stored, 0o644)
	if err == nil {
		err = s.fs.Rename(tmp, path)
	}
	if err != nil {
		s.fs.Remove(tmp)
		return 0, err
	}
	s.met.written.Inc()
	s.met.writtenBytes.Add(uint64(len(stored)))
	return uint64(len(stored)), nil
}

// Has reports whether the blob is resident locally (L1 or L2).
func (s *Store) Has(h Hash) bool {
	s.l1mu.RLock()
	_, ok := s.l1[h]
	s.l1mu.RUnlock()
	if !ok {
		_, _, ok = s.locate(h)
	}
	return ok
}

// SizeOf returns the stored size of a blob.
func (s *Store) SizeOf(h Hash) (uint64, bool) {
	_, fi, ok := s.locate(h)
	if !ok {
		return 0, false
	}
	return uint64(fi.Size()), true
}

// Get resolves a hash through L1 (in-process decoded map) then L2 (local
// disk). A disk blob that fails the content-address or decode check is
// quarantined and reported as ErrBlobCorrupt; an absent blob returns
// ErrBlobMissing. Remote tiers are layered on by Tiered.
func (s *Store) Get(h Hash) (*Blob, error) {
	s.l1mu.RLock()
	b, ok := s.l1[h]
	s.l1mu.RUnlock()
	if ok {
		s.met.hits.With("l1").Inc()
		return b, nil
	}
	enc, err := s.readRaw(h)
	if err != nil {
		return nil, err
	}
	b, err = DecodeBlob(enc)
	if err != nil {
		s.quarantineBlob(h)
		return nil, fmt.Errorf("%w: %v", ErrBlobCorrupt, err)
	}
	s.cache(h, b)
	s.met.hits.With("l2").Inc()
	return b, nil
}

// cache installs a decoded blob in L1.
func (s *Store) cache(h Hash, b *Blob) {
	s.l1mu.Lock()
	s.l1[h] = b
	s.l1mu.Unlock()
}

// GetRaw returns the verified encoded bytes of a blob — the server's
// serving path, where decoding would be wasted work.
func (s *Store) GetRaw(h Hash) ([]byte, error) {
	return s.readRaw(h)
}

// readRaw loads and hash-verifies blob bytes from disk.
func (s *Store) readRaw(h Hash) ([]byte, error) {
	path, _, ok := s.locate(h)
	if !ok {
		s.met.misses.Inc()
		return nil, fmt.Errorf("%w: %s", ErrBlobMissing, h)
	}
	data, err := s.fs.ReadFile(path)
	if err != nil {
		s.met.misses.Inc()
		return nil, fmt.Errorf("%w: %s: %v", ErrBlobMissing, h, err)
	}
	enc, err := inflateBlob(data)
	if err != nil {
		s.quarantineBlob(h)
		return nil, fmt.Errorf("%w: %s fails decompression: %v", ErrBlobCorrupt, h, err)
	}
	if Sum(enc) != h {
		s.quarantineBlob(h)
		return nil, fmt.Errorf("%w: %s fails content check", ErrBlobCorrupt, h)
	}
	return enc, nil
}

// quarantineBlob moves a corrupt blob out of the addressable space so the
// next lookup is a clean miss (and the next commit can rewrite it).
func (s *Store) quarantineBlob(h Hash) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if path, _, ok := s.locate(h); ok {
		s.quarantineFile(path)
	}
	s.l1mu.Lock()
	delete(s.l1, h)
	s.l1mu.Unlock()
}

// quarantineFile moves one blob file into the quarantine directory,
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
	Blobs       int    `json:"blobs"`
	BlobBytes   uint64 `json:"blob_bytes"`
	Generations int    `json:"generations"`
}

// Stats walks the store directory for blob count and physical bytes, and
// refreshes the pcc_store_blobs/blob_bytes/generation gauges from it.
func (s *Store) Stats() Stats {
	var st Stats
	fmt.Sscanf(filepath.Base(s.gens[0]), "gen%d", &st.Gen)
	files, _ := s.blobFiles()
	lastGen := ""
	for _, p := range files {
		fi, err := s.fs.Stat(p)
		if err != nil {
			continue
		}
		st.Blobs++
		st.BlobBytes += uint64(fi.Size())
		if g := filepath.Dir(p); g != lastGen {
			st.Generations++
			lastGen = g
		}
	}
	s.met.blobs.Set(float64(st.Blobs))
	s.met.blobBytes.Set(float64(st.BlobBytes))
	s.met.generation.Set(float64(st.Gen))
	return st
}

// RecoverReport summarizes a store recovery pass.
type RecoverReport struct {
	Blobs       int // blobs that passed the scrub
	Quarantined int // blobs whose bytes failed the content check
	TmpRemoved  int // abandoned temp files deleted
}

// Recover scrubs the store: every blob is re-hashed against its name and
// decoded (failures are quarantined), and temp files older than staleAfter
// are deleted. A younger temp may be a live writer's, between its sync and
// its rename, and is left alone.
func (s *Store) Recover(staleAfter time.Duration) (*RecoverReport, error) {
	rep := &RecoverReport{}
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
	files, err := s.blobFiles()
	if err != nil {
		return nil, err
	}
	for _, p := range files {
		h, err := hashOf(p)
		if err != nil {
			s.fs.Remove(p)
			continue
		}
		data, err := s.fs.ReadFile(p)
		if err != nil {
			continue
		}
		if enc, err := inflateBlob(data); err == nil && Sum(enc) == h {
			if _, err := DecodeBlob(enc); err == nil {
				rep.Blobs++
				continue
			}
		}
		if s.quarantineFile(p) {
			rep.Quarantined++
		}
	}
	s.l1mu.Lock()
	s.l1 = make(map[Hash]*Blob)
	s.l1mu.Unlock()
	return rep, nil
}
