package core

import (
	"encoding/binary"
	"errors"
	"io/fs"
	"path/filepath"
	"slices"

	"persistcc/internal/binenc"
	"persistcc/internal/store"
)

// The database directory is its own index: every manifest carries its key
// set, application path, trace count and pool sizes in its header, so
// listing the directory and reading those headers is the whole catalogue.

// IndexEntry describes one cache file in the database.
type IndexEntry struct {
	App      string `json:"app"`
	VM       string `json:"vm"`
	Tool     string `json:"tool"`
	AppPath  string `json:"app_path"`
	File     string `json:"file"`
	Traces   int    `json:"traces"`
	CodePool uint64 `json:"code_pool"`
	DataPool uint64 `json:"data_pool"`
}

// Entries lists the database, one entry per manifest, each read from its
// file's header. A file whose header does not read is left out: it cannot
// be served, and Lookup or RecoverIndex quarantines it.
func (m *Manager) Entries() ([]IndexEntry, error) {
	files, err := m.fs.Glob(filepath.Join(m.dir, "*.pcm"))
	if err != nil {
		return nil, err
	}
	slices.Sort(files)
	entries := make([]IndexEntry, 0, len(files))
	for _, f := range files {
		if e, err := m.Entry(filepath.Base(f)); err == nil {
			entries = append(entries, e)
		}
	}
	return entries, nil
}

// Entry reads one database entry, the manifest named file, from its header.
// A missing file, or one whose header does not read, is ErrNoCache.
func (m *Manager) Entry(file string) (IndexEntry, error) {
	path := filepath.Join(m.dir, file)
	fi, err := m.fs.Stat(path)
	var e IndexEntry
	if err == nil {
		e, err = readEntryHeader(func(off int64, n int) ([]byte, error) {
			return m.fs.ReadFileRange(path, off, n)
		}, fi.Size())
	}
	switch {
	case errors.Is(err, fs.ErrNotExist), errors.Is(err, errEntryHeader):
		return IndexEntry{}, ErrNoCache
	case err != nil:
		return IndexEntry{}, err
	}
	e.File = file
	return e, nil
}

// Candidates lists the entries a lookup for ks may use, best first: the
// exact entry, then — with interApp — every entry of another application
// with the same VM and tool keys ("allowing the function to return a cache
// corresponding to any application instrumented identically"), in
// InterAppCandidates' order. Entries whose header does not read are left
// out, as Entries leaves them out.
func (m *Manager) Candidates(ks KeySet, interApp bool) ([]IndexEntry, error) {
	exact := ks.ManifestFileName()
	if !interApp {
		e, err := m.Entry(exact)
		if errors.Is(err, ErrNoCache) {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		return []IndexEntry{e}, nil
	}
	entries, err := m.Entries()
	if err != nil {
		return nil, err
	}
	var out []IndexEntry
	if i := slices.IndexFunc(entries, func(e IndexEntry) bool { return e.File == exact }); i >= 0 {
		out = append(out, entries[i])
	}
	for _, i := range InterAppCandidates(ks, entries) {
		out = append(out, entries[i])
	}
	return out, nil
}

const (
	// moduleFixedLen is a module record after its path: base, size, mtime,
	// digest, mapping key and content key.
	moduleFixedLen = 4 + 4 + 8 + 3*32
	// entryPrefixMax bounds an entry's prefix: magic, version, three keys,
	// the application path, a full module table and the trace count.
	entryPrefixMax = 4 + 4 + 3*32 + 4 + maxPathLen + 4 + maxModules*(4+maxPathLen+moduleFixedLen) + 4
	// entryTailLen is a manifest's end: the code and data pool sizes, then
	// the SHA-256 trailer.
	entryTailLen = 8 + 8 + 32
)

var errEntryHeader = errors.New("core: malformed cache file header")

// readEntryHeader reads the listing fields of an encoded manifest without
// decoding its trace table: the prefix up to the trace count,
// read in doubling chunks from 4 KiB (which holds a typical module table),
// and the pool sizes before the trailer. readAt reads n bytes at off, short
// at the end of the file; size is the file's length. The trailer is not
// checked: the entry is verified when it is read to be served.
func readEntryHeader(readAt func(off int64, n int) ([]byte, error), size int64) (IndexEntry, error) {
	limit := min(size-entryTailLen, entryPrefixMax)
	if limit <= 0 {
		return IndexEntry{}, errEntryHeader
	}
	for n := min(4096, limit); ; n = min(2*n, limit) {
		prefix, err := readAt(0, int(n))
		if err != nil {
			return IndexEntry{}, err
		}
		e, err := parseEntryPrefix(prefix)
		if err != nil {
			if int64(len(prefix)) < n || n == limit {
				return IndexEntry{}, errEntryHeader
			}
			continue
		}
		tail, err := readAt(size-entryTailLen, 16)
		if err != nil {
			return IndexEntry{}, err
		}
		if len(tail) != 16 {
			return IndexEntry{}, errEntryHeader
		}
		e.CodePool, e.DataPool = binary.LittleEndian.Uint64(tail), binary.LittleEndian.Uint64(tail[8:])
		return e, nil
	}
}

// parseEntryPrefix decodes the listing fields of a manifest's prefix:
// magic, version, three keys, the application path, the module table and
// then the trace count.
func parseEntryPrefix(b []byte) (IndexEntry, error) {
	r := &binenc.Reader{Buf: b}
	magic := r.Raw(4)
	if version := r.U32(); r.Err == nil && (string(magic) != string(store.ManifestMagic[:]) ||
		version < 1 || version > store.ManifestVersion) {
		return IndexEntry{}, errEntryHeader
	}
	var app, vmKey, tool Key
	copy(app[:], r.Raw(32))
	copy(vmKey[:], r.Raw(32))
	copy(tool[:], r.Raw(32))
	e := IndexEntry{App: app.Hex(), VM: vmKey.Hex(), Tool: tool.Hex(), AppPath: r.Str(maxPathLen)}
	for i, n := 0, r.Count(maxModules); i < n && r.Err == nil; i++ {
		r.Raw(r.Count(maxPathLen) + moduleFixedLen)
	}
	e.Traces = r.Count(maxTraces)
	return e, r.Err
}
