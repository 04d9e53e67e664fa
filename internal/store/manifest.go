package store

import (
	"crypto/sha256"
	"fmt"

	"persistcc/internal/binenc"
)

// ManifestMagic identifies encoded manifests.
var ManifestMagic = [4]byte{'P', 'C', 'M', '1'}

// ManifestVersion is bumped on incompatible encoding changes. Version 2
// added the per-trace optimization level; version-1 manifests (all traces
// unoptimized) are still decoded.
const ManifestVersion = 2

const (
	maxManifestModules = 4096
	maxManifestTraces  = 4 << 20
	maxManifestPathLen = 4096

	// minModuleLen is the fewest bytes a module record encodes to: what a
	// module count must be backed by before the decoder reserves room for it.
	minModuleLen = 4 + 4 + 4 + 8 + 3*32
)

// Module mirrors one executable mapping captured at cache-creation time —
// the same record the legacy cache-file format carries, duplicated here so
// the store does not depend on internal/core (core depends on the store).
type Module struct {
	Path    string
	Base    uint32
	Size    uint32
	MTime   int64
	Digest  [32]byte
	Key     [32]byte // base-sensitive mapping key
	Content [32]byte // base-insensitive content key
}

// TraceRef names one trace of the application: the blob holding its body
// plus the mapping from the blob's local ref slots to this manifest's
// module table. Slot i of the blob corresponds to Modules[Refs[i]].
type TraceRef struct {
	Blob     Hash
	Refs     []int32
	OptLevel uint8 // expected optimization level of the blob (0 = unoptimized)
}

// Manifest is the per-application half of the store format: keys, the
// module table, and trace references — everything the legacy cache file
// held except the trace bodies, which live in shared blobs.
type Manifest struct {
	AppKey  [32]byte
	VMKey   [32]byte
	ToolKey [32]byte
	AppPath string

	Modules []Module
	Traces  []TraceRef

	CodePool uint64
	DataPool uint64

	// EncodedBytes is the manifest's on-disk size, set (not serialized)
	// by Encode and DecodeManifest.
	EncodedBytes uint64
}

// BlobHashes returns the distinct blob hashes the manifest references, in
// first-reference order.
func (m *Manifest) BlobHashes() []Hash {
	seen := make(map[Hash]bool, len(m.Traces))
	var out []Hash
	for _, tr := range m.Traces {
		if !seen[tr.Blob] {
			seen[tr.Blob] = true
			out = append(out, tr.Blob)
		}
	}
	return out
}

// Encode serializes the manifest with a SHA-256 integrity trailer, the
// same corruption net the legacy format uses.
func (m *Manifest) Encode() []byte {
	w := &binenc.Writer{Buf: make([]byte, 0, m.encodedLen())}
	w.Raw(ManifestMagic[:])
	w.U32(ManifestVersion)
	w.Raw(m.AppKey[:])
	w.Raw(m.VMKey[:])
	w.Raw(m.ToolKey[:])
	w.Str(m.AppPath)

	w.U32(uint32(len(m.Modules)))
	for _, mod := range m.Modules {
		w.Str(mod.Path)
		w.U32(mod.Base)
		w.U32(mod.Size)
		w.I64(mod.MTime)
		w.Raw(mod.Digest[:])
		w.Raw(mod.Key[:])
		w.Raw(mod.Content[:])
	}

	w.U32(uint32(len(m.Traces)))
	for _, tr := range m.Traces {
		w.Raw(tr.Blob[:])
		w.U32(uint32(len(tr.Refs)))
		for _, ref := range tr.Refs {
			w.U32(uint32(ref))
		}
		w.U8(tr.OptLevel)
	}
	w.U64(m.CodePool)
	w.U64(m.DataPool)

	sum := sha256.Sum256(w.Buf)
	w.Raw(sum[:])
	m.EncodedBytes = uint64(len(w.Buf))
	return w.Buf
}

// encodedLen is the length of the manifest's encoding, trailer included.
func (m *Manifest) encodedLen() int {
	n := len(ManifestMagic) + 4 + 3*32 + 4 + len(m.AppPath) + 4
	for _, mod := range m.Modules {
		n += 4 + len(mod.Path) + 4 + 4 + 8 + 3*32
	}
	n += 4
	for _, tr := range m.Traces {
		n += 32 + 4 + 4*len(tr.Refs) + 1
	}
	return n + 8 + 8 + sha256.Size
}

// DecodeManifest decodes and verifies an encoded manifest.
func DecodeManifest(b []byte) (*Manifest, error) {
	if len(b) < 32 {
		return nil, fmt.Errorf("store: manifest too short")
	}
	payload, trailer := b[:len(b)-32], b[len(b)-32:]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(trailer) {
		return nil, fmt.Errorf("store: manifest integrity check failed")
	}
	r := &binenc.Reader{Buf: payload}
	magic := r.Raw(4)
	if r.Err == nil && string(magic) != string(ManifestMagic[:]) {
		return nil, fmt.Errorf("store: bad manifest magic %q", magic)
	}
	version := r.U32()
	if r.Err == nil && (version < 1 || version > ManifestVersion) {
		return nil, fmt.Errorf("store: unsupported manifest version %d", version)
	}
	m := &Manifest{}
	copy(m.AppKey[:], r.Raw(32))
	copy(m.VMKey[:], r.Raw(32))
	copy(m.ToolKey[:], r.Raw(32))
	m.AppPath = r.Str(maxManifestPathLen)

	nm := r.Count(maxManifestModules)
	if nm > 0 {
		m.Modules = make([]Module, 0, min(nm, r.Left()/minModuleLen))
	}
	for i := 0; i < nm && r.Err == nil; i++ {
		var mod Module
		mod.Path = r.Str(maxManifestPathLen)
		mod.Base = r.U32()
		mod.Size = r.U32()
		mod.MTime = r.I64()
		copy(mod.Digest[:], r.Raw(32))
		copy(mod.Key[:], r.Raw(32))
		copy(mod.Content[:], r.Raw(32))
		m.Modules = append(m.Modules, mod)
	}

	// Every trace's Refs is cut from one slice, which a first pass over the
	// section sizes: it reads what the second does and stops where the
	// second would fail.
	n := r.Count(maxManifestTraces)
	scan, refs := *r, 0
	for i := 0; i < n && scan.Err == nil; i++ {
		scan.Raw(32)
		nr := scan.Count(maxBlobRefs)
		scan.Raw(4 * nr)
		if version >= 2 {
			scan.U8()
		}
		refs += nr
	}
	if scan.Err != nil {
		return nil, fmt.Errorf("store: manifest decode: %w", scan.Err)
	}
	if n > 0 {
		m.Traces = make([]TraceRef, n)
	}
	all := make([]int32, refs)
	for i := range m.Traces {
		tr := &m.Traces[i]
		copy(tr.Blob[:], r.Raw(32))
		nr := r.Count(maxBlobRefs)
		tr.Refs, all = all[:nr:nr], all[nr:]
		for j := range tr.Refs {
			tr.Refs[j] = int32(r.U32())
		}
		if version >= 2 {
			tr.OptLevel = r.U8()
		}
	}
	m.CodePool = r.U64()
	m.DataPool = r.U64()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("store: manifest decode: %w", err)
	}
	for i, tr := range m.Traces {
		if len(tr.Refs) == 0 {
			return nil, fmt.Errorf("store: manifest trace %d has no module refs", i)
		}
		for _, ref := range tr.Refs {
			if ref < 0 || int(ref) >= len(m.Modules) {
				return nil, fmt.Errorf("store: manifest trace %d references module %d of %d", i, ref, len(m.Modules))
			}
		}
	}
	m.EncodedBytes = uint64(len(b))
	return m, nil
}

// CheckBlob verifies that a decoded blob is consistent with the manifest's
// view of it: the ref count matches and every ref slot resolves to a
// module whose content key and base equal the blob's recorded identity.
// A mismatch means the blob on disk is not the one the manifest was
// written against.
func (m *Manifest) CheckBlob(tr TraceRef, b *Blob) error {
	if len(tr.Refs) != len(b.Refs) {
		return fmt.Errorf("store: blob %s has %d refs, manifest expects %d", tr.Blob, len(b.Refs), len(tr.Refs))
	}
	for i, ref := range tr.Refs {
		mod := m.Modules[ref]
		if mod.Content != b.Refs[i].Content || mod.Base != b.Refs[i].Base {
			return fmt.Errorf("store: blob %s ref %d does not match manifest module %d (%s)", tr.Blob, i, ref, mod.Path)
		}
	}
	if b.OptLevel != tr.OptLevel {
		return fmt.Errorf("store: blob %s has optimization level %d, manifest expects %d", tr.Blob, b.OptLevel, tr.OptLevel)
	}
	return nil
}
