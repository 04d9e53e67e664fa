// Package store is the content-addressed, deduplicated, tiered trace
// store. One blob holds one translated trace keyed by the SHA-256 of its
// encoded bytes — instructions, analysis ops and the relocation recipe —
// so two applications that translate the same shared-library code at the
// same placement produce the *same* blob and share a single on-disk copy.
// Per-application manifests (manifest.go) reference blobs by hash instead
// of embedding trace bodies, blobs reach the disk a commit at a time as
// immutable packs (pack.go, store.go) that compaction (compact.go) removes
// or rewrites once manifests stop referencing their blobs, and the tiered
// lookup (tiered.go) resolves a hash through an in-process L1 map, the
// local content store L2, and optionally a cache-server fleet L3.
//
//pcc:fsxseam
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"persistcc/internal/binenc"
	"persistcc/internal/isa"
	"persistcc/internal/obj"
	"persistcc/internal/vm"
)

// blobMagic identifies encoded blobs holding unoptimized traces. The
// encoding under it is frozen: a trace translated without the optimizer
// must hash to the same address it always has, so optimizer-enabled and
// legacy deployments keep deduplicating against each other's blobs.
var blobMagic = [4]byte{'P', 'C', 'B', '1'}

// blobMagicOpt identifies blobs holding optimizer-rewritten traces. The
// body is the PCB1 layout plus an optimization tail (level, original
// length, source map), so an optimized trace always has a distinct content
// address from its unoptimized form.
var blobMagicOpt = [4]byte{'P', 'C', 'B', '2'}

const (
	maxBlobRefs  = 64
	maxBlobInsts = 4096
)

// Hash is a blob's content address: SHA-256 over its encoded bytes.
type Hash [32]byte

// Hex returns the full lowercase hex form — a file name stem.
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

// String abbreviates the hash for logs and reports.
func (h Hash) String() string { return hex.EncodeToString(h[:8]) }

// ParseHash parses the full hex form produced by Hex.
func ParseHash(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(h) {
		return h, fmt.Errorf("store: bad blob hash %q", s)
	}
	copy(h[:], b)
	return h, nil
}

// Ref identifies one module the blob's code is tied to: the module's
// base-insensitive content key plus the base address the code was
// translated at. Refs make a blob self-describing — two traces hash
// identically exactly when they run the same library content at the same
// placement, which is the precondition for safely sharing the translation.
// Ref 0 is always the blob's own (containing) module.
type Ref struct {
	Content [32]byte // core.ContentKey of the module
	Base    uint32   // module base at translation time
}

// Blob is one translated trace in interchange form. Notes carry blob-local
// ref indices (into Refs) instead of process module-table indices; the
// manifest maps them back when the blob is materialized. The trace start
// address is derived (Refs[0].Base + ModOff), not stored.
type Blob struct {
	Refs   []Ref
	ModOff uint32
	Insts  []isa.Inst
	Ops    []vm.AnalysisOp
	Notes  []vm.RelocNote // Target = index into Refs

	// Optimization tail (PCB2 blobs only; zero values for PCB1).
	OptLevel uint8
	OrigLen  uint16
	SrcIdx   []uint16
}

// Encode serializes the blob deterministically. The encoding is the unit
// of content addressing: Hash() is the SHA-256 of exactly these bytes.
func (b *Blob) Encode() []byte {
	w := &binenc.Writer{}
	if b.OptLevel > 0 {
		w.Raw(blobMagicOpt[:])
	} else {
		w.Raw(blobMagic[:])
	}
	w.U32(uint32(len(b.Refs)))
	for _, ref := range b.Refs {
		w.Raw(ref.Content[:])
		w.U32(ref.Base)
	}
	w.U32(b.ModOff)
	w.U32(uint32(len(b.Insts)))
	for _, in := range b.Insts {
		w.U64(in.EncodeWord())
	}
	w.U32(uint32(len(b.Ops)))
	for _, op := range b.Ops {
		w.U16(op.Pos)
		w.U16(uint16(op.Kind))
		w.U64(op.Arg)
		w.U32(op.Cost)
		w.Bool(op.Spilled)
	}
	w.U32(uint32(len(b.Notes)))
	for _, n := range b.Notes {
		w.U16(n.InstIdx)
		w.U8(uint8(n.Type))
		w.U32(uint32(n.Target))
		w.U32(n.TargetOff)
	}
	if b.OptLevel > 0 {
		w.U8(b.OptLevel)
		w.U16(b.OrigLen)
		w.U32(uint32(len(b.SrcIdx)))
		for _, s := range b.SrcIdx {
			w.U16(s)
		}
	}
	return w.Buf
}

// Sum returns the content address of the encoded form.
func Sum(encoded []byte) Hash { return sha256.Sum256(encoded) }

// Hash returns the blob's content address.
func (b *Blob) Hash() Hash { return Sum(b.Encode()) }

// DecodeBlob parses an encoded blob. Integrity is the caller's concern:
// the store verifies that the bytes hash to the file's name before
// decoding, so a trailer would be redundant.
func DecodeBlob(buf []byte) (*Blob, error) {
	r := &binenc.Reader{Buf: buf}
	magic := r.Raw(4)
	optimized := false
	if r.Err == nil {
		switch string(magic) {
		case string(blobMagic[:]):
		case string(blobMagicOpt[:]):
			optimized = true
		default:
			return nil, fmt.Errorf("store: bad blob magic %q", magic)
		}
	}
	b := &Blob{}
	for i, n := 0, r.Count(maxBlobRefs); i < n && r.Err == nil; i++ {
		var ref Ref
		copy(ref.Content[:], r.Raw(32))
		ref.Base = r.U32()
		b.Refs = append(b.Refs, ref)
	}
	b.ModOff = r.U32()
	for i, n := 0, r.Count(maxBlobInsts); i < n && r.Err == nil; i++ {
		in, err := isa.DecodeWord(r.U64())
		if r.Err == nil && err != nil {
			return nil, fmt.Errorf("store: blob inst %d: %w", i, err)
		}
		b.Insts = append(b.Insts, in)
	}
	for i, n := 0, r.Count(maxBlobInsts*4); i < n && r.Err == nil; i++ {
		var op vm.AnalysisOp
		op.Pos = r.U16()
		op.Kind = vm.OpKind(r.U16())
		op.Arg = r.U64()
		op.Cost = r.U32()
		op.Spilled = r.Bool()
		b.Ops = append(b.Ops, op)
	}
	for i, n := 0, r.Count(maxBlobInsts); i < n && r.Err == nil; i++ {
		var note vm.RelocNote
		note.InstIdx = r.U16()
		note.Type = obj.RelocType(r.U8())
		note.Target = int32(r.U32())
		note.TargetOff = r.U32()
		b.Notes = append(b.Notes, note)
	}
	if optimized {
		b.OptLevel = r.U8()
		b.OrigLen = r.U16()
		for i, n := 0, r.Count(maxBlobInsts); i < n && r.Err == nil; i++ {
			b.SrcIdx = append(b.SrcIdx, r.U16())
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("store: blob decode: %w", err)
	}
	if len(b.Refs) == 0 {
		return nil, fmt.Errorf("store: blob has no module refs")
	}
	if len(b.Insts) == 0 {
		return nil, fmt.Errorf("store: blob has no instructions")
	}
	for i, n := range b.Notes {
		if n.Target < 0 || int(n.Target) >= len(b.Refs) {
			return nil, fmt.Errorf("store: blob note %d targets ref %d of %d", i, n.Target, len(b.Refs))
		}
	}
	if optimized && b.OptLevel == 0 {
		return nil, fmt.Errorf("store: optimized blob with level 0")
	}
	if err := vm.CheckOptMeta(b.OptLevel, b.OrigLen, b.SrcIdx, len(b.Insts)); err != nil {
		return nil, fmt.Errorf("store: blob: %w", err)
	}
	return b, nil
}

// BlobFromTrace converts a trace to interchange form. refOf maps a process
// module-table index to that module's (content key, base) identity; the
// returned indices map blob-local ref slots back to module-table indices
// (slot 0 is t.Module). Traces without a file-backed module cannot be
// persisted and are rejected, mirroring the legacy cache-file writer.
func BlobFromTrace(t *vm.Trace, refOf func(module int32) (Ref, error)) (*Blob, []int32, error) {
	if t.Module < 0 {
		return nil, nil, fmt.Errorf("store: trace at %#x is not file-backed", t.Start)
	}
	b := &Blob{
		ModOff:   t.ModOff,
		Insts:    append([]isa.Inst(nil), t.Insts...),
		Ops:      append([]vm.AnalysisOp(nil), t.Ops...),
		OptLevel: t.OptLevel,
		OrigLen:  t.OrigLen,
	}
	if t.SrcIdx != nil {
		b.SrcIdx = append([]uint16(nil), t.SrcIdx...)
	}
	modules := []int32{t.Module}
	slot := map[int32]int32{t.Module: 0}
	r0, err := refOf(t.Module)
	if err != nil {
		return nil, nil, err
	}
	b.Refs = []Ref{r0}
	for _, n := range t.Notes {
		s, ok := slot[n.Target]
		if !ok {
			ref, err := refOf(n.Target)
			if err != nil {
				return nil, nil, err
			}
			s = int32(len(b.Refs))
			slot[n.Target] = s
			b.Refs = append(b.Refs, ref)
			modules = append(modules, n.Target)
		}
		n.Target = s
		b.Notes = append(b.Notes, n)
	}
	return b, modules, nil
}

// Materialize rebuilds a trace from the blob. modules maps blob-local ref
// slots to module-table indices in the consuming cache file (the inverse
// of the mapping BlobFromTrace returned); it must cover every ref. The
// returned trace owns its slices — blobs are shared across manifests and
// may be cached decoded, so callers must not see aliased state.
func (b *Blob) Materialize(modules []int32) (*vm.Trace, error) {
	if len(modules) != len(b.Refs) {
		return nil, fmt.Errorf("store: materialize got %d module indices for %d refs", len(modules), len(b.Refs))
	}
	t := &vm.Trace{
		Start:    b.Refs[0].Base + b.ModOff,
		Module:   modules[0],
		ModOff:   b.ModOff,
		Insts:    append([]isa.Inst(nil), b.Insts...),
		Ops:      append([]vm.AnalysisOp(nil), b.Ops...),
		OptLevel: b.OptLevel,
		OrigLen:  b.OrigLen,
	}
	if b.SrcIdx != nil {
		t.SrcIdx = append([]uint16(nil), b.SrcIdx...)
	}
	for _, n := range b.Notes {
		n.Target = modules[n.Target]
		t.Notes = append(t.Notes, n)
	}
	t.RecomputeStatic()
	return t, nil
}
