// Package store is the content-addressed, deduplicated, tiered trace
// store. One blob holds one translated trace keyed by the SHA-256 of its
// encoded bytes — instructions, analysis ops and the relocation recipe —
// so two applications that translate the same shared-library code at the
// same placement produce the *same* blob and share a single on-disk copy.
// Per-application manifests (manifest.go) reference blobs by hash instead
// of embedding trace bodies, blobs reach the disk a commit at a time as
// immutable packs (pack.go, store.go) that compaction (compact.go) removes
// or rewrites once manifests stop referencing their blobs. A hash resolves
// in the local content store (L2) alone; packs received whole from a
// cache-server fleet (L3) join it as they arrive, and nothing decoded is
// kept: a launch reads its manifest's blobs from disk (Store.LocalTraces).
//
//pcc:fsxseam
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"

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

// Encoded sizes of a blob's fixed-width elements.
const (
	refLen  = 36 // content[32] | u32 base
	instLen = isa.InstSize
	opLen   = 17 // u16 pos | u16 kind | u64 arg | u32 cost | u8 spilled
	noteLen = 11 // u16 inst | u8 type | u32 target | u32 target offset
	srcLen  = 2
)

// blobLayout is an encoded blob cut into its sections. Every section is a
// slice of the encoding itself, so an element count is never more than the
// input backs: decoding sizes each slice exactly and a hostile count field
// reserves nothing.
type blobLayout struct {
	refs, insts, ops, notes, src []byte

	modOff   uint32
	optLevel uint8
	origLen  uint16
}

// scanBlob validates an encoding's structure — magic, count limits, no
// truncation, no trailing bytes, at least one ref and one instruction — and
// returns its sections. Both decoders (DecodeBlob into the interchange form,
// decodeTrace into the trace a VM runs) start here, so they accept the same
// encodings.
func scanBlob(enc []byte) (blobLayout, error) {
	var l blobLayout
	r := binenc.Reader{Buf: enc}
	magic := r.Raw(4)
	optimized := false
	if r.Err == nil {
		switch string(magic) {
		case string(blobMagic[:]):
		case string(blobMagicOpt[:]):
			optimized = true
		default:
			return l, fmt.Errorf("store: bad blob magic %q", magic)
		}
	}
	l.refs = r.Raw(r.Count(maxBlobRefs) * refLen)
	l.modOff = r.U32()
	l.insts = r.Raw(r.Count(maxBlobInsts) * instLen)
	l.ops = r.Raw(r.Count(maxBlobInsts*4) * opLen)
	l.notes = r.Raw(r.Count(maxBlobInsts) * noteLen)
	if optimized {
		l.optLevel = r.U8()
		l.origLen = r.U16()
		l.src = r.Raw(r.Count(maxBlobInsts) * srcLen)
	}
	if err := r.Done(); err != nil {
		return l, fmt.Errorf("store: blob decode: %w", err)
	}
	if len(l.refs) == 0 {
		return l, fmt.Errorf("store: blob has no module refs")
	}
	if len(l.insts) == 0 {
		return l, fmt.Errorf("store: blob has no instructions")
	}
	if optimized && l.optLevel == 0 {
		return l, fmt.Errorf("store: optimized blob with level 0")
	}
	return l, nil
}

func (l *blobLayout) numRefs() int { return len(l.refs) / refLen }

// ref decodes the i'th module ref.
func (l *blobLayout) ref(i int) (ref Ref) {
	e := l.refs[i*refLen:]
	copy(ref.Content[:], e)
	ref.Base = binary.LittleEndian.Uint32(e[32:])
	return ref
}

// decodeInsts fills dst, which the caller sized to the section, validating
// every instruction.
func (l *blobLayout) decodeInsts(dst []isa.Inst) error {
	for i := range dst {
		in, err := isa.Decode(l.insts[i*instLen:])
		if err != nil {
			return fmt.Errorf("store: blob inst %d: %w", i, err)
		}
		dst[i] = in
	}
	return nil
}

func (l *blobLayout) decodeOps(dst []vm.AnalysisOp) {
	for i := range dst {
		e := l.ops[i*opLen:]
		dst[i] = vm.AnalysisOp{
			Pos:     binary.LittleEndian.Uint16(e),
			Kind:    vm.OpKind(binary.LittleEndian.Uint16(e[2:])),
			Arg:     binary.LittleEndian.Uint64(e[4:]),
			Cost:    binary.LittleEndian.Uint32(e[12:]),
			Spilled: e[16] != 0,
		}
	}
}

// decodeNotes fills dst with the notes as encoded — Target a ref slot — and
// rejects a slot the blob does not have.
func (l *blobLayout) decodeNotes(dst []vm.RelocNote) error {
	refs := l.numRefs()
	for i := range dst {
		e := l.notes[i*noteLen:]
		n := vm.RelocNote{
			InstIdx:   binary.LittleEndian.Uint16(e),
			Type:      obj.RelocType(e[2]),
			Target:    int32(binary.LittleEndian.Uint32(e[3:])),
			TargetOff: binary.LittleEndian.Uint32(e[7:]),
		}
		if n.Target < 0 || int(n.Target) >= refs {
			return fmt.Errorf("store: blob note %d targets ref %d of %d", i, n.Target, refs)
		}
		dst[i] = n
	}
	return nil
}

func (l *blobLayout) decodeSrc(dst []uint16) {
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint16(l.src[i*srcLen:])
	}
}

// slab cuts exactly-sized slices out of shared chunks: a prime decodes
// hundreds of ten-instruction traces, and one allocation per chunk is
// cheaper than one per trace. The slices do not overlap and cannot grow into
// each other (capacity is capped at length); a chunk lives as long as any
// slice cut from it does, which for traces installed together is the life
// of the code cache.
type slab[T any] struct{ free []T }

// slabChunk is the element count of one chunk (16 KB of instructions).
const slabChunk = 2048

func (s *slab[T]) take(n int) []T {
	if n > len(s.free) {
		s.free = make([]T, max(n, slabChunk))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// sized returns a slice for the n elements of one section: nil for none,
// as a decoder that appended element by element would have left it.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

// DecodeBlob parses an encoded blob. Integrity is the caller's concern:
// the store verifies that the bytes hash to their address before decoding,
// so a trailer would be redundant.
func DecodeBlob(buf []byte) (*Blob, error) {
	l, err := scanBlob(buf)
	if err != nil {
		return nil, err
	}
	b := &Blob{
		Refs:     make([]Ref, l.numRefs()),
		ModOff:   l.modOff,
		Insts:    make([]isa.Inst, len(l.insts)/instLen),
		Ops:      sized[vm.AnalysisOp](len(l.ops) / opLen),
		Notes:    sized[vm.RelocNote](len(l.notes) / noteLen),
		OptLevel: l.optLevel,
		OrigLen:  l.origLen,
		SrcIdx:   sized[uint16](len(l.src) / srcLen),
	}
	for i := range b.Refs {
		b.Refs[i] = l.ref(i)
	}
	if err := l.decodeInsts(b.Insts); err != nil {
		return nil, err
	}
	l.decodeOps(b.Ops)
	if err := l.decodeNotes(b.Notes); err != nil {
		return nil, err
	}
	l.decodeSrc(b.SrcIdx)
	if err := vm.CheckOptMeta(b.OptLevel, b.OrigLen, b.SrcIdx, len(b.Insts)); err != nil {
		return nil, fmt.Errorf("store: blob: %w", err)
	}
	return b, nil
}

// decodeTrace decodes one hash-verified encoding straight into t, the trace
// a VM will run — what DecodeBlob, Manifest.CheckBlob and Blob.Materialize
// do between them, without the interchange form in the middle, and in that
// order: bytes that do not decode are ErrBlobCorrupt (the file is bad); a
// blob that decodes but is not the one tr describes — refs other than the
// modules tr maps them to (content key and base), or another level — is a
// plain error (the manifest is bad). Notes come out carrying module-table
// indices. Instructions are cut from insts; nothing aliases enc or man.
//
//pcc:hotpath
func decodeTrace(t *vm.Trace, insts *slab[isa.Inst], enc []byte, man *Manifest, tr TraceRef) error {
	l, err := scanBlob(enc)
	if err == nil {
		*t = vm.Trace{
			ModOff:   l.modOff,
			Insts:    insts.take(len(l.insts) / instLen),
			Ops:      sized[vm.AnalysisOp](len(l.ops) / opLen),
			Notes:    sized[vm.RelocNote](len(l.notes) / noteLen),
			OptLevel: l.optLevel,
			OrigLen:  l.origLen,
			SrcIdx:   sized[uint16](len(l.src) / srcLen),
		}
		err = l.decodeInsts(t.Insts)
	}
	if err == nil {
		l.decodeOps(t.Ops)
		err = l.decodeNotes(t.Notes)
	}
	if err == nil {
		l.decodeSrc(t.SrcIdx)
		err = vm.CheckOptMeta(t.OptLevel, t.OrigLen, t.SrcIdx, len(t.Insts))
	}
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBlobCorrupt, tr.Blob, err)
	}
	if len(tr.Refs) != l.numRefs() {
		return fmt.Errorf("store: blob %s has %d refs, manifest expects %d", tr.Blob, l.numRefs(), len(tr.Refs))
	}
	for i, mi := range tr.Refs {
		mod, e := &man.Modules[mi], l.refs[i*refLen:]
		if !bytes.Equal(mod.Content[:], e[:32]) || mod.Base != binary.LittleEndian.Uint32(e[32:]) {
			return fmt.Errorf("store: blob %s ref %d does not match manifest module %d (%s)", tr.Blob, i, mi, mod.Path)
		}
	}
	if l.optLevel != tr.OptLevel {
		return fmt.Errorf("store: blob %s has optimization level %d, manifest expects %d", tr.Blob, l.optLevel, tr.OptLevel)
	}
	t.Start, t.Module = man.Modules[tr.Refs[0]].Base+l.modOff, tr.Refs[0]
	for i := range t.Notes {
		t.Notes[i].Target = tr.Refs[t.Notes[i].Target]
	}
	t.RecomputeStatic()
	return nil
}

// BlobFromTrace converts a trace to interchange form. refOf maps a process
// module-table index to that module's (content key, base) identity; the
// returned indices (TraceRefs) map blob-local ref slots back to
// module-table indices. Traces without a file-backed module cannot be
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
	modules := TraceRefs(t)
	b.Refs = make([]Ref, len(modules))
	for i, mi := range modules {
		ref, err := refOf(mi)
		if err != nil {
			return nil, nil, err
		}
		b.Refs[i] = ref
	}
	for _, n := range t.Notes {
		n.Target = int32(slices.Index(modules, n.Target))
		b.Notes = append(b.Notes, n)
	}
	return b, modules, nil
}

// TraceRefs returns the module-table indices a trace's blob ref slots stand
// for: slot 0 is t.Module, then each module a relocation note targets, in
// the order the notes first name them. It is the Refs of the trace's
// manifest entry, and needs no encoding.
func TraceRefs(t *vm.Trace) []int32 {
	modules := []int32{t.Module}
	for _, n := range t.Notes {
		if !slices.Contains(modules, n.Target) {
			modules = append(modules, n.Target)
		}
	}
	return modules
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
	t.Notes = sized[vm.RelocNote](len(b.Notes))
	for i, n := range b.Notes {
		n.Target = modules[n.Target]
		t.Notes[i] = n
	}
	t.RecomputeStatic()
	return t, nil
}
