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
	t := vm.Trace{
		ModOff: b.ModOff, Insts: b.Insts, Ops: b.Ops, Notes: b.Notes,
		OptLevel: b.OptLevel, OrigLen: b.OrigLen, SrcIdx: b.SrcIdx,
	}
	return AppendBlob(make([]byte, 0, BlobLen(&t, len(b.Refs))), &t, b.Refs, nil)
}

// BlobLen returns the length of t's blob encoding with refs module ref
// slots: what AppendBlob appends.
func BlobLen(t *vm.Trace, refs int) int {
	n := len(blobMagic) + 4 + refs*refLen + 4 + 4 + len(t.Insts)*instLen +
		4 + len(t.Ops)*opLen + 4 + len(t.Notes)*noteLen
	if t.OptLevel > 0 {
		n += 1 + 2 + 4 + len(t.SrcIdx)*srcLen
	}
	return n
}

// AppendBlob appends t's blob encoding to dst and returns the extended
// slice: the one writer of the blob layout, which a commit, a publication
// and Blob.Encode share. Ref slot i is the module mods[slots[i]], and a note
// targeting module m is encoded as the first slot that names m; t's own
// module and its Start are not encoded (ModOff is). With slots nil the
// slots are mods themselves and t's note targets are slot numbers already,
// as a Blob holds them. A dst with BlobLen bytes to spare is not grown.
//
//pcc:hotpath
func AppendBlob(dst []byte, t *vm.Trace, mods []Ref, slots []int32) []byte {
	w := binenc.Writer{Buf: dst}
	if t.OptLevel > 0 {
		w.Raw(blobMagicOpt[:])
	} else {
		w.Raw(blobMagic[:])
	}
	if slots == nil {
		w.U32(uint32(len(mods)))
		for i := range mods {
			w.Raw(mods[i].Content[:])
			w.U32(mods[i].Base)
		}
	} else {
		w.U32(uint32(len(slots)))
		for _, mi := range slots {
			w.Raw(mods[mi].Content[:])
			w.U32(mods[mi].Base)
		}
	}
	w.U32(t.ModOff)
	w.U32(uint32(len(t.Insts)))
	for _, in := range t.Insts {
		w.U64(in.EncodeWord())
	}
	w.U32(uint32(len(t.Ops)))
	for _, op := range t.Ops {
		w.U16(op.Pos)
		w.U16(uint16(op.Kind))
		w.U64(op.Arg)
		w.U32(op.Cost)
		w.Bool(op.Spilled)
	}
	w.U32(uint32(len(t.Notes)))
	for _, n := range t.Notes {
		slot := n.Target
		if slots != nil {
			slot = int32(slices.Index(slots, n.Target))
		}
		w.U16(n.InstIdx)
		w.U8(uint8(n.Type))
		w.U32(uint32(slot))
		w.U32(n.TargetOff)
	}
	if t.OptLevel > 0 {
		w.U8(t.OptLevel)
		w.U16(t.OrigLen)
		w.U32(uint32(len(t.SrcIdx)))
		for _, s := range t.SrcIdx {
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

// decodeInsts fills dst, which the caller sized to the section, in one pass
// over the words, and returns how many static exits the instructions give
// their trace (vm.ExitsOf, plus the fall-through). Each instruction is built
// straight from its word, and the opcode and register fields of the whole
// section are checked together; isa.Decode runs only when that check fails,
// to name the first word it rejects, so the two accept the same words and
// give the same error.
//
//pcc:hotpath
func (l *blobLayout) decodeInsts(dst []isa.Inst) (int, error) {
	var regs uint64 // the high three bits of every register byte, or'd together
	var op uint8    // the largest opcode
	exits := 0
	for i := range dst {
		w := binary.LittleEndian.Uint64(l.insts[i*instLen:])
		in := isa.Inst{Op: isa.Op(w), Rd: uint8(w >> 8), Rs1: uint8(w >> 16), Rs2: uint8(w >> 24), Imm: int32(w >> 32)}
		regs |= w & 0xe0e0e000
		op = max(op, uint8(w))
		exits += vm.ExitsOf(in)
		dst[i] = in
	}
	if regs != 0 || !isa.Op(op).Valid() {
		for i := range dst {
			if _, err := isa.Decode(l.insts[i*instLen:]); err != nil {
				return 0, fmt.Errorf("store: blob inst %d: %w", i, err)
			}
		}
	}
	if !dst[len(dst)-1].IsTerminator() {
		exits++
	}
	return exits, nil
}

// decodeOps fills dst and rejects a spilled flag other than 0 or 1, which
// no writer writes: every accepted encoding is the one its decode encodes to.
func (l *blobLayout) decodeOps(dst []vm.AnalysisOp) error {
	for i := range dst {
		e := l.ops[i*opLen:]
		if e[16] > 1 {
			return fmt.Errorf("store: blob op %d has spilled flag %d", i, e[16])
		}
		dst[i] = vm.AnalysisOp{
			Pos:     binary.LittleEndian.Uint16(e),
			Kind:    vm.OpKind(binary.LittleEndian.Uint16(e[2:])),
			Arg:     binary.LittleEndian.Uint64(e[4:]),
			Cost:    binary.LittleEndian.Uint32(e[12:]),
			Spilled: e[16] == 1,
		}
	}
	return nil
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
	if _, err := l.decodeInsts(b.Insts); err != nil {
		return nil, err
	}
	if err := l.decodeOps(b.Ops); err != nil {
		return nil, err
	}
	if err := l.decodeNotes(b.Notes); err != nil {
		return nil, err
	}
	l.decodeSrc(b.SrcIdx)
	if err := vm.CheckOptMeta(b.OptLevel, b.OrigLen, b.SrcIdx, len(b.Insts)); err != nil {
		return nil, fmt.Errorf("store: blob: %w", err)
	}
	return b, nil
}

// traceSlabs are the slabs one batch of decoded traces — one LocalTraces
// call's — cuts every slice it holds from, so that a prime makes a few
// allocations per slab, not one per trace per slice.
type traceSlabs struct {
	insts vm.Slab[isa.Inst]
	exits vm.Slab[vm.Exit]
	ops   vm.Slab[vm.AnalysisOp]
	notes vm.Slab[vm.RelocNote]
	src   vm.Slab[uint16]
}

// decodeTrace decodes one hash-verified encoding straight into t, the trace
// a VM will run — what DecodeBlob, Manifest.CheckBlob and Blob.Materialize
// do between them, without the interchange form in the middle, and in that
// order: bytes that do not decode are ErrBlobCorrupt (the file is bad); a
// blob that decodes but is not the one tr describes (matches) is a plain
// error (the manifest is bad). Notes come out carrying module-table
// indices. Every slice, exits included, is cut from s at its final size;
// nothing aliases enc or man.
//
//pcc:hotpath
func decodeTrace(t *vm.Trace, s *traceSlabs, enc []byte, man *Manifest, tr TraceRef) error {
	l, err := scanBlob(enc)
	if err == nil {
		*t = vm.Trace{
			ModOff:   l.modOff,
			Insts:    s.insts.Take(len(l.insts) / instLen),
			Ops:      s.ops.Take(len(l.ops) / opLen),
			Notes:    s.notes.Take(len(l.notes) / noteLen),
			OptLevel: l.optLevel,
			OrigLen:  l.origLen,
			SrcIdx:   s.src.Take(len(l.src) / srcLen),
		}
		var exits int
		exits, err = l.decodeInsts(t.Insts)
		t.Exits = s.exits.Take(exits)[:0] // RecomputeStatic fills it
	}
	if err == nil {
		err = l.decodeOps(t.Ops)
	}
	if err == nil {
		err = l.decodeNotes(t.Notes)
	}
	if err == nil {
		l.decodeSrc(t.SrcIdx)
		err = vm.CheckOptMeta(t.OptLevel, t.OrigLen, t.SrcIdx, len(t.Insts))
	}
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBlobCorrupt, tr.Blob, err)
	}
	if err := l.matches(man, tr); err != nil {
		return err
	}
	t.Start, t.Module = man.Modules[tr.Refs[0]].Base+l.modOff, tr.Refs[0]
	for i := range t.Notes {
		t.Notes[i].Target = tr.Refs[t.Notes[i].Target]
	}
	t.RecomputeStatic()
	return nil
}

// matches reports whether the blob is the one tr describes: its refs are
// the modules tr maps them to (content key and base), and its optimization
// level is tr's. A blob that is not was written against another manifest.
func (l *blobLayout) matches(man *Manifest, tr TraceRef) error {
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
