package core

import (
	"crypto/sha256"
	"fmt"

	"persistcc/internal/binenc"
	"persistcc/internal/fsx"
	"persistcc/internal/isa"
	"persistcc/internal/mem"
	"persistcc/internal/obj"
	"persistcc/internal/vm"
)

// cacheMagic identifies persistent code cache files on disk.
var cacheMagic = [4]byte{'P', 'C', 'C', '1'}

// cacheFormatVersion is bumped on incompatible encoding changes. Version 2
// added the per-trace optimization tail (level, original length, source
// map); version-1 files (all traces unoptimized) are still decoded.
const cacheFormatVersion = 2

const (
	maxModules    = 4096
	maxTraces     = 4 << 20
	maxTraceInsts = 4096
	maxPathLen    = 4096
)

// ModuleRecord is one executable mapping captured at cache-creation time,
// with its precomputed keys.
type ModuleRecord struct {
	Path    string
	Base    uint32
	Size    uint32
	MTime   int64
	Digest  [32]byte
	Key     Key // MappingKey (base-sensitive)
	Content Key // ContentKey (base-insensitive)
}

// CacheFile is the in-memory form of a persistent code cache: keys, the
// mapping table, and the traces with their data structures. The two
// modeled memory pools (code and data) are carried so Figure 9 can be
// reproduced from the file alone.
type CacheFile struct {
	AppKey  Key
	VMKey   Key
	ToolKey Key
	AppPath string

	Modules []ModuleRecord
	Traces  []*vm.Trace

	CodePool uint64
	DataPool uint64

	// EncodedBytes is the file's on-disk/wire size, set (not serialized) by
	// MarshalBinary and UnmarshalBinary — the byte-accounting source for the
	// pcc_core_file_bytes_total metrics.
	EncodedBytes uint64
}

// checkTraceModules verifies every trace's module references stay inside
// the module table — the invariant a merge relies on, which every decoded
// file holds.
func (cf *CacheFile) checkTraceModules() error {
	n := int32(len(cf.Modules))
	for i, t := range cf.Traces {
		if t.Module < 0 || t.Module >= n {
			return fmt.Errorf("core: trace %d references module %d of %d", i, t.Module, n)
		}
		for _, note := range t.Notes {
			if note.Target < 0 || note.Target >= n {
				return fmt.Errorf("core: trace %d note targets module %d of %d", i, note.Target, n)
			}
		}
	}
	return nil
}

// recomputePools re-derives the pool sizes from the traces.
func (cf *CacheFile) recomputePools() {
	cf.CodePool, cf.DataPool = 0, 0
	for _, t := range cf.Traces {
		cf.CodePool += t.CodeBytes()
		cf.DataPool += t.DataBytes()
	}
}

// moduleRecordFor builds a ModuleRecord from a live mapping.
func moduleRecordFor(m mem.Mapping) ModuleRecord {
	return ModuleRecord{
		Path:    m.Path,
		Base:    m.Base,
		Size:    m.Size,
		MTime:   m.MTime,
		Digest:  m.Digest,
		Key:     MappingKey(m),
		Content: ContentKey(m),
	}
}

// mapping reconstructs the mem.Mapping the record was built from.
func (mr ModuleRecord) mapping() mem.Mapping {
	return mem.Mapping{
		Path: mr.Path, Base: mr.Base, Size: mr.Size,
		MTime: mr.MTime, Digest: mr.Digest, FileBacked: true,
	}
}

// MarshalBinary encodes the cache file, appending a SHA-256 integrity
// trailer over the whole payload.
func (cf *CacheFile) MarshalBinary() ([]byte, error) {
	w := &binenc.Writer{}
	w.Raw(cacheMagic[:])
	w.U32(cacheFormatVersion)
	w.Raw(cf.AppKey[:])
	w.Raw(cf.VMKey[:])
	w.Raw(cf.ToolKey[:])
	w.Str(cf.AppPath)

	w.U32(uint32(len(cf.Modules)))
	for _, m := range cf.Modules {
		w.Str(m.Path)
		w.U32(m.Base)
		w.U32(m.Size)
		w.I64(m.MTime)
		w.Raw(m.Digest[:])
		w.Raw(m.Key[:])
		w.Raw(m.Content[:])
	}

	w.U32(uint32(len(cf.Traces)))
	for _, t := range cf.Traces {
		if t.Module < 0 || int(t.Module) >= len(cf.Modules) {
			return nil, fmt.Errorf("core: trace at %#x has module %d outside table", t.Start, t.Module)
		}
		w.U32(uint32(t.Module))
		w.U32(t.ModOff)
		w.U32(t.Start)
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
			w.U16(n.InstIdx)
			w.U8(uint8(n.Type))
			w.U32(uint32(n.Target))
			w.U32(n.TargetOff)
		}
		w.U8(t.OptLevel)
		if t.OptLevel > 0 {
			w.U16(t.OrigLen)
			w.U32(uint32(len(t.SrcIdx)))
			for _, s := range t.SrcIdx {
				w.U16(s)
			}
		}
	}
	w.U64(cf.CodePool)
	w.U64(cf.DataPool)

	sum := sha256.Sum256(w.Buf)
	w.Raw(sum[:])
	cf.EncodedBytes = uint64(len(w.Buf))
	return w.Buf, nil
}

// UnmarshalBinary decodes and verifies a cache file.
func (cf *CacheFile) UnmarshalBinary(b []byte) error {
	if len(b) < 32 {
		return fmt.Errorf("core: cache file too short")
	}
	payload, trailer := b[:len(b)-32], b[len(b)-32:]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(trailer) {
		return fmt.Errorf("core: cache file integrity check failed")
	}
	r := &binenc.Reader{Buf: payload}
	magic := r.Raw(4)
	if r.Err == nil && string(magic) != string(cacheMagic[:]) {
		return fmt.Errorf("core: bad cache magic %q", magic)
	}
	version := r.U32()
	if r.Err == nil && (version < 1 || version > cacheFormatVersion) {
		return fmt.Errorf("core: unsupported cache format version %d", version)
	}
	readKey := func(dst *Key) { copy(dst[:], r.Raw(32)) }
	readKey(&cf.AppKey)
	readKey(&cf.VMKey)
	readKey(&cf.ToolKey)
	cf.AppPath = r.Str(maxPathLen)

	cf.Modules = nil
	for i, n := 0, r.Count(maxModules); i < n && r.Err == nil; i++ {
		var m ModuleRecord
		m.Path = r.Str(maxPathLen)
		m.Base = r.U32()
		m.Size = r.U32()
		m.MTime = r.I64()
		copy(m.Digest[:], r.Raw(32))
		copy(m.Key[:], r.Raw(32))
		copy(m.Content[:], r.Raw(32))
		cf.Modules = append(cf.Modules, m)
	}

	cf.Traces = nil
	for i, n := 0, r.Count(maxTraces); i < n && r.Err == nil; i++ {
		t := &vm.Trace{}
		t.Module = int32(r.U32())
		t.ModOff = r.U32()
		t.Start = r.U32()
		ni := r.Count(maxTraceInsts)
		for j := 0; j < ni && r.Err == nil; j++ {
			in, err := isa.DecodeWord(r.U64())
			if r.Err == nil && err != nil {
				return fmt.Errorf("core: trace %d: %w", i, err)
			}
			t.Insts = append(t.Insts, in)
		}
		no := r.Count(maxTraceInsts * 4)
		for j := 0; j < no && r.Err == nil; j++ {
			var op vm.AnalysisOp
			op.Pos = r.U16()
			op.Kind = vm.OpKind(r.U16())
			op.Arg = r.U64()
			op.Cost = r.U32()
			op.Spilled = r.Bool()
			t.Ops = append(t.Ops, op)
		}
		nn := r.Count(maxTraceInsts)
		for j := 0; j < nn && r.Err == nil; j++ {
			var note vm.RelocNote
			note.InstIdx = r.U16()
			note.Type = obj.RelocType(r.U8())
			note.Target = int32(r.U32())
			note.TargetOff = r.U32()
			t.Notes = append(t.Notes, note)
		}
		if version >= 2 {
			t.OptLevel = r.U8()
			if t.OptLevel > 0 {
				t.OrigLen = r.U16()
				ns := r.Count(maxTraceInsts)
				for j := 0; j < ns && r.Err == nil; j++ {
					t.SrcIdx = append(t.SrcIdx, r.U16())
				}
			}
		}
		if r.Err == nil {
			if len(t.Insts) == 0 {
				return fmt.Errorf("core: trace %d is empty", i)
			}
			if err := vm.CheckOptMeta(t.OptLevel, t.OrigLen, t.SrcIdx, len(t.Insts)); err != nil {
				return fmt.Errorf("core: trace %d: %w", i, err)
			}
			// Exits and liveness are static functions of the
			// instructions; rebuild instead of trusting the file.
			t.RecomputeStatic()
		}
		cf.Traces = append(cf.Traces, t)
	}
	cf.CodePool = r.U64()
	cf.DataPool = r.U64()
	if err := r.Done(); err != nil {
		return fmt.Errorf("core: decode: %w", err)
	}
	cf.EncodedBytes = uint64(len(b))
	return cf.checkTraceModules()
}

// ReadCacheFile reads and verifies a cache file.
func ReadCacheFile(path string) (*CacheFile, error) {
	return ReadCacheFileFS(fsx.OS, path)
}

// ReadCacheFileFS is ReadCacheFile over an explicit filesystem.
func ReadCacheFileFS(fsys fsx.FS, path string) (*CacheFile, error) {
	b, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cf := new(CacheFile)
	if err := cf.UnmarshalBinary(b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cf, nil
}
