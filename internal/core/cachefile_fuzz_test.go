package core_test

import (
	"testing"

	"persistcc/internal/core"
	"persistcc/internal/isa"
	"persistcc/internal/vm"
)

// seedCacheFileBytes marshals a small well-formed cache file (one module,
// one trace with a branch and a relocation note) for the fuzz corpus.
func seedCacheFileBytes(f testing.TB) []byte {
	tr := &vm.Trace{
		Start:  0x1000,
		Module: 0,
		ModOff: 0,
		Insts: []isa.Inst{
			{Op: isa.OpAddI, Rd: 5, Rs1: 5, Imm: 1},
			{Op: isa.OpBeq, Rs1: 0, Rs2: 0, Imm: -isa.InstSize},
			{Op: isa.OpHalt},
		},
	}
	tr.RecomputeStatic()
	cf := &core.CacheFile{
		AppPath: "/bin/app",
		Modules: []core.ModuleRecord{{Path: "/bin/app", Base: 0x1000, Size: 0x200}},
		Traces:  []*vm.Trace{tr},
	}
	b, err := cf.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzReadCacheFile checks the cache-file parser is total on arbitrary
// bytes and self-consistent on everything it accepts: an accepted file
// must re-marshal, the re-marshaled bytes must parse again, and the deep
// verifier must run to completion on the parsed result. The parser is the
// trust boundary for both the on-disk database and PUBLISH payloads
// arriving over the wire.
func FuzzReadCacheFile(f *testing.F) {
	seed := seedCacheFileBytes(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-1]) // truncated trailer
	f.Add(seed[:5])           // truncated header
	f.Add([]byte("PCC1"))     // magic only
	f.Add([]byte("not a cachefile"))

	f.Fuzz(func(t *testing.T, data []byte) {
		cf := new(core.CacheFile)
		if err := cf.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := cf.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted file failed to re-marshal: %v", err)
		}
		cf2 := new(core.CacheFile)
		if err := cf2.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-marshaled file rejected: %v", err)
		}
		if len(cf2.Traces) != len(cf.Traces) || len(cf2.Modules) != len(cf.Modules) {
			t.Fatalf("round trip changed shape: %d/%d traces, %d/%d modules",
				len(cf.Traces), len(cf2.Traces), len(cf.Modules), len(cf2.Modules))
		}
		// The deep verifier must be total on anything the parser accepts
		// (accept or reject, never panic): the recovery path runs it on
		// every surviving file of a suspect database.
		_ = cf.VerifyDeep()
	})
}
