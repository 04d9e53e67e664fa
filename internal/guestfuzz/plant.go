package guestfuzz

import (
	"fmt"
	"os"
	"path/filepath"

	"persistcc/internal/isa"
	"persistcc/internal/store"
	"persistcc/internal/vm"
)

// A Plant is a known-bug injection TestFuzzRediscoversPlants must rediscover: hooks that
// corrupt exactly one layer, the oracle expected to catch it, and a note for
// the report. Plants calibrate the whole loop end to end — generation must
// reach the layer, the oracle must fire, the minimizer must preserve the
// verdict, and the packaged crasher must load back.
type Plant struct {
	Name   string
	Oracle string // oracle expected to catch the injected bug
	Note   string
	Hooks  *Hooks
}

// Plants returns the named known-bug injections.
func Plants() []Plant {
	return []Plant{
		{
			Name:   "miscompile",
			Oracle: OracleInterpTrans,
			Note:   "translator emits a wrong immediate in large executable traces",
			Hooks:  &Hooks{TamperTranslated: tamperImm},
		},
		{
			Name:   "staleblob",
			Oracle: OracleColdWarm,
			Note:   "checksum-valid semantic corruption of persisted store blobs",
			Hooks:  &Hooks{CorruptDB: corruptStoreBlobs},
		},
		{
			Name:   "rectrunc",
			Oracle: OracleRecReplay,
			Note:   "recording loses its tail between capture and replay",
			Hooks:  &Hooks{TamperRec: truncateRec},
		},
	}
}

// PlantByName resolves one plant.
func PlantByName(name string) (Plant, error) {
	for _, p := range Plants() {
		if p.Name == name {
			return p, nil
		}
	}
	return Plant{}, fmt.Errorf("guestfuzz: unknown plant %q", name)
}

// tamperImm models a miscompile: in any sufficiently large executable
// trace, the first addi with a nonzero immediate gets that immediate
// perturbed. Deterministic, and only reachable by generated code big
// enough to produce such traces — the fuzzer has to find it.
func tamperImm(t *vm.Trace) {
	if t.Module != 0 || len(t.Insts) < 8 {
		return
	}
	for i := range t.Insts {
		in := &t.Insts[i]
		if in.Op == isa.OpAddI && in.Imm != 0 && in.Rd != 0 {
			in.Imm++
			return
		}
	}
}

// corruptStoreBlobs is persisted-state corruption that survives every
// integrity check short of re-execution: for each manifest, the referenced
// blobs get one instruction semantically altered, are re-encoded and stored
// under their new (correct!) content hash, and the manifest is rewritten to
// reference them — so hash verification, CheckBlob and quarantine all pass,
// and only a differential run can notice.
func corruptStoreBlobs(dir string) error {
	manifests, err := filepath.Glob(filepath.Join(dir, "*.pcm"))
	if err != nil {
		return err
	}
	if len(manifests) == 0 {
		return fmt.Errorf("no manifests under %s", dir)
	}
	st, err := store.Open(filepath.Join(dir, "store"), nil, nil)
	if err != nil {
		return err
	}
	corrupted := 0
	for _, mp := range manifests {
		raw, err := readFileOS(mp)
		if err != nil {
			return err
		}
		m, err := store.DecodeManifest(raw)
		if err != nil {
			return err
		}
		var traces []int // manifest traces whose blob was perturbed
		var blobs []*store.Blob
		for ti := range m.Traces {
			b, err := st.Get(m.Traces[ti].Blob)
			if err != nil || !perturbBlob(b) {
				continue
			}
			traces, blobs = append(traces, ti), append(blobs, b)
		}
		if len(blobs) == 0 {
			continue
		}
		_, hashes, err := st.PutAll(blobs)
		if err != nil {
			return err
		}
		for i, ti := range traces {
			m.Traces[ti].Blob = hashes[i]
		}
		corrupted += len(blobs)
		if err := writeFileOS(mp, m.Encode()); err != nil {
			return err
		}
	}
	if corrupted == 0 {
		return fmt.Errorf("no blob in %s had a perturbable instruction", dir)
	}
	return nil
}

// perturbBlob alters one addi immediate that no relocation note anchors to
// (notes are rebased at prime time and would mask the corruption).
func perturbBlob(b *store.Blob) bool {
	noted := make(map[uint16]bool, len(b.Notes))
	for _, n := range b.Notes {
		noted[n.InstIdx] = true
	}
	for i := range b.Insts {
		in := &b.Insts[i]
		if in.Op == isa.OpAddI && in.Imm != 0 && in.Rd != 0 && !noted[uint16(i)] {
			in.Imm++
			return true
		}
	}
	return false
}

// truncateRec drops the recording's tail — the classic partially-shipped
// artifact. The replayer must reject it, never silently replay a prefix.
func truncateRec(rec []byte) []byte {
	if len(rec) <= 64 {
		return rec
	}
	return rec[:len(rec)-48]
}

// Tiny os passthroughs, named so the corruption routine reads as the
// file-level operation it is (the plant intentionally bypasses the fsx
// seam: it models an external writer, not persistcc code).
func readFileOS(p string) ([]byte, error) { return os.ReadFile(p) }

func writeFileOS(p string, b []byte) error { return os.WriteFile(p, b, 0o644) }
