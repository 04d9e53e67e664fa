package store

import (
	"persistcc/internal/isa"
	"persistcc/internal/vm"
)

// InflateBlob is the loose-file reader, for its fuzz target.
func InflateBlob(data []byte) ([]byte, error) { return inflateBlob(data) }

// PackMaxRaw is the most a pack holds and a loose file may inflate to.
const PackMaxRaw = packMaxRaw

// DecodeTrace is the launch path's decoder (decodeTrace) for one encoding,
// for the tests that hold it against DecodeBlob + CheckBlob + Materialize.
func DecodeTrace(enc []byte, man *Manifest, tr TraceRef) (*vm.Trace, error) {
	t := new(vm.Trace)
	var insts slab[isa.Inst]
	if err := decodeTrace(t, &insts, enc, man, tr); err != nil {
		return nil, err
	}
	return t, nil
}
