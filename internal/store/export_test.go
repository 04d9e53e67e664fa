package store

import (
	"persistcc/internal/isa"
	"persistcc/internal/vm"
)

// PackMaxRaw is the most a pack holds and a loose file may inflate to.
const PackMaxRaw = packMaxRaw

// DecodeTrace is the launch path's decoder (decodeTrace) for one encoding,
// for the tests that hold it against DecodeBlob + CheckBlob + Materialize.
func DecodeTrace(enc []byte, man *Manifest, tr TraceRef) (*vm.Trace, error) {
	t := new(vm.Trace)
	if err := decodeTrace(t, new(traceSlabs), enc, man, tr); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadMembers reads the blobs hashes names through LocalTraces' reader —
// each file opened as LocalTraces opens it, each member verified once its
// bytes have arrived, then the verdict on every stream — without decoding
// them as traces.
func ReadMembers(s *Store, hashes []Hash) error {
	r := manifestRead{s: s, open: make(map[*pack]*openFile)}
	for _, h := range hashes {
		if _, _, _, err := r.read(h); err != nil {
			return err
		}
	}
	return r.finish()
}

// HotPacks returns the paths of the packs holding their inflated stream,
// oldest first.
func HotPacks(s *Store) []string {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	var paths []string
	for _, p := range s.hot {
		paths = append(paths, p.path)
	}
	return paths
}

// InstExits runs the launch path's instruction decoder over an encoding's
// instruction section and returns the exit count it derives along the way.
func InstExits(enc []byte) (int, error) {
	l, err := scanBlob(enc)
	if err != nil {
		return 0, err
	}
	return l.decodeInsts(make([]isa.Inst, len(l.insts)/instLen))
}
