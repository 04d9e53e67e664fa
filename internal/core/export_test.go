package core

import (
	"errors"
	"io/fs"
	"path/filepath"
	"time"

	"persistcc/internal/vm"
)

// SetLockTimeout lets tests shorten the advisory-lock steal deadline; it
// returns a restore function.
func SetLockTimeout(d time.Duration) func() {
	old := lockTimeout
	lockTimeout = d
	return func() { lockTimeout = old }
}

// EntryPrefixMax is the most of an entry's prefix the header reader reads.
const EntryPrefixMax = entryPrefixMax

// EntryHeaderForTest reads the listing fields of an encoded entry held in
// memory, as Entries reads them from a file, and reports the largest read
// it asked for.
func EntryHeaderForTest(b []byte) (e IndexEntry, largest int, err error) {
	readAt := func(off int64, n int) ([]byte, error) {
		largest = max(largest, n)
		if off >= int64(len(b)) {
			return nil, nil
		}
		return append([]byte(nil), b[off:min(off+int64(n), int64(len(b)))]...), nil
	}
	e, err = readEntryHeader(readAt, int64(len(b)))
	return e, largest, err
}

// ReadPrior loads the database entry named file, a manifest, as a prior: a
// missing file is nil, and a corrupt one is quarantined and nil too, not an
// error. The crash sweeps read every entry a crashed database lists through
// it.
func (m *Manager) ReadPrior(file string) (*CacheFile, error) {
	cf, err := m.readVerified(filepath.Join(m.dir, file))
	switch {
	case err == nil:
		return cf, nil
	case errors.Is(err, fs.ErrNotExist), errors.Is(err, errQuarantined):
		return nil, nil
	default:
		return nil, err
	}
}

// DeltaOf is the delta of a whole cache file (deltaOf): the tests' way to
// commit a file they built.
func DeltaOf(cf *CacheFile) *Delta { return deltaOf(cf) }

// CommitEncodings is what a commit of cf appends into its arena
// (encodeBlobs) for every trace, an addressed one included: each trace's
// blob encoding, index for index.
func CommitEncodings(cf *CacheFile) ([][]byte, error) {
	man, mods, err := manifestOf(cf)
	if err != nil {
		return nil, err
	}
	return encodeBlobs(cf, man, mods, func(*vm.Trace) bool { return true }), nil
}
