package core

import "time"

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
