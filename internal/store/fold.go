package store

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// Earlier versions wrote one <sha256>.pcb file per blob. Nothing reads
// those files but the fold below, which moves their blobs into packs; until
// it has run, a blob that lives only in a loose file is a miss.

// blobZipMagic prefixes the flate-compressed loose blob files earlier
// versions wrote. A valid uncompressed encoding starts with the blob magic,
// never this one, so the prefix is unambiguous.
var blobZipMagic = [4]byte{'P', 'C', 'Z', '1'}

// inflateBlob returns the encoding a loose blob file holds; raw payloads
// pass through untouched. The file is untrusted: a stream that inflates past
// packMaxRaw, more than any blob encodes to, is refused once it has produced
// that much, as inflate bounds a pack body, instead of being read to its end.
func inflateBlob(data []byte) ([]byte, error) {
	if len(data) < 4 || string(data[:4]) != string(blobZipMagic[:]) {
		return data, nil
	}
	zr, done := inflater(data[4:])
	defer done()
	enc, err := io.ReadAll(io.LimitReader(zr, packMaxRaw+1))
	if err == nil && len(enc) > packMaxRaw {
		err = fmt.Errorf("store: loose blob inflates past %d bytes", packMaxRaw)
	}
	return enc, err
}

// hashOf parses a loose blob file's name back into its content address.
func hashOf(path string) (Hash, error) {
	return ParseHash(strings.TrimSuffix(filepath.Base(path), ".pcb"))
}

// looseFiles lists every loose blob file, generation by generation, newest
// first. Maintenance only (stats and the fold): it reads whole directories.
func (s *Store) looseFiles() ([]string, error) {
	var all []string
	for _, g := range s.gens {
		files, err := s.fs.Glob(filepath.Join(g, "*.pcb"))
		if err != nil {
			return nil, err
		}
		all = append(all, files...)
	}
	return all, nil
}

// readLoose returns the encoding the loose file at path holds once it has
// checked it against the file's name and decoded it; bytes that are not
// the blob the name claims are ErrBlobCorrupt.
func (s *Store) readLoose(path string) (Hash, []byte, error) {
	h, err := hashOf(path)
	if err != nil {
		return h, nil, fmt.Errorf("%w: %v", ErrBlobCorrupt, err)
	}
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return h, nil, err
	}
	enc, err := inflateBlob(data)
	if err == nil && Sum(enc) != h {
		err = fmt.Errorf("%s fails content check", h)
	}
	if err == nil {
		_, err = DecodeBlob(enc)
	}
	if err != nil {
		return h, nil, fmt.Errorf("%w: %v", ErrBlobCorrupt, err)
	}
	return h, enc, nil
}

// FoldLoose moves the blobs of every loose file into packs, written as a
// commit writes them (writePack) at most packMaxRaw raw bytes each, and
// returns how many loose files it folded (removed, their blob packed) and
// how many it quarantined. A file leaves the store only
// once a pack holding its blob has been synced and renamed into place — the
// pack the fold just published, or one the store already held — so a crash
// at any point loses no blob: the next fold finds the file again and dedups
// it against the pack. A file whose bytes
// are not the blob its name claims is quarantined; one that cannot be read
// now stays for the next fold. Nothing is deleted for being unreferenced:
// compaction judges that once the blobs are packed.
func (s *Store) FoldLoose() (folded, quarantined int, err error) {
	files, err := s.looseFiles()
	if err != nil || len(files) == 0 {
		return 0, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var hashes []Hash
	var encs [][]byte
	var done []string // files whose blob is in a pack once the pending one lands
	raw := 0
	flush := func() error {
		if len(hashes) > 0 {
			if _, err := s.writePack(hashes, encs, false); err != nil {
				return err
			}
		}
		for _, p := range done {
			if s.fs.Remove(p) == nil { // one left behind is deduped and removed by the next fold
				folded++
			}
		}
		hashes, encs, done, raw = nil, nil, nil, 0
		return nil
	}
	relisted := false
	onDisk := make(map[*pack]bool)
	batch := make(map[Hash]bool)
	for _, p := range files {
		h, enc, err := s.readLoose(p)
		switch {
		case errors.Is(err, ErrBlobCorrupt):
			if s.quarantineFile(p) {
				quarantined++
			}
			continue
		case err != nil:
			continue
		case batch[h] || s.present(h, &relisted, onDisk):
			done = append(done, p)
			continue
		}
		if raw+len(enc) > packMaxRaw {
			if err := flush(); err != nil {
				return folded, quarantined, err
			}
		}
		batch[h] = true
		hashes, encs, done = append(hashes, h), append(encs, enc), append(done, p)
		raw += len(enc)
	}
	err = flush()
	return folded, quarantined, err
}
