package store

// CompactReport summarizes one compaction run.
type CompactReport struct {
	PrunedOrphans  int    // blobs no manifest references, deleted
	ReclaimedBytes uint64 // physical bytes deleted
}

// Compact deletes every blob absent from live, the set of hashes some
// manifest still references. A pack with no live blob is removed; a pack
// that mixes live and dead blobs is first rewritten as a new pack of its
// live ones, then removed. Loose blob files are not packs: FoldLoose moves
// them into packs first, and a later run judges them there. Nothing live is
// ever absent from disk, so the run is idempotent and a crash part-way
// leaves at worst a live blob in two packs, which the next run resolves.
func (s *Store) Compact(live map[Hash]bool) (*CompactReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := &CompactReport{}
	prune := func(blobs int, bytes uint64) {
		rep.PrunedOrphans += blobs
		rep.ReclaimedBytes += bytes
		s.met.pruned.Add(uint64(blobs))
		s.met.prunedBytes.Add(bytes)
	}
	s.relist()
	for _, p := range s.sortedPacks() {
		var keep, dead []Hash
		for _, h := range p.ix.hashes {
			if live[h] {
				keep = append(keep, h)
			} else {
				dead = append(dead, h)
			}
		}
		fi, err := s.fs.Stat(p.path)
		if len(dead) == 0 || err != nil {
			continue
		}
		reclaimed := uint64(fi.Size())
		if len(keep) > 0 {
			// A pack that does not read back whole keeps its file (or was
			// just quarantined): it is never removed with live blobs in it.
			encs, ok := s.readAll(keep)
			if !ok {
				continue
			}
			written, err := s.writePack(keep, encs, false)
			if err != nil {
				return rep, err
			}
			reclaimed -= min(written, reclaimed)
		}
		if s.fs.Remove(p.path) != nil {
			continue
		}
		s.forget(p)
		prune(len(dead), reclaimed)
	}
	s.met.compactions.Inc()
	return rep, nil
}

// readAll returns the verified encodings of hashes the index already
// knows, or false when any of them cannot be read.
func (s *Store) readAll(hashes []Hash) ([][]byte, bool) {
	encs := make([][]byte, len(hashes))
	relisted := true // the blobs are where the index says, or nowhere
	for i, h := range hashes {
		enc, _, err := s.readRaw(h, &relisted)
		if err != nil {
			return nil, false
		}
		encs[i] = enc
	}
	return encs, true
}
