package store

// CompactReport summarizes one compaction run.
type CompactReport struct {
	PrunedOrphans  int    // blobs no manifest references, deleted
	ReclaimedBytes uint64 // physical bytes deleted
}

// Compact deletes every blob file absent from live, the set of hashes some
// manifest still references. Nothing is moved or rewritten, so the run is
// idempotent and a crash part-way leaves only fewer orphans for the next.
func (s *Store) Compact(live map[Hash]bool) (*CompactReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := &CompactReport{}
	files, err := s.blobFiles()
	if err != nil {
		return rep, err
	}
	for _, p := range files {
		h, err := hashOf(p)
		if err != nil || live[h] {
			continue
		}
		fi, err := s.fs.Stat(p)
		if err != nil || s.fs.Remove(p) != nil {
			continue
		}
		rep.PrunedOrphans++
		rep.ReclaimedBytes += uint64(fi.Size())
		s.met.pruned.Inc()
		s.met.prunedBytes.Add(uint64(fi.Size()))
		s.l1mu.Lock()
		delete(s.l1, h)
		s.l1mu.Unlock()
	}
	s.met.compactions.Inc()
	return rep, nil
}
