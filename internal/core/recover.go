package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"persistcc/internal/store"
)

// QuarantineDir is the subdirectory corrupt files are moved into; it lives
// inside the database so `pcc-cachectl repair` reports stay self-contained,
// and is never matched by the *.pcm globs that drive lookup and recovery.
const QuarantineDir = "quarantine"

// errQuarantined marks a cache file that failed verification and was moved
// aside: the lookup layer maps it to a miss, so the run re-translates.
var errQuarantined = errors.New("core: corrupt cache file quarantined")

// readVerified loads and verifies the entry at path: it decodes the
// manifest, then reads and verifies every trace it references. IO errors
// (including fs.ErrNotExist) pass through untouched; a file that exists but
// fails decoding, or whose traces do not verify, is quarantined and reported
// as errQuarantined. The distinction matters: a transient read error must
// not cost a healthy file its place in the database.
func (m *Manager) readVerified(path string) (*CacheFile, error) {
	man, err := m.decodeManifestAt(path)
	if err != nil {
		return nil, err
	}
	return m.readVerifiedTraces(path, man, nil)
}

// quarantine moves a corrupt file into QuarantineDir (never overwriting an
// earlier generation) and records the metric. Best-effort: if the move
// fails the file is deleted instead — corrupt bytes must leave the lookup
// path either way.
func (m *Manager) quarantine(path, kind string) {
	qdir := filepath.Join(m.dir, QuarantineDir)
	m.fs.MkdirAll(qdir, 0o755)
	dest := filepath.Join(qdir, filepath.Base(path))
	for i := 1; ; i++ {
		if _, err := m.fs.Stat(dest); err != nil {
			break
		}
		dest = filepath.Join(qdir, fmt.Sprintf("%s.%d", filepath.Base(path), i))
	}
	if err := m.fs.Rename(path, dest); err != nil {
		m.fs.Remove(path)
	}
	m.m.quarantines.With(kind).Inc()
}

// oldIndexFile is where versions before the directory became the index
// kept a copy of every entry's header. Nothing reads it; repair deletes it.
const oldIndexFile = "index.json"

// RecoverReport summarizes one database repair pass.
type RecoverReport struct {
	FilesScanned     int    `json:"files_scanned"`     // cache files examined
	FilesQuarantined int    `json:"files_quarantined"` // cache files that failed verification
	BlobsFolded      int    `json:"blobs_folded"`      // loose blob files folded into packs
	EntriesVerified  int    `json:"entries_verified"`  // cache files that verified and stay live
	TmpFilesRemoved  int    `json:"tmp_files_removed"` // crashed writers' temp debris deleted
	BytesReclaimed   uint64 `json:"bytes_reclaimed"`   // bytes moved out of the live database
}

// RecoverIndex repairs the database from first principles: corrupt cache
// files are quarantined, temp debris from crashed writers is removed, the
// blob store is scrubbed, and every surviving entry passes the deep
// verifier. This is the recovery path `pcc-cachectl repair` runs; it is safe
// to run at any time, including on a healthy database (where it is a
// verify-everything no-op).
func (m *Manager) RecoverIndex() (*RecoverReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	unlock, err := m.lockDB()
	if err != nil {
		return nil, err
	}
	defer unlock()
	return m.recoverLocked()
}

// recoverLocked does the repair. The caller must hold both the manager
// mutex and the database lock.
func (m *Manager) recoverLocked() (*RecoverReport, error) {
	rep := &RecoverReport{}

	// Temp files are always debris: a completed write renames them away. So
	// is the index file older versions kept beside the entries, whose own
	// headers are the index now.
	tmps, _ := m.fs.Glob(filepath.Join(m.dir, "*.tmp"))
	for _, f := range append(tmps, filepath.Join(m.dir, oldIndexFile)) {
		size := m.fileSize(f)
		if m.fs.Remove(f) != nil {
			continue
		}
		rep.BytesReclaimed += size
		if strings.HasSuffix(f, ".tmp") {
			rep.TmpFilesRemoved++
		}
	}

	// Heal the blob store first — fold its loose blob files into packs,
	// then scrub the packs — so manifest verification below runs against a
	// store whose every blob is packed and content-verified; its quarantined
	// files count like quarantined cache files. The store is shared without a
	// lock, so a temp there is debris only once it is older than a crashed
	// writer's lock would be.
	st, err := m.Store()
	if err != nil {
		return nil, err
	}
	srep, err := st.Recover(m.lockWait)
	if err != nil {
		return nil, err
	}
	rep.FilesQuarantined += srep.Quarantined
	rep.BlobsFolded += srep.Folded
	rep.TmpFilesRemoved += srep.TmpRemoved

	// Verify every manifest. Recovery exists because the database is
	// suspect, so a surviving entry also has to pass the deep trace verifier
	// to stay live.
	files, err := m.fs.Glob(filepath.Join(m.dir, "*.pcm"))
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		rep.FilesScanned++
		size := m.fileSize(f)
		if m.loadOrQuarantine(f) == nil {
			rep.FilesQuarantined++
			rep.BytesReclaimed += size
			continue
		}
		rep.EntriesVerified++
	}
	m.m.recoveries.Inc()
	m.m.recoveredEntries.Add(uint64(rep.EntriesVerified))
	return rep, nil
}

// loadOrQuarantine reads, decodes and deep-verifies the manifest at path,
// judging with local state only: a manifest whose blobs the local store
// does not all hold is not trustworthy. A file that fails is quarantined
// and nil returned. Repair judges every entry this way.
func (m *Manager) loadOrQuarantine(path string) *CacheFile {
	b, err := m.fs.ReadFile(path)
	var man *store.Manifest
	if err == nil {
		man, err = store.DecodeManifest(b)
	}
	var cf *CacheFile
	if err == nil {
		cf, err = m.MaterializeManifest(man)
	}
	return m.verifiedOrQuarantine(path, "manifest", cf, err)
}

// verifiedOrQuarantine is cf, read from path, when err is nil and every
// trace in cf passes the deep verifier. Otherwise the file is quarantined
// under kind (or "verify", when the verifier rejected it) and nil returned.
func (m *Manager) verifiedOrQuarantine(path, kind string, cf *CacheFile, err error) *CacheFile {
	if err != nil {
		m.quarantine(path, kind)
		return nil
	}
	if vrep := cf.VerifyDeep(); !vrep.OK() {
		m.countVerifyRejects(vrep)
		m.quarantine(path, "verify")
		return nil
	}
	return cf
}

// fileSize is the size of path, or 0 when it cannot be had.
func (m *Manager) fileSize(path string) uint64 {
	if fi, err := m.fs.Stat(path); err == nil {
		return uint64(fi.Size())
	}
	return 0
}
