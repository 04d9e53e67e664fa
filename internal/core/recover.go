package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"

	"persistcc/internal/store"
)

// QuarantineDir is the subdirectory corrupt files are moved into; it lives
// inside the database so `pcc-cachectl repair` reports stay self-contained,
// and is never matched by the *.pcc globs that drive lookup and recovery.
const QuarantineDir = "quarantine"

// errQuarantined marks a cache file that failed verification and was moved
// aside: the lookup layer maps it to a miss, so the run re-translates.
var errQuarantined = errors.New("core: corrupt cache file quarantined")

// readVerified loads and verifies a cache file. IO errors (including
// fs.ErrNotExist) pass through untouched; a file that exists but fails
// decoding or its integrity trailer is quarantined and reported as
// errQuarantined. The distinction matters: a transient read error must not
// cost a healthy file its place in the database.
func (m *Manager) readVerified(path string) (*CacheFile, error) {
	if strings.HasSuffix(path, ".pcm") {
		return m.readVerifiedManifest(path)
	}
	b, err := m.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cf := new(CacheFile)
	if err := cf.UnmarshalBinary(b); err != nil {
		m.quarantine(path, "cachefile")
		return nil, fmt.Errorf("%w: %s: %v", errQuarantined, path, err)
	}
	if m.deepVerify {
		if rep := cf.VerifyDeep(); !rep.OK() {
			m.countVerifyRejects(rep)
			m.quarantine(path, "verify")
			return nil, fmt.Errorf("%w: %s: %v", errQuarantined, path, rep.Err())
		}
	}
	return cf, nil
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

// readIndexHealing reads the index like readIndex, but a corrupt index is
// quarantined and rebuilt from the surviving verifiable cache files instead
// of failing the caller. Must be called WITHOUT the manager mutex or the
// database lock held; the healing path takes both.
func (m *Manager) readIndexHealing() (*indexFile, error) {
	idx, err := m.readIndex()
	if !errors.Is(err, errCorruptIndex) {
		return idx, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	unlock, lerr := m.lockDB()
	if lerr != nil {
		return nil, err // surface the corruption, not the lock failure
	}
	defer unlock()
	return m.readIndexOrRecoverLocked()
}

// readIndexOrRecoverLocked reads the index under the database lock,
// rebuilding it when corrupt. Another process may have healed it between
// our corrupt read and taking the lock, so it re-reads first.
func (m *Manager) readIndexOrRecoverLocked() (*indexFile, error) {
	idx, err := m.readIndex()
	if err == nil {
		return idx, nil
	}
	if !errors.Is(err, errCorruptIndex) {
		return nil, err
	}
	idx, _, err = m.recoverIndexLocked()
	return idx, err
}

// RecoverReport summarizes one database repair pass.
type RecoverReport struct {
	IndexQuarantined bool   `json:"index_quarantined"` // index.json was corrupt and moved aside
	FilesScanned     int    `json:"files_scanned"`     // cache files examined
	FilesQuarantined int    `json:"files_quarantined"` // cache files that failed verification
	EntriesRebuilt   int    `json:"entries_rebuilt"`   // index entries recreated from verified files
	TmpFilesRemoved  int    `json:"tmp_files_removed"` // crashed writers' temp debris deleted
	BytesReclaimed   uint64 `json:"bytes_reclaimed"`   // bytes moved out of the live database
}

// RecoverIndex rebuilds the database index from first principles: corrupt
// cache files are quarantined, temp debris from crashed writers is removed,
// and the index is rewritten to reference exactly the files that verify.
// This is the recovery path the self-healing flows and `pcc-cachectl repair`
// share; it is safe to run at any time, including on a healthy database
// (where it is a verify-everything no-op).
func (m *Manager) RecoverIndex() (*RecoverReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	unlock, err := m.lockDB()
	if err != nil {
		return nil, err
	}
	defer unlock()
	_, rep, err := m.recoverIndexLocked()
	return rep, err
}

// recoverIndexLocked does the rebuild. The caller must hold both the
// manager mutex and the database lock.
func (m *Manager) recoverIndexLocked() (*indexFile, *RecoverReport, error) {
	rep := &RecoverReport{}

	// A corrupt index is evidence, not garbage: quarantine it.
	if b, err := m.fs.ReadFile(m.indexPath()); err == nil {
		var probe indexFile
		if json.Unmarshal(b, &probe) != nil {
			m.quarantine(m.indexPath(), "index")
			rep.IndexQuarantined = true
			rep.BytesReclaimed += uint64(len(b))
		}
	}

	// Temp files are always debris: a completed write renames them away.
	if tmps, err := m.fs.Glob(filepath.Join(m.dir, "*.tmp")); err == nil {
		for _, f := range tmps {
			if fi, err := m.fs.Stat(f); err == nil {
				rep.BytesReclaimed += uint64(fi.Size())
			}
			if m.fs.Remove(f) == nil {
				rep.TmpFilesRemoved++
			}
		}
	}

	// Heal the blob store first (if this database has one), so manifest
	// verification below runs against a store whose every blob is
	// content-verified; its quarantined blobs count like quarantined files.
	// The store is shared without a lock, so a temp there is debris only
	// once it is older than a crashed writer's lock would be.
	st, err := m.storeIfPresent()
	if err != nil {
		return nil, nil, err
	}
	if st != nil {
		srep, err := st.Recover(m.lockWait)
		if err != nil {
			return nil, nil, err
		}
		rep.FilesQuarantined += srep.Quarantined
		rep.TmpFilesRemoved += srep.TmpRemoved
	}

	// Rebuild the index from every cache file — either format — that
	// still verifies.
	idx := &indexFile{}
	for _, pat := range []string{"*.pcc", "*.pcm"} {
		files, err := m.fs.Glob(filepath.Join(m.dir, pat))
		if err != nil {
			return nil, nil, err
		}
		for _, f := range files {
			rep.FilesScanned++
			var size uint64
			if fi, err := m.fs.Stat(f); err == nil {
				size = uint64(fi.Size())
			}
			var cf *CacheFile
			if strings.HasSuffix(f, ".pcm") {
				// Recovery judges with local state only: a manifest whose
				// blobs are not all resolvable *here* is not trustworthy
				// and leaves the index like any corrupt file.
				b, err := m.fs.ReadFile(f)
				var man *store.Manifest
				if err == nil {
					man, err = store.DecodeManifest(b)
				}
				if err == nil && st != nil {
					cf, err = materializeManifest(man, st)
				}
				if err != nil || st == nil {
					m.quarantine(f, "manifest")
					rep.FilesQuarantined++
					rep.BytesReclaimed += size
					continue
				}
			} else {
				b, err := m.fs.ReadFile(f)
				cf = new(CacheFile)
				if err != nil || cf.UnmarshalBinary(b) != nil {
					m.quarantine(f, "cachefile")
					rep.FilesQuarantined++
					rep.BytesReclaimed += size
					continue
				}
			}
			// Recovery exists because the database is suspect, so every
			// surviving file also has to pass the deep trace verifier before
			// it re-enters the index.
			if vrep := cf.VerifyDeep(); !vrep.OK() {
				m.countVerifyRejects(vrep)
				m.quarantine(f, "verify")
				rep.FilesQuarantined++
				rep.BytesReclaimed += size
				continue
			}
			idx.Entries = append(idx.Entries, IndexEntry{
				App: cf.AppKey.Hex(), VM: cf.VMKey.Hex(), Tool: cf.ToolKey.Hex(),
				AppPath: cf.AppPath, File: filepath.Base(f), Traces: len(cf.Traces),
				CodePool: cf.CodePool, DataPool: cf.DataPool,
			})
			rep.EntriesRebuilt++
		}
	}
	if err := m.writeIndexLocked(idx); err != nil {
		return nil, nil, err
	}
	m.m.recoveries.Inc()
	m.m.recoveredEntries.Add(uint64(rep.EntriesRebuilt))
	return idx, rep, nil
}

// ReadPrior loads the database cache file named file for accumulation: the
// cache server's merge path uses it so corrupt priors are quarantined and
// treated as absent (the incoming publish then starts a fresh file) instead
// of failing the publish.
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
