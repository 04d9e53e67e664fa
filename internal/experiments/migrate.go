package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"persistcc/internal/core"
	"persistcc/internal/stats"
)

// Migrate is the migration smoke gate (make gate-smoke): build a legacy
// fixture database (each app's image, as versions before the store wrote
// it), corrupt one entry, migrate in place, and prove the
// promised end state — corrupt input quarantined rather than laundered
// into the new format, every surviving entry deep-verified and warm-
// servable, recovery a no-op afterwards. Any violation is a non-zero
// pcc-bench exit, so CI can gate on it directly.
func Migrate() (*Report, error) {
	gui, err := guiSuite()
	if err != nil {
		return nil, err
	}
	apps := gui.Apps[:3] // pinned fixture workload: three apps sharing the GUI libraries
	dir, err := os.MkdirTemp("", "pcc-migrate-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Stage 1: legacy fixture database + per-app cold reference outputs.
	type ref struct {
		ks    core.KeySet
		ticks uint64
	}
	refs := make([]ref, len(apps))
	for i, app := range apps {
		out, err := run(runSpec{Prog: app.Prog, In: app.Startup, Cfg: guiCfg()})
		if err != nil {
			return nil, err
		}
		cf, ks := core.BuildCacheFile(out.VM)
		image, err := cf.MarshalBinary()
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, ks.CacheFileName()), image, 0o644); err != nil {
			return nil, err
		}
		refs[i] = ref{ks: ks, ticks: out.Res.Stats.Ticks}
	}
	bytesBefore, err := diskBytes(dir)
	if err != nil {
		return nil, err
	}

	// Stage 2: corrupt the middle app's cache file with a single mid-file
	// bit flip — the hardest corruption to catch without hashing.
	victim := filepath.Join(dir, refs[1].ks.CacheFileName())
	b, err := os.ReadFile(victim)
	if err != nil {
		return nil, fmt.Errorf("migrate: fixture entry missing: %w", err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(victim, b, 0o644); err != nil {
		return nil, err
	}

	// Stage 3: migrate in place.
	mgr, err := core.NewManager(dir)
	if err != nil {
		return nil, err
	}
	mrep, err := mgr.MigrateToStore()
	if err != nil {
		return nil, fmt.Errorf("migrate: migration failed: %w", err)
	}
	if mrep.Scanned != len(apps) || mrep.Migrated != len(apps)-1 || mrep.Quarantined != 1 {
		return nil, fmt.Errorf("migrate: scanned/migrated/quarantined = %d/%d/%d, want %d/%d/1",
			mrep.Scanned, mrep.Migrated, mrep.Quarantined, len(apps), len(apps)-1)
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "*.pcc")); len(leftovers) != 0 {
		return nil, fmt.Errorf("migrate: %d legacy files left behind", len(leftovers))
	}

	// Stage 4: deep verification — recovery re-verifies every migrated
	// entry through the manifest+blob path and must quarantine nothing.
	rrep, err := mgr.RecoverIndex()
	if err != nil {
		return nil, fmt.Errorf("migrate: post-migration recovery failed: %w", err)
	}
	if rrep.FilesQuarantined != 0 {
		return nil, fmt.Errorf("migrate: recovery quarantined %d migrated entries", rrep.FilesQuarantined)
	}

	// Stage 5: the surviving entries warm-serve through a deep-verifying
	// manager; the corrupted one is a clean miss.
	deep, err := core.NewManager(dir, core.WithDeepVerify())
	if err != nil {
		return nil, err
	}
	var warmTicks uint64
	for i, app := range apps {
		if i == 1 {
			if _, err := deep.Lookup(refs[i].ks); !errors.Is(err, core.ErrNoCache) {
				return nil, fmt.Errorf("migrate: corrupt entry should be a miss, got %v", err)
			}
			continue
		}
		out, err := run(runSpec{Prog: app.Prog, In: app.Startup, Cfg: guiCfg(), Mgr: deep, Prime: primeSame})
		if err != nil {
			return nil, err
		}
		if out.Prime == nil || out.Prime.Installed == 0 {
			return nil, fmt.Errorf("migrate: %s primed nothing from the migrated database", app.Name)
		}
		if out.Res.Stats.Ticks >= refs[i].ticks {
			return nil, fmt.Errorf("migrate: %s warm run (%d ticks) not faster than cold (%d)",
				app.Name, out.Res.Stats.Ticks, refs[i].ticks)
		}
		warmTicks += out.Res.Stats.Ticks
	}
	bytesAfter, err := diskBytes(dir)
	if err != nil {
		return nil, err
	}

	tb := stats.NewTable("three-app legacy fixture, one entry corrupted, migrated in place",
		"stage", "result")
	tb.AddRow("fixture", fmt.Sprintf("%d legacy entries, %d bytes", len(apps), bytesBefore))
	tb.AddRow("migrate", fmt.Sprintf("%d migrated, %d quarantined, %d blobs added (%d shared)",
		mrep.Migrated, mrep.Quarantined, mrep.BlobsAdded, mrep.BlobsShared))
	tb.AddRow("deep verify", "recovery green, 0 further quarantines")
	tb.AddRow("warm serve", fmt.Sprintf("%d apps primed from manifests, corrupt app a clean miss", len(apps)-1))
	tb.AddRow("database", fmt.Sprintf("%d bytes after migration", bytesAfter))

	rep := &Report{ID: "migrate", Title: "Legacy-to-store migration: quarantine, deep verify, warm serve", Body: tb.Render()}
	rep.AddMetric("migrate_warm_ticks", float64(warmTicks))
	rep.AddMetric("migrate_quarantined", float64(mrep.Quarantined))
	rep.AddMetric("migrate_blobs_added", float64(mrep.BlobsAdded))
	rep.Notes = append(rep.Notes,
		"migration refuses to launder corruption: the flipped-bit entry is quarantined, not converted",
		fmt.Sprintf("surviving entries re-serve warm through the deep verifier; database %d -> %d bytes", bytesBefore, bytesAfter))
	return rep, nil
}

func init() {
	Registry = append(Registry, Entry{
		ID: "migrate", Title: "Legacy-to-store migration smoke", Run: Migrate,
	})
}
