package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"persistcc/internal/core"
	"persistcc/internal/fsx"
	"persistcc/internal/loader"
	"persistcc/internal/replay"
	"persistcc/internal/stats"
	"persistcc/internal/workload"
)

// chaosLockWait keeps recovery from waiting out the full advisory-lock
// steal deadline on the stale .lock a simulated crash leaves behind.
const chaosLockWait = 100 * time.Millisecond

// chaosDelta runs one benchmark input cold and captures what it commits;
// the crash sweep replays these as pure file operations.
func chaosDelta(b *workload.SpecBenchmark, input int) (*core.Delta, error) {
	out, err := run(runSpec{Prog: b.Prog, In: b.Train[input], Cfg: loader.Config{}})
	if err != nil {
		return nil, err
	}
	return core.NewDelta(out.VM), nil
}

// chaosInvariants reopens a post-crash database and checks, through a
// manager, what the design promises survives any single crash: every entry
// it lists reads and verifies as a lookup reads it.
func chaosInvariants(dir string, ksBase core.KeySet, wantTraces int) error {
	mgr, err := core.NewManager(dir, core.WithLockTimeout(chaosLockWait))
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	entries, err := mgr.Entries()
	if err != nil {
		return fmt.Errorf("entries unlistable: %w", err)
	}
	for _, e := range entries {
		cf, err := mgr.ReadPrior(e.File)
		if err == nil && cf == nil {
			err = errors.New("quarantined")
		}
		if err != nil {
			return fmt.Errorf("listed entry %s unverifiable: %w", e.File, err)
		}
	}
	cf, err := mgr.Lookup(ksBase)
	if err != nil {
		return fmt.Errorf("baseline entry lost: %w", err)
	}
	if len(cf.Traces) != wantTraces {
		return fmt.Errorf("baseline entry torn: %d traces, want %d", len(cf.Traces), wantTraces)
	}
	if _, err := mgr.RecoverIndex(); err != nil {
		return fmt.Errorf("recovery failed: %w", err)
	}
	if _, err := mgr.Lookup(ksBase); err != nil {
		return fmt.Errorf("recovery lost the baseline entry: %w", err)
	}
	return nil
}

// Chaos is the crash-consistency experiment: it enumerates every filesystem
// operation in the database's commit/merge/remove sequence, simulates a
// process crash at each one, and verifies the invariants the cache database
// promises — the entries stay listable, every listed file verifies, entries
// committed before the crash stay warm-servable, and a recovery pass always
// completes. A final stage corrupts a live cache file in place and shows the
// self-healing path: the file is quarantined, the lookup degrades to a cold
// miss, and repair verifies what is left. The workload is deterministic (fixed
// synthetic programs, no wall-clock or randomness in the fault schedule), so
// every count below is exact across runs — CI runs this as its chaos smoke.
func Chaos() (*Report, error) {
	suite, err := specSuite()
	if err != nil {
		return nil, err
	}
	gcc, err := gccBench()
	if err != nil {
		return nil, err
	}
	// Baseline entry: a different benchmark than the one committed under
	// fault, so "earlier entries survive a neighbour's crash" is a real
	// inter-entry claim.
	var base *workload.SpecBenchmark
	for _, b := range suite {
		if b.Name != gcc.Name {
			base = b
			break
		}
	}
	if base == nil {
		return nil, fmt.Errorf("chaos: need a second benchmark besides %s", gcc.Name)
	}

	dBase, err := chaosDelta(base, 0)
	if err != nil {
		return nil, err
	}
	d1, err := chaosDelta(gcc, 0)
	if err != nil {
		return nil, err
	}
	d2, err := chaosDelta(gcc, 1)
	if err != nil {
		return nil, err
	}
	ksBase, ksHot := dBase.Keys, d1.Keys
	sequence := func(mgr *core.Manager) {
		// Errors are expected mid-crash; the invariant check is what counts.
		mgr.CommitFile(d1)
		mgr.CommitFile(d2)
		mgr.RemoveEntry(ksHot.ManifestFileName())
	}
	newDB := func() (string, func(), error) {
		dir, err := os.MkdirTemp("", "pcc-chaos-*")
		if err != nil {
			return "", nil, err
		}
		mgr, err := core.NewManager(dir)
		if err == nil {
			_, err = mgr.CommitFile(dBase)
		}
		if err != nil {
			os.RemoveAll(dir)
			return "", nil, err
		}
		return dir, func() { os.RemoveAll(dir) }, nil
	}

	// Recording pass: enumerate the injection points.
	recDir, recClean, err := newDB()
	if err != nil {
		return nil, err
	}
	defer recClean()
	rec := fsx.NewInject(fsx.OS)
	recMgr, err := core.NewManager(recDir, core.WithFS(rec))
	if err != nil {
		return nil, err
	}
	rec.StartRecording()
	sequence(recMgr)
	ops := rec.Ops()
	if len(ops) == 0 {
		return nil, fmt.Errorf("chaos: recorded no filesystem operations")
	}

	// Crash at every one of them.
	survived := 0
	for k := 1; k <= len(ops); k++ {
		dir, clean, err := newDB()
		if err != nil {
			return nil, err
		}
		inj := fsx.NewInject(fsx.OS)
		mgr, err := core.NewManager(dir, core.WithFS(inj))
		if err != nil {
			clean()
			return nil, err
		}
		inj.CrashAtIndex(k)
		sequence(mgr)
		if !inj.Crashed() {
			clean()
			return nil, fmt.Errorf("chaos: crash point %d/%d never reached", k, len(ops))
		}
		if err := chaosInvariants(dir, ksBase, dBase.Len()); err != nil {
			// Self-package the failure before the evidence is cleaned up:
			// the post-crash database travels with the report.
			bundleCrasher(&replay.Crasher{
				Name: fmt.Sprintf("chaos-op%03d", k),
				Kind: "crash",
				Note: fmt.Sprintf("invariant violated after simulated crash at op %d/%d (%s %s): %v",
					k, len(ops), ops[k-1].Op, filepath.Base(ops[k-1].Path), err),
			}, nil, dir)
			clean()
			return nil, fmt.Errorf("chaos: crash at op %d (%s %s): %w",
				k, ops[k-1].Op, filepath.Base(ops[k-1].Path), err)
		}
		survived++
		clean()
	}

	// Self-healing stage: corrupt the hot entry's manifest in a healthy
	// database, then look it up — the corrupt file must be quarantined and
	// the lookup degrade to a cold miss, never an error.
	healDir, healClean, err := newDB()
	if err != nil {
		return nil, err
	}
	defer healClean()
	healMgr, err := core.NewManager(healDir, core.WithLockTimeout(chaosLockWait))
	if err != nil {
		return nil, err
	}
	if _, err := healMgr.CommitFile(d1); err != nil {
		return nil, err
	}
	hotPath := filepath.Join(healDir, ksHot.ManifestFileName())
	if err := os.WriteFile(hotPath, []byte("garbage, not a cache file"), 0o644); err != nil {
		return nil, err
	}
	if _, err := healMgr.Lookup(ksHot); err == nil {
		bundleCrasher(&replay.Crasher{
			Name: "chaos-selfheal",
			Kind: "crash",
			Note: "corrupt cache file served as a hit instead of being quarantined",
		}, nil, healDir)
		return nil, fmt.Errorf("chaos: corrupt cache file served as a hit")
	} else if !errors.Is(err, core.ErrNoCache) {
		bundleCrasher(&replay.Crasher{
			Name: "chaos-selfheal",
			Kind: "crash",
			Note: fmt.Sprintf("corrupt cache file failed the run instead of degrading to a miss: %v", err),
		}, nil, healDir)
		return nil, fmt.Errorf("chaos: corrupt cache file failed the run: %v", err)
	}
	quarantined := 0
	if v, ok := healMgr.Metrics().Snapshot().Value("pcc_core_quarantine_total", "manifest"); ok {
		quarantined = int(v)
	}
	if quarantined == 0 {
		return nil, fmt.Errorf("chaos: corrupt cache file was not quarantined")
	}
	repairRep, err := healMgr.RecoverIndex()
	if err != nil {
		return nil, fmt.Errorf("chaos: repair after quarantine: %w", err)
	}
	if _, err := healMgr.Lookup(ksBase); err != nil {
		return nil, fmt.Errorf("chaos: repair lost the healthy entry: %w", err)
	}

	tb := stats.NewTable("crash injection over the commit/merge/remove sequence",
		"stage", "points", "survived", "notes")
	tb.AddRow("crash sweep", fmt.Sprintf("%d", len(ops)), fmt.Sprintf("%d", survived),
		"entries listable and verified, baseline warm, recovery clean at every point")
	tb.AddRow("self-heal", "1", "1",
		fmt.Sprintf("corrupt cache file quarantined (%d), repair verified %d entries",
			quarantined, repairRep.EntriesVerified))

	rep := &Report{ID: "chaos", Title: "Crash-consistency chaos sweep and self-healing", Body: tb.Render()}
	rep.AddMetric("injection_points", float64(len(ops)))
	rep.AddMetric("crashes_survived", float64(survived))
	rep.AddMetric("quarantined_files", float64(quarantined))
	rep.AddMetric("repair_entries_verified", float64(repairRep.EntriesVerified))
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"all %d crash points left the database openable and verifiable; at most the in-flight entry was lost",
		len(ops)))
	return rep, nil
}

func init() {
	Registry = append(Registry, Entry{
		ID: "chaos", Title: "Crash-consistency chaos sweep and self-healing", Run: Chaos,
	})
}
