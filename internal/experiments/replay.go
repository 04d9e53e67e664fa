package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"persistcc/internal/core"
	"persistcc/internal/replay"
	"persistcc/internal/stats"
	"persistcc/internal/vm"
)

// replayMinAvoided is the CI gate on replay-shipped first launches: the
// shipped cache must eliminate at least this fraction of the cold
// translation work (make gate-smoke).
const replayMinAvoided = 0.9

// ReplayWarming is the record-and-replay experiment: a vendor machine runs
// each GUI application cold, commits the persistent cache, takes a database
// snapshot and records one warm startup through the VM boundary. The
// snapshot and the recording ship with the application. On the user's
// machine the first launch primes from the shipped snapshot and re-executes
// under the replayer — so the launch is warm (almost no translation) and
// *verified*: registers, memory image, output and every cache-behavior
// counter must match the vendor's recording bit for bit, or the replayer
// reports the first divergent event. A tampered recording must be detected,
// not silently absorbed. Everything is deterministic; CI gates on the
// counts.
func ReplayWarming() (*Report, error) {
	suite, err := guiSuite()
	if err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp("", "pcc-replay-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	tb := stats.NewTable("replay-shipped first launches (GUI suite)",
		"app", "events", "log bytes", "cold translated", "first-launch translated", "reused", "verified")
	var totEvents, totBytes, totCold, totWarm, totReused uint64
	var lastRec []byte

	for _, app := range suite.Apps {
		// Vendor machine: cold run populates the database.
		mgr, clean, err := tmpMgr()
		if err != nil {
			return nil, err
		}
		cold, err := run(runSpec{Prog: app.Prog, In: app.Startup, Cfg: guiCfg(), Mgr: mgr, Commit: true})
		if err != nil {
			clean()
			return nil, err
		}

		// Record the warm startup that ships with the application.
		recPath := filepath.Join(work, app.Name+".rec")
		rec, err := replay.NewRecorder(nil, recPath)
		if err != nil {
			clean()
			return nil, err
		}
		v, err := app.Prog.NewVM(guiCfg(), app.Startup, vm.WithBoundary(rec))
		if err != nil {
			clean()
			return nil, err
		}
		err = rec.Start(replay.StartInfo{
			Program:   app.Name,
			Placement: guiCfg().Placement,
			Input:     app.Startup.Words(),
			PID:       1,
			Proc:      v.Process(),
		})
		if err != nil {
			clean()
			return nil, err
		}
		if _, err := mgr.Prime(v); err != nil {
			clean()
			return nil, err
		}
		res, err := v.Run()
		if err != nil {
			clean()
			return nil, err
		}
		if err := rec.Finish(v, res); err != nil {
			clean()
			return nil, err
		}

		// Ship: the database snapshot travels next to the recording.
		shipDB := filepath.Join(work, app.Name+".db")
		if err := mgr.SnapshotTo(shipDB); err != nil {
			clean()
			return nil, err
		}
		clean()

		// User machine, first launch: only the shipped artifacts exist.
		data, err := os.ReadFile(recPath)
		if err != nil {
			return nil, err
		}
		lastRec = data
		rp, err := replay.NewReplayer(data)
		if err != nil {
			return nil, err
		}
		userMgr, err := core.NewManager(shipDB)
		if err != nil {
			return nil, err
		}
		vu, err := app.Prog.NewVM(guiCfg(), app.Startup, vm.WithBoundary(rp), vm.WithPID(rp.PID()))
		if err != nil {
			return nil, err
		}
		if err := rp.VerifyLayout(vu.Process()); err != nil {
			return nil, fmt.Errorf("replay: %s: shipped layout mismatch: %w", app.Name, err)
		}
		prep, err := userMgr.Prime(vu)
		if err != nil {
			return nil, err
		}
		if prep.Installed == 0 {
			return nil, fmt.Errorf("replay: %s: shipped snapshot primed nothing", app.Name)
		}
		resU, err := vu.Run()
		if err != nil {
			return nil, err
		}
		if err := rp.Finish(vu, resU); err != nil {
			// Self-package the divergence: recording plus shipped snapshot.
			bundleCrasher(&replay.Crasher{
				Name: "replay-" + app.Name,
				Kind: "divergence",
				Note: fmt.Sprintf("first launch diverged from the shipped recording: %v", err),
			}, data, shipDB)
			return nil, fmt.Errorf("replay: %s: %w", app.Name, err)
		}

		totEvents += rec.Events()
		totBytes += rec.Bytes()
		totCold += cold.Res.Stats.TracesTranslated
		totWarm += resU.Stats.TracesTranslated
		totReused += resU.Stats.TracesReused
		tb.AddRow(app.Name,
			fmt.Sprintf("%d", rec.Events()), fmt.Sprintf("%d", rec.Bytes()),
			fmt.Sprintf("%d", cold.Res.Stats.TracesTranslated),
			fmt.Sprintf("%d", resU.Stats.TracesTranslated),
			fmt.Sprintf("%d", resU.Stats.TracesReused), "bit-exact")
	}

	// Negative gate: a truncated recording must fail loudly, naming the
	// event where the log gave out — never replay as a silent success.
	cut := replay.Decode(lastRec)
	if len(cut.Events) < 6 {
		return nil, fmt.Errorf("replay: recording too short for the tamper gate")
	}
	trunc := lastRec[:cut.Events[len(cut.Events)-2].Offset]
	app := suite.Apps[len(suite.Apps)-1]
	rp, err := replay.NewReplayer(trunc)
	if err != nil {
		return nil, fmt.Errorf("replay: truncated prelude rejected too early: %w", err)
	}
	vt, err := app.Prog.NewVM(guiCfg(), app.Startup, vm.WithBoundary(rp), vm.WithPID(rp.PID()))
	if err != nil {
		return nil, err
	}
	var div *replay.DivergenceError
	resT, terr := vt.Run()
	if terr == nil {
		terr = rp.Finish(vt, resT)
	}
	if !errors.As(terr, &div) {
		return nil, fmt.Errorf("replay: truncated recording did not produce a divergence report (got %v)", terr)
	}

	avoided := 1 - float64(totWarm)/float64(totCold)
	rep := &Report{ID: "replay", Title: "Replay-driven cache warming: shipped recordings verify warm first launches", Body: tb.Render()}
	rep.AddMetric("apps_verified", float64(len(suite.Apps)))
	rep.AddMetric("recorded_events", float64(totEvents))
	rep.AddMetric("recorded_bytes", float64(totBytes))
	rep.AddMetric("first_launch_translated", float64(totWarm))
	rep.AddMetric("first_launch_reused", float64(totReused))
	rep.AddMetric("translation_avoided_pct", 100*avoided)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("all %d first launches replayed bit-exactly against their shipped recordings (registers, memory, output, cache counters)", len(suite.Apps)),
		fmt.Sprintf("translation avoided at first launch: %s (%d cold traces vs %d; gate >= %s)",
			stats.Pct(avoided), totCold, totWarm, stats.Pct(replayMinAvoided)),
		fmt.Sprintf("tamper gate: truncated recording rejected with a diagnostic naming event %d", div.Event))

	if avoided < replayMinAvoided {
		return rep, fmt.Errorf("replay: only %s of translation avoided at first launch, want >= %s",
			stats.Pct(avoided), stats.Pct(replayMinAvoided))
	}
	return rep, nil
}

func init() {
	Registry = append(Registry, Entry{
		ID: "replay", Title: "Replay-driven cache warming: shipped recordings verify warm first launches", Run: ReplayWarming,
	})
}
