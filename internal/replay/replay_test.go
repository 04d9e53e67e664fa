package replay_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"persistcc/internal/core"
	"persistcc/internal/fsx"
	"persistcc/internal/loader"
	"persistcc/internal/replay"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

// recSrc is a guest that leans on every environment-dependent syscall the
// boundary pins: it folds cycle reads and pids into its result, so a replay
// that failed to inject the recorded values would change the architectural
// state, not just the log.
const recSrc = `
.text
.global _start
_start:
	movi s0, 40         ; >32 loop syscall pairs, forcing a mid-run log flush
	movi s1, 0
loop:
	beqz s0, done
	movi a0, 5          ; cycles: env-dependent, injected on replay
	sys
	add  s1, s1, a0
	movi a0, 7          ; getpid
	sys
	add  s1, s1, a0
	mv   a0, s1
	call compute
	mv   s1, a0
	addi s0, s0, -1
	j    loop
done:
	mv   a1, s1
	movi a0, 1          ; exit
	sys
	halt
`

func buildRecWorld(t testing.TB) *testutil.World {
	return testutil.BuildWorld(t, "rec", recSrc, map[string]string{"libwork.so": testutil.LibWork})
}

// record runs the world once under a recorder writing through fsys and
// returns any error from the record path (the run may legitimately die
// mid-recording under fault injection).
func record(t testing.TB, w *testutil.World, fsys fsx.FS, path string, input []uint64) error {
	rec, err := replay.NewRecorder(fsys, path)
	if err != nil {
		return err
	}
	v := w.NewVM(t, testutil.RunOpts{Input: input, Options: []vm.Option{vm.WithBoundary(rec)}})
	if err := rec.Start(replay.StartInfo{Program: "rec", Input: input, PID: 1, Proc: v.Process()}); err != nil {
		return err
	}
	res, err := v.Run()
	if err != nil {
		return err
	}
	return rec.Finish(v, res)
}

// replayLog re-executes a recording against the world and returns the first
// divergence (nil for a bit-exact replay). extra options let a test perturb
// the replay environment (e.g. warm the cache).
func replayLog(t testing.TB, w *testutil.World, data []byte, extra ...vm.Option) error {
	rp, err := replay.NewReplayer(data)
	if err != nil {
		return err
	}
	opts := append([]vm.Option{vm.WithBoundary(rp), vm.WithPID(rp.PID())}, extra...)
	v := w.NewVM(t, testutil.RunOpts{Input: rp.Input(), Options: opts})
	if err := rp.VerifyLayout(v.Process()); err != nil {
		return err
	}
	res, err := v.Run()
	if err != nil {
		return err
	}
	return rp.Finish(v, res)
}

func TestRecordReplayBitExact(t *testing.T) {
	w := buildRecWorld(t)
	path := filepath.Join(t.TempDir(), "run.rec")
	if err := record(t, w, nil, path, []uint64{3}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lg := replay.Decode(data)
	if !lg.Complete() {
		t.Fatalf("recording incomplete: %d events, truncated=%v", len(lg.Events), lg.Truncated)
	}
	if err := replayLog(t, w, data); err != nil {
		t.Fatalf("bit-exact replay diverged: %v", err)
	}

	// The NDJSON debug encoding must decode the same log.
	var buf bytes.Buffer
	if err := replay.DumpNDJSON(&buf, data); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	for _, want := range []string{`"event":"header"`, `"event":"module"`, `"event":"syscall"`, `"event":"end"`} {
		if !strings.Contains(dump, want) {
			t.Errorf("NDJSON dump missing %s:\n%s", want, dump)
		}
	}
}

// TestTruncatedLogDiagnostic cuts a recording off mid-run: replay must fail
// with a DivergenceError naming the event where the log gave out.
func TestTruncatedLogDiagnostic(t *testing.T) {
	w := buildRecWorld(t)
	path := filepath.Join(t.TempDir(), "run.rec")
	if err := record(t, w, nil, path, []uint64{3}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lg := replay.Decode(data)
	if len(lg.Events) < 8 {
		t.Fatalf("recording too short to truncate meaningfully: %d events", len(lg.Events))
	}
	// Cut just after a mid-run syscall record (and then some, to land
	// mid-frame of the next record).
	cutEvent := len(lg.Events) - 3
	cut := lg.Events[cutEvent].Offset + 3
	err = replayLog(t, w, data[:cut])
	var div *replay.DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("truncated replay: want DivergenceError, got %v", err)
	}
	if div.Event != cutEvent {
		t.Errorf("divergence at event %d, want the cut point %d: %v", div.Event, cutEvent, div)
	}
	if !strings.Contains(err.Error(), "log end") {
		t.Errorf("diagnostic does not name the log end: %v", err)
	}
}

// TestPerturbedLogDiagnostic flips one byte inside a mid-run record: the
// frame checksum rejects it, the log truncates there, and replay names that
// event as the first divergence.
func TestPerturbedLogDiagnostic(t *testing.T) {
	w := buildRecWorld(t)
	path := filepath.Join(t.TempDir(), "run.rec")
	if err := record(t, w, nil, path, []uint64{3}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lg := replay.Decode(data)
	victim := len(lg.Events) - 4
	data[lg.Events[victim].Offset+9] ^= 0xFF // a payload byte of that frame
	err = replayLog(t, w, data)
	var div *replay.DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("perturbed replay: want DivergenceError, got %v", err)
	}
	if div.Event != victim {
		t.Errorf("divergence at event %d, want the perturbed record %d: %v", div.Event, victim, div)
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Errorf("diagnostic does not flag the truncated recording: %v", err)
	}
}

// TestWarmthDivergenceDiagnostic replays a cold recording against a warm
// cache: the architectural state still matches, but the cache-behavior
// counters cannot, and the End verification must report the delta.
func TestWarmthDivergenceDiagnostic(t *testing.T) {
	w := buildRecWorld(t)
	path := filepath.Join(t.TempDir(), "run.rec")
	if err := record(t, w, nil, path, []uint64{3}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Commit a warm database from an independent run, then prime the
	// replaying VM from it.
	mgr := testutil.NewMgr(t)
	vc := w.NewVM(t, testutil.RunOpts{Input: []uint64{3}})
	if _, err := vc.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(vc); err != nil {
		t.Fatal(err)
	}

	rp, err := replay.NewReplayer(data)
	if err != nil {
		t.Fatal(err)
	}
	v := w.NewVM(t, testutil.RunOpts{Input: rp.Input(), Options: []vm.Option{vm.WithBoundary(rp), vm.WithPID(rp.PID())}})
	if rep, err := mgr.Prime(v); err != nil {
		t.Fatal(err)
	} else if rep.Installed == 0 {
		t.Fatal("warm prime installed nothing; test would be vacuous")
	}
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	err = rp.Finish(v, res)
	var div *replay.DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("warm replay of a cold recording: want DivergenceError, got %v", err)
	}
	if !strings.Contains(div.State, "traces_reused") {
		t.Errorf("state delta does not name the diverged counter: %v", div)
	}
}

// TestRecorderCrashSafety crashes the record path at every filesystem
// operation in turn: whatever bytes survive must decode to a valid record
// prefix that replay either reproduces (complete log) or rejects with a
// clean diagnostic (partial log) — never a silent success over a partial
// recording and never a panic.
func TestRecorderCrashSafety(t *testing.T) {
	w := buildRecWorld(t)
	input := []uint64{3}

	// Enumerate the record path's operations with a passive injector.
	probe := fsx.NewInject(nil)
	probe.StartRecording()
	dir := t.TempDir()
	if err := record(t, w, probe, filepath.Join(dir, "full.rec"), input); err != nil {
		t.Fatal(err)
	}
	ops := probe.Ops()
	if len(ops) < 4 {
		t.Fatalf("record path performed only %d fs operations", len(ops))
	}

	for k := 1; k <= len(ops); k++ {
		inj := fsx.NewInject(nil)
		inj.CrashAtIndex(k)
		path := filepath.Join(dir, "crash.rec")
		os.Remove(path)
		recErr := record(t, w, inj, path, input)
		if !inj.Crashed() {
			t.Fatalf("crash %d/%d: rule never fired", k, len(ops))
		}
		if recErr == nil {
			t.Fatalf("crash %d/%d (%s): record path reported success through a crash", k, len(ops), ops[k-1])
		}

		data, err := os.ReadFile(path)
		if err != nil {
			continue // crashed before the log existed: nothing to corrupt
		}
		lg := replay.Decode(data) // must never panic
		repErr := replayLog(t, w, data)
		if lg.Complete() {
			// A crash at the final fsync loses the ack, not the data: the
			// log on disk is whole and must replay bit-exactly.
			if repErr != nil {
				t.Fatalf("crash %d/%d (%s): complete log failed to replay: %v", k, len(ops), ops[k-1], repErr)
			}
		} else if repErr == nil {
			t.Fatalf("crash %d/%d (%s): replay of a partial log (%d events, truncated=%v) succeeded silently",
				k, len(ops), ops[k-1], len(lg.Events), lg.Truncated)
		}
	}
}

// TestShippedSnapshotWarmsFirstLaunch: each GUI application runs cold on
// the vendor's machine and commits, one warm startup is recorded, and the
// database snapshot ships beside the recording. On a machine that holds
// only those two, the first launch primes from the snapshot and replays the
// recording bit-exactly: registers, memory, output and every cache-behavior
// counter. Across the suite it avoids at least 90 % of the translation the
// cold runs did.
func TestShippedSnapshotWarmsFirstLaunch(t *testing.T) {
	const minAvoided = 0.9
	gui, err := workload.BuildGUISuite()
	if err != nil {
		t.Fatal(err)
	}
	cfg := loader.Config{Placement: loader.PlaceHashed}
	var cold, firstLaunch uint64
	for _, app := range gui.Apps {
		// The vendor's machine: a cold run commits, then a warm startup
		// is recorded and the database snapshot taken.
		mgr := testutil.NewMgr(t)
		v, err := app.Prog.NewVM(cfg, app.Startup)
		if err != nil {
			t.Fatal(err)
		}
		res, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Commit(v); err != nil {
			t.Fatal(err)
		}
		cold += res.Stats.TracesTranslated
		recPath := filepath.Join(t.TempDir(), app.Name+".rec")
		rec, err := replay.NewRecorder(nil, recPath)
		if err != nil {
			t.Fatal(err)
		}
		if v, err = app.Prog.NewVM(cfg, app.Startup, vm.WithBoundary(rec)); err != nil {
			t.Fatal(err)
		}
		err = rec.Start(replay.StartInfo{Program: app.Name, Placement: cfg.Placement,
			Input: app.Startup.Words(), PID: 1, Proc: v.Process()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Prime(v); err != nil {
			t.Fatal(err)
		}
		if res, err = v.Run(); err != nil {
			t.Fatal(err)
		}
		if err := rec.Finish(v, res); err != nil {
			t.Fatal(err)
		}
		shipDB := filepath.Join(t.TempDir(), app.Name+".db")
		if err := mgr.SnapshotTo(shipDB); err != nil {
			t.Fatal(err)
		}

		// The user's machine, first launch: only the shipped artifacts.
		data, err := os.ReadFile(recPath)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := replay.NewReplayer(data)
		if err != nil {
			t.Fatal(err)
		}
		user, err := core.NewManager(shipDB)
		if err != nil {
			t.Fatal(err)
		}
		vu, err := app.Prog.NewVM(cfg, app.Startup, vm.WithBoundary(rp), vm.WithPID(rp.PID()))
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.VerifyLayout(vu.Process()); err != nil {
			t.Fatalf("%s: shipped layout mismatch: %v", app.Name, err)
		}
		if prep, err := user.Prime(vu); err != nil || prep.Installed == 0 {
			t.Fatalf("%s: prime from the shipped snapshot: %+v, %v; want traces installed", app.Name, prep, err)
		}
		resU, err := vu.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.Finish(vu, resU); err != nil {
			t.Fatalf("%s: first launch diverged from the shipped recording: %v", app.Name, err)
		}
		firstLaunch += resU.Stats.TracesTranslated
	}
	if avoided := 1 - float64(firstLaunch)/float64(cold); avoided < minAvoided {
		t.Errorf("first launches translated %d traces against %d cold: %.1f%% avoided, want >= %.0f%%",
			firstLaunch, cold, 100*avoided, 100*minAvoided)
	}
}
