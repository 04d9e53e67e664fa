package persistcc_test

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"persistcc"
	"persistcc/internal/cacheserver"
	"persistcc/internal/cacheserver/fleet"
	"persistcc/internal/core"
	"persistcc/internal/metrics"
)

const facadeProg = `
.text
.global _start
_start:
	movi s0, 20
	movi s1, 0
loop:
	beqz s0, done
	sd   s1, -8(sp)     ; spill through memory so memtrace sees traffic
	ld   a0, -8(sp)
	call bump
	mv   s1, a0
	addi s0, s0, -1
	j    loop
done:
	mv   a1, s1
	movi a0, 1
	sys
	halt
`

const facadeLib = `
.text
.global bump
bump:
	addi a0, a0, 3
	ret
`

func build(t *testing.T) (*persistcc.Object, []*persistcc.Object) {
	t.Helper()
	exe, libs, err := persistcc.BuildExecutable("demo", facadeProg, map[string]string{"libbump.so": facadeLib})
	if err != nil {
		t.Fatal(err)
	}
	return exe, libs
}

func TestFacadeRun(t *testing.T) {
	exe, libs := build(t)
	out, err := persistcc.Run(exe, libs, persistcc.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.ExitCode != 60 {
		t.Errorf("exit = %d, want 60", out.ExitCode)
	}
	nat, err := persistcc.Run(exe, libs, persistcc.RunOptions{Native: true})
	if err != nil {
		t.Fatal(err)
	}
	if nat.ExitCode != 60 {
		t.Errorf("native exit = %d", nat.ExitCode)
	}
	if nat.Stats.Ticks >= out.Stats.Ticks {
		t.Error("native should be cheaper than cold translation")
	}
}

func TestFacadePersistence(t *testing.T) {
	exe, libs := build(t)
	dir := t.TempDir()
	first, err := persistcc.Run(exe, libs, persistcc.RunOptions{Persist: true, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if first.Commit == nil || first.Commit.Traces == 0 {
		t.Fatalf("first run committed nothing: %+v", first.Commit)
	}
	second, err := persistcc.Run(exe, libs, persistcc.RunOptions{Persist: true, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if second.Prime == nil || second.Prime.Installed == 0 {
		t.Fatalf("second run reused nothing: %+v", second.Prime)
	}
	if second.Stats.TransTicks != 0 {
		t.Errorf("second run still translated (%d ticks)", second.Stats.TransTicks)
	}
	if second.ExitCode != first.ExitCode {
		t.Error("results diverged")
	}
}

// TestRunStoreOpenRacesFailedLoad: Run opens the store of a seeded
// database on a goroutine while the loader maps the process; when the load
// fails, Run returns the load's error, no goroutine of it outlives the call,
// and the database still serves a warm launch.
func TestRunStoreOpenRacesFailedLoad(t *testing.T) {
	app, o := warmGFTP(t)
	base := runtime.NumGoroutine()
	broken := o
	broken.Loader.Resolve = func(name string) (*persistcc.Object, int64, error) {
		return nil, 0, fmt.Errorf("no library %s here", name)
	}
	if _, err := persistcc.Run(app.Prog.Exe, app.Prog.Libs, broken); err == nil || !strings.Contains(err.Error(), "no library") {
		t.Fatalf("Run over a failing load: %v, want the load's error", err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), base)
		}
	}
	warmLaunch(t, app, o)
}

// TestNativePersistLeavesDatabaseAlone: an interpreted (Native) launch
// against a warm database has no translations to reuse or keep, so Persist
// changes nothing about it: no prime, no commit, no persist ticks, the same
// ticks as without Persist, and the database as it was.
func TestNativePersistLeavesDatabaseAlone(t *testing.T) {
	exe, libs := build(t)
	dir := t.TempDir()
	if _, err := persistcc.Run(exe, libs, persistcc.RunOptions{Persist: true, CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)
	plain, err := persistcc.Run(exe, libs, persistcc.RunOptions{Native: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := persistcc.Run(exe, libs, persistcc.RunOptions{Native: true, Persist: true, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if out.Prime != nil || out.Commit != nil {
		t.Errorf("native launch primed %+v and committed %+v, want neither", out.Prime, out.Commit)
	}
	if out.Stats.PersistTicks != 0 || out.Stats.Ticks != plain.Stats.Ticks || out.ExitCode != plain.ExitCode {
		t.Errorf("native launch with Persist: %d persist ticks of %d, exit %d; without: %d ticks, exit %d",
			out.Stats.PersistTicks, out.Stats.Ticks, out.ExitCode, plain.Stats.Ticks, plain.ExitCode)
	}
	if after := dirListing(t, dir); !slices.Equal(after, before) {
		t.Errorf("native launch changed the database: %v -> %v", before, after)
	}
}

// dirListing lists every file under dir with its size.
func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out = append(out, fmt.Sprintf("%s %d", path, info.Size()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFacadePersistRequiresDir(t *testing.T) {
	exe, libs := build(t)
	if _, err := persistcc.Run(exe, libs, persistcc.RunOptions{Persist: true}); err == nil {
		t.Error("Persist without CacheDir accepted")
	}
}

// The pinned figures of TestPrefetchFleetLaunch's warm launch: gftp's whole
// entry installs, each trace charged what InstallPersisted charges.
const (
	bulkPrimeInstalled = 772
	bulkPrimeTicks     = 1_699_816
)

// TestPrefetchFleetLaunch: a warm gftp launch from a fresh machine with
// Prefetch, through a fleet of one daemon the cold launch published to,
// translates nothing, and its prime and ticks are the pinned ones. Prefetch
// without a fleet is refused.
func TestPrefetchFleetLaunch(t *testing.T) {
	app := gftp(t)
	mgr, err := core.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cacheserver.New(mgr)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := cacheserver.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	o := persistcc.RunOptions{
		Input:       app.Startup.Words(),
		Loader:      persistcc.LoaderConfig{Placement: persistcc.PlaceHashed},
		Persist:     true,
		CacheDir:    t.TempDir(),
		FleetConfig: fleet.Single(ln.Addr().String()),
	}
	if _, err := persistcc.Run(app.Prog.Exe, app.Prog.Libs, o); err != nil {
		t.Fatal(err)
	}
	o.CacheDir, o.Prefetch = t.TempDir(), true
	out, err := persistcc.Run(app.Prog.Exe, app.Prog.Libs, o)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.TracesTranslated != 0 || out.Prime.Installed != bulkPrimeInstalled || out.Stats.Ticks != bulkPrimeTicks {
		t.Errorf("prefetch launch: translated %d, installed %d, %d ticks; want 0, %d, %d",
			out.Stats.TracesTranslated, out.Prime.Installed, out.Stats.Ticks, bulkPrimeInstalled, bulkPrimeTicks)
	}

	o.FleetConfig = nil
	if _, err := persistcc.Run(app.Prog.Exe, app.Prog.Libs, o); err == nil || !strings.Contains(err.Error(), "Prefetch requires FleetConfig") {
		t.Errorf("Prefetch without a fleet: %v, want it refused", err)
	}
}

func TestFacadeTools(t *testing.T) {
	for _, name := range []string{"bbcount", "bbcount-inst", "memtrace", "opcodemix"} {
		tool, err := persistcc.ToolByName(name)
		if err != nil || tool == nil {
			t.Errorf("ToolByName(%q): %v", name, err)
		}
	}
	if tool, err := persistcc.ToolByName(""); err != nil || tool != nil {
		t.Error("empty tool name should be nil, nil")
	}
	if _, err := persistcc.ToolByName("bogus"); err == nil {
		t.Error("bogus tool accepted")
	}
	exe, libs := build(t)
	tool, _ := persistcc.ToolByName("memtrace")
	out, err := persistcc.Run(exe, libs, persistcc.RunOptions{Tool: tool})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.MemRefs == 0 {
		t.Error("memtrace recorded nothing")
	}
}

func TestFacadeAssembleErrors(t *testing.T) {
	if _, err := persistcc.Assemble("bad.o", "bogus instruction\n"); err == nil || !strings.Contains(err.Error(), "line") {
		t.Errorf("expected line-numbered assembly error, got %v", err)
	}
	if _, _, err := persistcc.BuildExecutable("x", "nolabel\n", nil); err == nil {
		t.Error("bad executable source accepted")
	}
	if _, _, err := persistcc.BuildExecutable("x", ".text\n.global _start\n_start: halt\n",
		map[string]string{"l.so": "junk\n"}); err == nil {
		t.Error("bad library source accepted")
	}
}

// TestFacadeOptimize covers RunOptions.Optimize end to end: behavior is
// unchanged, traces persist in optimized form, and a warm optimized run
// loads them without re-optimizing. An unoptimized run against the same
// directory must not see the optimized cache (separate key).
func TestFacadeOptimize(t *testing.T) {
	exe, libs := build(t)
	dir := t.TempDir()
	cold, err := persistcc.Run(exe, libs, persistcc.RunOptions{
		Optimize: true, Persist: true, CacheDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cold.ExitCode != 60 {
		t.Errorf("optimized exit = %d, want 60", cold.ExitCode)
	}
	if cold.Stats.OptRejects != 0 {
		t.Errorf("%d rewrites rejected", cold.Stats.OptRejects)
	}
	warm, err := persistcc.Run(exe, libs, persistcc.RunOptions{
		Optimize: true, Persist: true, CacheDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Prime == nil || warm.Prime.Installed == 0 {
		t.Fatalf("warm optimized run reused nothing: %+v", warm.Prime)
	}
	if warm.Stats.TracesOptimized != 0 {
		t.Error("warm run re-optimized persisted traces")
	}
	if warm.ExitCode != cold.ExitCode {
		t.Error("optimized warm run diverged")
	}
	plain, err := persistcc.Run(exe, libs, persistcc.RunOptions{Persist: true, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Prime != nil && plain.Prime.Installed != 0 {
		t.Error("optimizer cache leaked into an unoptimized run")
	}
}

// greetProg writes a line, reads the virtual cycle counter (a host value
// replay must pin) and exits with the sum of a loop, so a replay has
// output, a host-dependent syscall and an exit code to reproduce.
const greetProg = `
.text
.global _start
_start:
	movi a0, 2
	movi a1, 1
	la   a2, msg
	movi a3, 4
	sys
	movi a0, 5
	sys
	movi s0, 20
	movi s1, 0
loop:
	beqz s0, done
	mv   a0, s1
	call bump
	mv   s1, a0
	addi s0, s0, -1
	j    loop
done:
	mv   a1, s1
	movi a0, 1
	sys
	halt
.data
msg: .ascii "hi!\n"
`

// TestFacadeRecordReplay: a cold persistent launch recorded through Run
// replays bit-exactly against a fresh, equally cold database, and diverges
// against its own database, which the recording's commit left warm. The
// caller's registry holds the recorded run's ticks, commit included, and
// still counts the divergence after Run returns it.
func TestFacadeRecordReplay(t *testing.T) {
	exe, libs, err := persistcc.BuildExecutable("greet", greetProg, map[string]string{"libbump.so": facadeLib})
	if err != nil {
		t.Fatal(err)
	}
	rec := filepath.Join(t.TempDir(), "greet.rec")
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	recorded, err := persistcc.Run(exe, libs, persistcc.RunOptions{
		Persist: true, CacheDir: dir, Record: rec, Metrics: reg,
		Loader: persistcc.LoaderConfig{Placement: persistcc.PlaceASLR, ASLRSeed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The caller's registry holds the run's ticks, the commit's included.
	snap := reg.Snapshot()
	if v, _ := snap.Value("pcc_vm_ticks_total", "persist"); recorded.Commit.Ticks == 0 || v != float64(recorded.Stats.PersistTicks) {
		t.Errorf("registry persist ticks %v, outcome %d (commit %d)", v, recorded.Stats.PersistTicks, recorded.Commit.Ticks)
	}
	if v, _ := snap.Value("pcc_vm_ticks_total", "total"); v != float64(recorded.Stats.Ticks) {
		t.Errorf("registry total ticks %v, outcome %d", v, recorded.Stats.Ticks)
	}
	if recorded.ExitCode != 60 || string(recorded.Output) != "hi!\n" || recorded.Stats.TracesTranslated == 0 {
		t.Fatalf("recorded run: exit %d, output %q, %d traces translated; want 60, \"hi!\\n\", some",
			recorded.ExitCode, recorded.Output, recorded.Stats.TracesTranslated)
	}
	if recorded.LogEvents == 0 || recorded.LogBytes == 0 {
		t.Errorf("recorded run reports %d events, %d bytes", recorded.LogEvents, recorded.LogBytes)
	}

	replayed, err := persistcc.Run(exe, libs, persistcc.RunOptions{Persist: true, CacheDir: t.TempDir(), Replay: rec})
	if err != nil {
		t.Fatalf("replay against a cold database: %v", err)
	}
	if replayed.ExitCode != recorded.ExitCode || string(replayed.Output) != string(recorded.Output) {
		t.Errorf("replay: exit %d, output %q; recorded %d, %q",
			replayed.ExitCode, replayed.Output, recorded.ExitCode, recorded.Output)
	}
	if replayed.LogEvents != recorded.LogEvents {
		t.Errorf("replay matched %d events, the recording wrote %d", replayed.LogEvents, recorded.LogEvents)
	}

	reg = metrics.NewRegistry()
	_, err = persistcc.Run(exe, libs, persistcc.RunOptions{Persist: true, CacheDir: dir, Replay: rec, Metrics: reg})
	var div *persistcc.DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("replay against the warm database: %v, want a *DivergenceError", err)
	}
	if v, _ := reg.Snapshot().Value("pcc_replay_divergence_total"); v != 1 {
		t.Errorf("pcc_replay_divergence_total = %v after a divergent replay, want 1", v)
	}
}
