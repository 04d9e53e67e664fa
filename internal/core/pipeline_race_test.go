package core_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"persistcc/internal/core"
	"persistcc/internal/fsx"
	"persistcc/internal/loader"
	"persistcc/internal/testprog"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
)

// Race and crash coverage for the asynchronous translation pipeline against
// the persistent database: speculative worker installs race the dispatch
// loop inside each VM, batched commits from several pipelined VMs race each
// other, RecoverIndex and independent Managers over the same directory —
// and a simulated crash in the middle of a batched commit must leave the
// database intact and the execution unaffected.

// pipelinedRace runs one pipelined VM against mgr: prime (tolerating an
// empty database), run, final commit.
func pipelinedRace(w *testutil.World, mgr *core.Manager, input uint64) (*vm.Result, error) {
	p, err := testprog.Load(w.Exe, w.Libs, loader.Config{})
	if err != nil {
		return nil, err
	}
	pipe := vm.NewPipeline(4, vm.PipelinePrefetch(), vm.PipelineFlushInterval(100_000))
	defer pipe.Shutdown()
	v := vm.New(p, vm.WithInput([]uint64{input}), vm.WithPipeline(pipe))
	pipe.SetCommit(mgr.BatchCommitter(v))
	if _, err := mgr.Prime(v); err != nil && !errors.Is(err, core.ErrNoCache) {
		return nil, err
	}
	res, err := v.Run()
	if err != nil {
		return nil, err
	}
	if _, err := mgr.Commit(v); err != nil {
		return nil, err
	}
	return res, nil
}

// TestPipelineRaceSharedDatabase drives four pipelined VMs (speculative
// installs + batched commits) against one shared Manager while RecoverIndex
// loops and independent Managers over the same directory prime fresh VMs.
// Under -race this covers every concurrent surface the pipeline adds; the
// assertions check no execution diverged and the database survived intact.
func TestPipelineRaceSharedDatabase(t *testing.T) {
	w := testutil.BuildWorld(t, "piperace", mainSrc, map[string]string{"libwork.so": libWork})
	dir := testutil.TempDB(t)
	mgr, err := core.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Seed so prefetch has something to bulk-install, and record cold
	// reference results for every input the racers will run.
	inputs := []uint64{40, 41, 47, 53}
	refs := make(map[uint64]*vm.Result)
	for _, in := range inputs {
		p, err := testprog.Load(w.Exe, w.Libs, loader.Config{})
		if err != nil {
			t.Fatal(err)
		}
		v := vm.New(p, vm.WithInput([]uint64{in}))
		res, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		refs[in] = res
		if in == inputs[0] {
			if _, err := mgr.Commit(v); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	runErrs := make([]error, len(inputs))
	results := make([]*vm.Result, len(inputs))
	for i, in := range inputs {
		wg.Add(1)
		go func(i int, in uint64) {
			defer wg.Done()
			results[i], runErrs[i] = pipelinedRace(w, mgr, in)
		}(i, in)
	}
	// Recovery passes race the batched commits through the database lock.
	recoverErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := mgr.RecoverIndex(); err != nil {
				recoverErr <- err
				return
			}
		}
	}()
	// Independent managers — the multi-process reader shape.
	readerErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			m2, err := core.NewManager(dir)
			if err != nil {
				readerErr <- err
				return
			}
			p, err := testprog.Load(w.Exe, w.Libs, loader.Config{})
			if err != nil {
				readerErr <- err
				return
			}
			v := vm.New(p, vm.WithInput([]uint64{uint64(i)}))
			if _, err := m2.Prime(v); err != nil && !errors.Is(err, core.ErrNoCache) {
				readerErr <- err
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-recoverErr:
		t.Fatalf("concurrent RecoverIndex: %v", err)
	default:
	}
	select {
	case err := <-readerErr:
		t.Fatalf("concurrent reader manager: %v", err)
	default:
	}
	for i, in := range inputs {
		if runErrs[i] != nil {
			t.Fatalf("pipelined run input %d: %v", in, runErrs[i])
		}
		res, ref := results[i], refs[in]
		if res.ExitCode != ref.ExitCode || res.Stats.InstsExecuted != ref.Stats.InstsExecuted {
			t.Errorf("input %d diverged under race: exit %d/%d insts %d/%d",
				in, res.ExitCode, ref.ExitCode, res.Stats.InstsExecuted, ref.Stats.InstsExecuted)
		}
	}

	// The database must end intact and warm-servable.
	entries, err := mgr.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("got %d index entries, want 1", len(entries))
	}
	for _, e := range entries {
		if _, err := readEntry(mgr, e.File); err != nil {
			t.Errorf("entry %s unverifiable after race: %v", e.File, err)
		}
	}
	p, err := testprog.Load(w.Exe, w.Libs, loader.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(p, vm.WithInput([]uint64{inputs[0]}))
	rep, err := mgr.Prime(v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Installed == 0 {
		t.Fatal("database not warm-servable after concurrent pipelined runs")
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineChaosCrashMidBatchCommit simulates a process losing its
// filesystem in the middle of a batched commit: the first manifest write of
// the background committer crashes, every later filesystem operation
// fails. Execution must be unaffected (the committer is fire-and-forget),
// the error must be accounted in Stats.BatchErrors, and the database must
// reopen with the pre-crash entry intact and recoverable.
func TestPipelineChaosCrashMidBatchCommit(t *testing.T) {
	restore := core.SetLockTimeout(50 * time.Millisecond)
	defer restore()
	w := testutil.BuildWorld(t, "pipechaos", mainSrc, map[string]string{"libwork.so": libWork})
	dir := testutil.TempDB(t)

	// Baseline entry committed cleanly before the crash run.
	clean, err := core.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := testprog.Load(w.Exe, w.Libs, loader.Config{})
	if err != nil {
		t.Fatal(err)
	}
	vb := vm.New(pb, vm.WithInput([]uint64{10}))
	if _, err := vb.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Commit(vb); err != nil {
		t.Fatal(err)
	}
	ks := core.KeysFor(vb)

	// Cold reference for the crashing input.
	pr, err := testprog.Load(w.Exe, w.Libs, loader.Config{})
	if err != nil {
		t.Fatal(err)
	}
	vr := vm.New(pr, vm.WithInput([]uint64{60}))
	ref, err := vr.Run()
	if err != nil {
		t.Fatal(err)
	}

	inj := fsx.NewInject(fsx.OS)
	inj.CrashAt(fsx.OpWrite, ".pcm.tmp", 1)
	mgrI, err := core.NewManager(dir, core.WithFS(inj))
	if err != nil {
		t.Fatal(err)
	}
	p, err := testprog.Load(w.Exe, w.Libs, loader.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A tiny flush interval forces batched commits mid-run; the run is cold
	// so the batches carry freshly translated traces.
	pipe := vm.NewPipeline(4, vm.PipelineFlushInterval(20_000))
	defer pipe.Shutdown()
	v := vm.New(p, vm.WithInput([]uint64{60}), vm.WithPipeline(pipe))
	pipe.SetCommit(mgrI.BatchCommitter(v))
	res, err := v.Run()
	if err != nil {
		t.Fatalf("execution must survive a committer crash: %v", err)
	}
	if !inj.Crashed() {
		t.Fatal("no batched commit reached the filesystem; the crash point was never armed")
	}
	if res.Stats.BatchErrors == 0 {
		t.Error("committer crash not accounted in Stats.BatchErrors")
	}
	if res.ExitCode != ref.ExitCode || res.Stats.InstsExecuted != ref.Stats.InstsExecuted {
		t.Errorf("crashed-committer run diverged: exit %d/%d insts %d/%d",
			res.ExitCode, ref.ExitCode, res.Stats.InstsExecuted, ref.Stats.InstsExecuted)
	}

	// Database invariants, chaos-harness style: reopen, verify every entry,
	// confirm the baseline survived, and run recovery.
	mgr2, err := core.NewManager(dir)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	entries, err := mgr2.Entries()
	if err != nil {
		t.Fatalf("index unreadable after crash: %v", err)
	}
	for _, e := range entries {
		if _, err := readEntry(mgr2, e.File); err != nil {
			t.Errorf("entry %s torn by committer crash: %v", e.File, err)
		}
	}
	if _, err := mgr2.Lookup(ks); err != nil {
		t.Fatalf("baseline entry lost to committer crash: %v", err)
	}
	if _, err := mgr2.RecoverIndex(); err != nil {
		t.Fatalf("recovery after committer crash: %v", err)
	}
	if _, err := mgr2.Lookup(ks); err != nil {
		t.Errorf("baseline lost by recovery: %v", err)
	}
}
