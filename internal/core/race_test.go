package core_test

import (
	"errors"
	"sync"
	"testing"

	"persistcc/internal/core"
	"persistcc/internal/loader"
	"persistcc/internal/testprog"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
)

// ranVMs executes n VMs of the world to completion with distinct iteration
// counts, so their trace sets differ and concurrent commits genuinely
// accumulate rather than all writing the identical file.
func ranVMs(t *testing.T, w *testutil.World, n int) []*vm.VM {
	t.Helper()
	vms := make([]*vm.VM, n)
	for i := range vms {
		p, err := testprog.Load(w.Exe, w.Libs, loader.Config{})
		if err != nil {
			t.Fatal(err)
		}
		v := vm.New(p, vm.WithInput([]uint64{uint64(i)}))
		if _, err := v.Run(); err != nil {
			t.Fatal(err)
		}
		vms[i] = v
	}
	return vms
}

// TestCommitConcurrentGoroutines accumulates many runs into one database
// from concurrent goroutines through a single shared Manager — the shape
// the cache server produces — and checks no commit is lost and the final
// file is intact. Run under -race this also exercises the Manager's
// internal locking.
func TestCommitConcurrentGoroutines(t *testing.T) {
	w := testutil.BuildWorld(t, "raceapp", mainSrc, map[string]string{"libwork": libWork})
	mgr := testutil.NewMgr(t)
	vms := ranVMs(t, w, 8)

	var wg sync.WaitGroup
	errs := make([]error, len(vms))
	for i, v := range vms {
		wg.Add(1)
		go func(i int, v *vm.VM) {
			defer wg.Done()
			_, errs[i] = mgr.Commit(v)
		}(i, v)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	checkAccumulated(t, w, mgr, vms)
}

// TestCommitConcurrentManagers does the same through one Manager per
// goroutine over the same directory — the multi-process shape, serialized
// only by the on-disk database lock.
func TestCommitConcurrentManagers(t *testing.T) {
	w := testutil.BuildWorld(t, "raceapp2", mainSrc, map[string]string{"libwork": libWork})
	dir := t.TempDir()
	vms := ranVMs(t, w, 8)

	var wg sync.WaitGroup
	errs := make([]error, len(vms))
	for i, v := range vms {
		wg.Add(1)
		go func(i int, v *vm.VM) {
			defer wg.Done()
			m, err := core.NewManager(dir)
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = m.Commit(v)
		}(i, v)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	mgr, err := core.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkAccumulated(t, w, mgr, vms)
}

// checkAccumulated verifies the database holds exactly one intact cache
// file for the application whose trace set covers every committed run.
func checkAccumulated(t *testing.T, w *testutil.World, mgr *core.Manager, vms []*vm.VM) {
	t.Helper()
	entries, err := mgr.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("got %d index entries, want 1", len(entries))
	}
	cf, err := readEntry(mgr, entries[0].File)
	if err != nil {
		t.Fatalf("final cache file corrupt: %v", err)
	}
	// Every run's file-backed traces are a subset of the biggest run's, so
	// the accumulated file must hold at least the biggest run's count.
	most := 0
	for _, v := range vms {
		n := 0
		for _, tr := range v.Cache().Traces() {
			if tr.Module >= 0 {
				n++
			}
		}
		if n > most {
			most = n
		}
	}
	if len(cf.Traces) < most {
		t.Fatalf("accumulated file has %d traces, largest single run had %d — a commit was lost",
			len(cf.Traces), most)
	}
	// A fresh run must be able to prime from the accumulated file.
	p, err := testprog.Load(w.Exe, w.Libs, loader.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(p, vm.WithInput([]uint64{3}))
	rep, err := mgr.Prime(v)
	if err != nil {
		t.Fatalf("prime after concurrent commits: %v", err)
	}
	if rep.Installed == 0 {
		t.Fatal("prime installed nothing from the accumulated file")
	}
	if _, err := v.Run(); err != nil {
		t.Fatalf("run on accumulated cache: %v", err)
	}
}

// primeRunCommit is one launch against mgr: prime (an empty database is a
// cold start), run, commit.
func primeRunCommit(w *testutil.World, mgr *core.Manager, input uint64) (*vm.Result, error) {
	p, err := testprog.Load(w.Exe, w.Libs, loader.Config{})
	if err != nil {
		return nil, err
	}
	v := vm.New(p, vm.WithInput([]uint64{input}))
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

// TestCommitsRaceRecoverIndex launches four VMs that prime from, run and
// commit into one shared Manager while RecoverIndex loops over the same
// database and independent Managers over its directory prime fresh VMs.
// No launch may diverge from its cold reference, and the database must end
// with one intact, warm-servable entry.
func TestCommitsRaceRecoverIndex(t *testing.T) {
	w := testutil.BuildWorld(t, "recoverrace", mainSrc, map[string]string{"libwork.so": libWork})
	dir := testutil.TempDB(t)
	mgr, err := core.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Seed one entry, so the launches prime as well as commit, and record
	// cold reference results for every input the racers will run.
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
			results[i], runErrs[i] = primeRunCommit(w, mgr, in)
		}(i, in)
	}
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
	// Independent managers: the multi-process reader shape.
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
	case err := <-readerErr:
		t.Fatalf("concurrent reader manager: %v", err)
	default:
	}
	for i, in := range inputs {
		if runErrs[i] != nil {
			t.Fatalf("launch with input %d: %v", in, runErrs[i])
		}
		res, ref := results[i], refs[in]
		if res.ExitCode != ref.ExitCode || res.Stats.InstsExecuted != ref.Stats.InstsExecuted {
			t.Errorf("input %d diverged under race: exit %d/%d insts %d/%d",
				in, res.ExitCode, ref.ExitCode, res.Stats.InstsExecuted, ref.Stats.InstsExecuted)
		}
	}

	entries, err := mgr.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("got %d index entries, want 1", len(entries))
	}
	if _, err := readEntry(mgr, entries[0].File); err != nil {
		t.Errorf("entry %s unverifiable after race: %v", entries[0].File, err)
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
		t.Fatal("database not warm-servable after concurrent launches")
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
}
