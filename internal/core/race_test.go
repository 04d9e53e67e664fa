package core_test

import (
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
