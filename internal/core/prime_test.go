package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"persistcc/internal/core"
	"persistcc/internal/guestopt"
	"persistcc/internal/instr"
	"persistcc/internal/loader"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
)

// installed is what a prime left in a VM: every persistent field of every
// trace in install order, the pool occupancy, and the report.
type installed struct {
	Traces     []vm.Trace
	Code, Data uint64
	Report     core.PrimeReport
}

func snapshotCache(v *vm.VM, rep *core.PrimeReport) installed {
	out := installed{Code: v.Cache().CodeBytes(), Data: v.Cache().DataBytes(), Report: *rep}
	for _, t := range v.Cache().Traces() {
		out.Traces = append(out.Traces, vm.Trace{
			Start: t.Start, Module: t.Module, ModOff: t.ModOff,
			Insts: t.Insts, Exits: t.Exits, Ops: t.Ops, Notes: t.Notes,
			OptLevel: t.OptLevel, OrigLen: t.OrigLen, SrcIdx: t.SrcIdx,
			Persisted: t.Persisted,
		})
	}
	return out
}

// TestPrimeConsumingMatchesCopying: Prime installs the traces of the file it
// just read, remapped in place; PrimeFrom installs copies and leaves the
// file alone. Both must fill the code cache identically — same traces field
// for field, same pool bytes, same report — from a legacy database and from
// a store one, at the layout the cache was written at and across a
// relocation edge (rebased with the extension, invalidated without), for
// optimized and instrumented traces; and a file PrimeFrom has used must
// prime a second VM to the same result.
func TestPrimeConsumingMatchesCopying(t *testing.T) {
	w := testutil.BuildWorld(t, "prog", mainSrc, map[string]string{"libwork.so": libWork})
	wrote := loader.Config{Placement: loader.PlaceASLR, ASLRSeed: 11}
	moved := loader.Config{Placement: loader.PlaceASLR, ASLRSeed: 22}
	opts := func(cfg loader.Config) testutil.RunOpts {
		return testutil.RunOpts{
			Input: []uint64{30}, Cfg: cfg, Tool: &instr.BBCount{},
			Options: []vm.Option{vm.WithOptimizer(guestopt.New(guestopt.All()))},
		}
	}
	for _, tc := range []struct {
		name        string
		migrated    bool // the entry is a migrated legacy image, not a commit
		relocatable bool
		moved       bool
	}{
		{"migrated/same-layout", true, false, false},
		{"migrated/moved-relocatable", true, true, true},
		{"migrated/moved-invalidated", true, false, true},
		{"store/same-layout", false, false, false},
		{"store/moved-relocatable", false, true, true},
		{"store/moved-invalidated", false, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := wrote
			if tc.moved {
				cfg = moved
			}
			dir := testutil.TempDB(t)
			var mopts []core.ManagerOption
			if tc.relocatable {
				mopts = append(mopts, core.WithRelocatable())
			}
			newMgr := func() *core.Manager { // a fresh one per prime, as a launch has
				mgr, err := core.NewManager(dir, mopts...)
				if err != nil {
					t.Fatal(err)
				}
				return mgr
			}
			if o := opts(wrote); tc.migrated {
				v := w.NewVM(t, o)
				if _, err := v.Run(); err != nil {
					t.Fatal(err)
				}
				cf, _ := core.BuildCacheFile(v)
				testutil.WriteLegacy(t, dir, cf)
				if _, err := newMgr().MigrateToStore(); err != nil {
					t.Fatal(err)
				}
			} else {
				o.Commit = true
				w.Run(t, newMgr(), o)
			}

			consumed := w.NewVM(t, opts(cfg))
			rep, err := newMgr().Prime(consumed)
			if err != nil {
				t.Fatal(err)
			}
			want := snapshotCache(consumed, rep)
			if want.Report.Installed == 0 {
				t.Fatalf("nothing installed: %+v", want.Report)
			}
			switch {
			case !tc.moved && (want.Report.Rebased != 0 || want.Report.Invalidated() != 0):
				t.Fatalf("same layout, yet %+v", want.Report)
			case tc.moved && tc.relocatable && (want.Report.Rebased == 0 || want.Report.InvalidBase != 0):
				t.Fatalf("relocation edge with the extension, yet %+v", want.Report)
			case tc.moved && !tc.relocatable && want.Report.InvalidBase == 0:
				t.Fatalf("relocation edge without the extension, yet %+v", want.Report)
			}

			mgr := newMgr()
			cf, err := mgr.Lookup(core.KeysFor(consumed))
			if err != nil {
				t.Fatal(err)
			}
			var optimized, instrumented, noted bool
			for _, tr := range cf.Traces {
				optimized = optimized || tr.OptLevel > 0
				instrumented = instrumented || len(tr.Ops) > 0
				noted = noted || len(tr.Notes) > 0
			}
			if !optimized || !instrumented || !noted {
				t.Fatalf("the cache exercises too little: optimized=%t instrumented=%t relocation notes=%t", optimized, instrumented, noted)
			}
			pristine, err := cf.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			for round := 1; round <= 2; round++ {
				copied := w.NewVM(t, opts(cfg))
				rep, err := mgr.PrimeFrom(copied, cf)
				if err != nil {
					t.Fatal(err)
				}
				if got := snapshotCache(copied, rep); !reflect.DeepEqual(got, want) {
					t.Errorf("PrimeFrom, use %d of one file, differs from Prime\n got %+v\nwant %+v", round, got.Report, want.Report)
					for i := range got.Traces {
						if i < len(want.Traces) && !reflect.DeepEqual(got.Traces[i], want.Traces[i]) {
							t.Fatalf("first differing trace %d\n got %+v\nwant %+v", i, got.Traces[i], want.Traces[i])
						}
					}
				}
				if after, err := cf.MarshalBinary(); err != nil || !bytes.Equal(after, pristine) {
					t.Fatalf("PrimeFrom changed the file it was given (use %d, err %v)", round, err)
				}
			}

			// Both caches run the program to the same end.
			res, err := consumed.Run()
			if err != nil {
				t.Fatal(err)
			}
			if cold, _ := w.NewVM(t, opts(cfg)).Run(); cold == nil || cold.ExitCode != res.ExitCode {
				t.Errorf("primed run exits %d, cold run %+v", res.ExitCode, cold)
			}
		})
	}
}

// TestCommitIgnoresStalePrimedManifest: a commit judges the entry as it
// stands, not the manifest its launch primed from. When a peer accumulates
// new traces into the entry in between, the commit must judge against what
// the peer wrote — and lose none of it.
func TestCommitIgnoresStalePrimedManifest(t *testing.T) {
	dir, ks, _, w := warmIncoming(t) // the entry covers input 10
	path := filepath.Join(dir, ks.ManifestFileName())
	launch := func(mgr *core.Manager, input uint64) *vm.VM {
		v := w.NewVM(t, testutil.RunOpts{Input: []uint64{input}})
		if _, err := mgr.Prime(v); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Run(); err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Shrink the entry to what input 0 covers, so a peer has something to add.
	small, _ := core.BuildCacheFile(chaosRan(t, w, 0))
	os.Remove(path)
	if _, err := openMgr(t, dir).CommitFile(core.DeltaOf(small)); err != nil {
		t.Fatal(err)
	}
	smallTraces := len(readManifest(t, dir, ks.ManifestFileName()).Traces)

	ours := openMgr(t, dir)
	v := launch(ours, 0) // primes from the small manifest

	// Undisturbed, the commit is answered from the manifest alone.
	rep, err := ours.Commit(v)
	if err != nil || !rep.Skipped || rep.Traces != smallTraces {
		t.Fatalf("undisturbed warm commit: %+v, %v; want skipped over %d traces", rep, err, smallTraces)
	}

	peer := openMgr(t, dir)
	prep, err := peer.Commit(launch(peer, 10))
	if err != nil || prep.Skipped || prep.NewTraces == 0 {
		t.Fatalf("the peer's run added nothing: %+v, %v", prep, err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	rep, err = ours.Commit(v)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Skipped || rep.Traces != prep.Traces {
		t.Errorf("commit after the peer's rewrite: %+v; want skipped over the peer's %d traces, not the %d primed from", rep, prep.Traces, smallTraces)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, written) {
		t.Errorf("the peer's manifest did not survive our commit (err %v)", err)
	}
	cf, err := openMgr(t, dir).Lookup(ks)
	if err != nil || len(cf.Traces) != prep.Traces {
		t.Fatalf("entry after both commits: %v traces, err %v; want %d", cf, err, prep.Traces)
	}
}
