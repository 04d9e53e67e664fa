package core_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"persistcc/internal/core"
	"persistcc/internal/fsx"
	"persistcc/internal/loader"
	"persistcc/internal/testprog"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
)

// Crash-consistency chaos harness: enumerate every filesystem operation the
// commit/merge/remove sequence performs, simulate a process
// crash at each one, reopen the database, and check the invariants:
//
//  1. the database opens and every listed entry is a verifiable file;
//  2. a crashed writer loses at most its own in-flight entry — the
//     baseline entry committed before the crash always stays warm-servable;
//  3. a recovery pass (RecoverIndex) always succeeds afterwards and keeps
//     the baseline entry.
//
// This is table-driven over ALL injection points (recorded by a passthrough
// run), not a sampled subset.

const chaosLibSrc = `
.text
.global compute
compute:
	add  t0, a0, a0
	addi a0, t0, 1
	ret
`

// chaosMainSrc parameterizes the seed constant so two "applications" get
// distinct application keys.
const chaosMainSrc = `
.text
.global _start
_start:
	movi t1, 0x08000000
	ld   s0, 0(t1)
	movi s1, %d
loop:
	beqz s0, done
	mv   a0, s1
	call compute
	mv   s1, a0
	addi s0, s0, -1
	j    loop
done:
	mv   a1, s1
	movi a0, 1
	sys
	halt
`

// chaosEnv holds the prebuilt cache files the crash loop replays: building
// traces needs VM runs, but the crash loop itself is pure file operations.
type chaosEnv struct {
	cfA        *core.CacheFile // baseline application, committed cleanly first
	ksA        core.KeySet
	cfB1, cfB2 *core.CacheFile // in-flight application: fresh commit, then accumulate
	ksB        core.KeySet
}

func chaosRan(t *testing.T, w *testutil.World, input uint64) *vm.VM {
	t.Helper()
	p, err := testprog.Load(w.Exe, w.Libs, loader.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(p, vm.WithInput([]uint64{input}))
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	return v
}

func buildChaosEnv(t *testing.T) *chaosEnv {
	t.Helper()
	wA := testutil.BuildWorld(t, "appa", fmt.Sprintf(chaosMainSrc, 1), map[string]string{"libwork.so": chaosLibSrc})
	wB := testutil.BuildWorld(t, "appb", fmt.Sprintf(chaosMainSrc, 2), map[string]string{"libwork.so": chaosLibSrc})
	env := &chaosEnv{}
	env.cfA, env.ksA = core.BuildCacheFile(chaosRan(t, wA, 10))
	// Input 0 never runs the loop body: B's first commit holds a strict
	// subset of its second, so the second commit exercises the
	// accumulation/merge path for real.
	env.cfB1, env.ksB = core.BuildCacheFile(chaosRan(t, wB, 0))
	env.cfB2, _ = core.BuildCacheFile(chaosRan(t, wB, 10))
	if env.ksA.App == env.ksB.App {
		t.Fatal("applications share a key; the inter-entry invariant would be vacuous")
	}
	if len(env.cfB2.Traces) <= len(env.cfB1.Traces) {
		t.Fatalf("second commit adds no traces (%d vs %d); merge path untested",
			len(env.cfB2.Traces), len(env.cfB1.Traces))
	}
	return env
}

// chaosSequence is the injected workload: a fresh commit, an accumulating
// commit of the same key set, and the removal of that entry — the full
// commit/merge/remove write surface.
func chaosSequence(mgr *core.Manager, env *chaosEnv) error {
	if _, err := mgr.CommitFile(env.ksB, env.cfB1); err != nil {
		return err
	}
	if _, err := mgr.CommitFile(env.ksB, env.cfB2); err != nil {
		return err
	}
	return mgr.RemoveEntry(env.ksB.CacheFileName())
}

// freshDB seeds a new database directory with the baseline entry.
func freshDB(t *testing.T, env *chaosEnv) string {
	t.Helper()
	dir := t.TempDir()
	mgr, err := core.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.CommitFile(env.ksA, env.cfA); err != nil {
		t.Fatal(err)
	}
	return dir
}

// assertCrashInvariants reopens the database post-crash and checks every
// durability invariant.
func assertCrashInvariants(t *testing.T, dir string, env *chaosEnv) {
	t.Helper()
	mgr, err := core.NewManager(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	entries, err := mgr.Entries()
	if err != nil {
		t.Fatalf("reopened database unlistable: %v", err)
	}
	for _, e := range entries {
		if _, err := core.ReadCacheFile(filepath.Join(dir, e.File)); err != nil {
			t.Errorf("listed entry %s is an unverifiable file: %v", e.File, err)
		}
	}
	// Baseline entry always survives: warm hits still served.
	cfA, err := mgr.Lookup(env.ksA)
	if err != nil {
		t.Fatalf("baseline entry lost: %v", err)
	}
	if len(cfA.Traces) != len(env.cfA.Traces) {
		t.Errorf("baseline lost traces: %d, want %d", len(cfA.Traces), len(env.cfA.Traces))
	}
	// The in-flight entry is absent or fully valid — never torn.
	if cfB, err := mgr.Lookup(env.ksB); err == nil {
		if n := len(cfB.Traces); n != len(env.cfB1.Traces) && n != len(env.cfB2.Traces) {
			t.Errorf("in-flight entry has %d traces; want %d (first commit) or %d (merged)",
				n, len(env.cfB1.Traces), len(env.cfB2.Traces))
		}
	} else if !errors.Is(err, core.ErrNoCache) {
		t.Errorf("in-flight lookup: want hit or ErrNoCache, got %v", err)
	}
	// Recovery always completes and keeps the baseline.
	if _, err := mgr.RecoverIndex(); err != nil {
		t.Fatalf("post-crash recovery failed: %v", err)
	}
	if _, err := mgr.Lookup(env.ksA); err != nil {
		t.Errorf("baseline lost by recovery: %v", err)
	}
}

func TestChaosCrashAtEveryInjectionPoint(t *testing.T) {
	restore := core.SetLockTimeout(50 * time.Millisecond)
	defer restore()
	env := buildChaosEnv(t)

	// Enumerate the injection points with a recording passthrough run.
	recDir := freshDB(t, env)
	rec := fsx.NewInject(fsx.OS)
	mgr, err := core.NewManager(recDir, core.WithFS(rec))
	if err != nil {
		t.Fatal(err)
	}
	// Arm after construction so op indices cover exactly the sequence, not
	// the manager's own MkdirAll.
	rec.StartRecording()
	if err := chaosSequence(mgr, env); err != nil {
		t.Fatalf("fault-free sequence failed: %v", err)
	}
	ops := rec.Ops()
	if len(ops) < 15 {
		t.Fatalf("recorded only %d operations; the sequence shrank suspiciously: %v", len(ops), ops)
	}
	assertCrashInvariants(t, recDir, env)

	// Crash at every single one of them.
	for k := 1; k <= len(ops); k++ {
		op := ops[k-1]
		t.Run(fmt.Sprintf("crash-%02d-%s-%s", k, op.Op, filepath.Base(op.Path)), func(t *testing.T) {
			dir := freshDB(t, env)
			inj := fsx.NewInject(fsx.OS)
			mgr, err := core.NewManager(dir, core.WithFS(inj))
			if err != nil {
				t.Fatal(err)
			}
			inj.CrashAtIndex(k)
			// The sequence may fail (usually) or succeed (crash landed in
			// post-publish cleanup); either way the database must hold.
			chaosSequence(mgr, env)
			if !inj.Crashed() {
				t.Fatalf("crash point %d never reached", k)
			}
			assertCrashInvariants(t, dir, env)
		})
	}
}

// TestChaosStaleLockAfterCrash: a crash while holding the database lock
// leaves .lock behind; the next writer steals it and commits normally.
func TestChaosStaleLockAfterCrash(t *testing.T) {
	restore := core.SetLockTimeout(50 * time.Millisecond)
	defer restore()
	env := buildChaosEnv(t)
	dir := freshDB(t, env)
	inj := fsx.NewInject(fsx.OS)
	// Crash on the first cache-file write: the lock was created just before.
	inj.CrashAt(fsx.OpWrite, ".pcc.tmp", 1)
	mgr, err := core.NewManager(dir, core.WithFS(inj))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.CommitFile(env.ksB, env.cfB1); !errors.Is(err, fsx.ErrCrashed) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ".lock")); err != nil {
		t.Fatalf("crash did not leave the lock behind: %v", err)
	}
	// Reopen: the stale lock is stolen, the commit lands, the lock clears.
	mgr2, err := core.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr2.CommitFile(env.ksB, env.cfB1); err != nil {
		t.Fatalf("commit after crash did not steal the stale lock: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ".lock")); !errors.Is(err, os.ErrNotExist) {
		t.Error("lock not released after steal")
	}
	assertCrashInvariants(t, dir, env)
}
