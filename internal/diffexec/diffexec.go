// Package diffexec is the differential-execution harness: the one place that
// knows how to run a program under every execution mode the system has
// (modes.go) and the one definition of two executions being equal (Diff).
// The paper's promise is that a run served from a persistent cache is
// indistinguishable from one that translated everything itself; every proof
// of it is "a Case, two Mode names, one Diff" — the root equivalence suite,
// the guest fuzzer's oracles, the workload property test, the crasher corpus.
// A new mode is one registry row that all four pick up.
package diffexec

import (
	"fmt"

	"persistcc/internal/core"
	"persistcc/internal/loader"
	"persistcc/internal/vm"
)

// Case is one program plus input, executable any number of times from
// identical initial state; everything else a mode needs the Env derives.
type Case struct {
	Name      string
	Placement loader.Placement // recorded in recording headers
	Input     []uint64         // recorded in recording headers

	// Seed is the layout every judged run executes under; WarmSeed, when
	// nonzero, the cache-producing run's, so a warm mode consumes a cache
	// written at one placement under another (the relocation edge).
	Seed, WarmSeed uint64

	// NewVM builds a fresh VM under a layout seed; opts come after the
	// case's own options (tool, SMC detection, budgets).
	NewVM func(seed uint64, opts ...vm.Option) (*vm.VM, error)

	// Store: recorded-replayed records against the kind of database
	// store-warmed primes from — relocatable, and rewritten by the
	// CorruptDB hook — instead of warm-disk's. (The name is the one saved
	// crasher artifacts carry.)
	Store bool
}

// Hooks are deliberate-bug injection points for oracle self-tests and CI
// plant rediscovery: an oracle that cannot fail is not a test, so each hook
// corrupts exactly the layer its modes guard — after the layer's own
// defenses, modeling the residual bug class those defenses cannot catch.
type Hooks struct {
	// TamperTranslated mutates freshly translated traces in
	// cold-translated's run — a miscompile.
	TamperTranslated func(t *vm.Trace)
	// MutateOptimized mutates optimizer output after the equivalence
	// checker accepted it — a checker-evading optimizer miscompile. (The
	// pre-checker guestopt.Config.Mutate hook is NOT a bug injection: the
	// checker rejects it and the run stays correct.)
	MutateOptimized func(t *vm.Trace)
	// CorruptDB rewrites a committed cache database (store-warmed's,
	// optimized-warm's, or each fleet shard's) between commit/publish and
	// warm prime —
	// persisted-state corruption that survives content addressing (i.e.
	// checksum-valid).
	CorruptDB func(dir string) error
	// TamperRec rewrites a recording between capture and replay.
	TamperRec func(rec []byte) []byte
}

// Failure is the execution under judgment failing, not the harness around
// it: a "crash" (the VM errored) or a "divergence" (the replayer refused).
type Failure struct {
	Mode, Kind string
	Err        error
}

func (f *Failure) Error() string { return fmt.Sprintf("%s run: %s: %v", f.Mode, f.Kind, f.Err) }

// Env is what one case's modes share: a scratch directory for databases and
// recordings, the source runs whose caches the warm modes consume (each run
// once, on first use), the daemons and clients started. Case and Dir set, it
// is ready to use; modes may run in any order.
type Env struct {
	Case  Case
	Dir   string // scratch directory, the caller's to create and remove
	Hooks Hooks  // set before the first Run

	// Recorded is the recording recorded-replayed replays, RecordedDB the
	// database its runs prime from. Left nil, the mode records a warm run
	// itself and fills both in (a saved case's sidecars); a saved case sets
	// them first — RecordedDB nil for a recording made cold.
	Recorded   []byte
	RecordedDB *core.Manager

	src, optSrc *vm.VM // cache-source runs: plain, under the optimizer
	stop        []func()
}

// Close stops the daemons and clients the modes started.
func (e *Env) Close() {
	for _, stop := range e.stop {
		stop()
	}
}

// Run executes the case under one named mode.
func (e *Env) Run(mode string) (*Snapshot, error) {
	m, ok := Lookup(mode)
	if !ok {
		return nil, fmt.Errorf("diffexec: unknown mode %q", mode)
	}
	return m.run(e, mode)
}

// Judge runs both modes and diffs got against ref at the level the pair is
// held to (PairLevel) — at most Translated across a relocation edge, where
// warmth differs: databases without the relocatable extension invalidate
// what moved (the paper's behaviour), relocatable ones rebase it. A
// *Failure whose Mode is got is a finding about the system; any other
// error, a pair that could not be judged.
func (e *Env) Judge(ref, got string) ([]string, error) {
	a, err := e.Run(ref)
	if err != nil {
		return nil, err
	}
	b, err := e.Run(got)
	if err != nil {
		return nil, err
	}
	ma, _ := Lookup(ref)
	mb, _ := Lookup(got)
	level := PairLevel(ma, mb)
	if e.Case.WarmSeed != 0 && e.Case.WarmSeed != e.Case.Seed {
		level = min(level, Translated)
	}
	return Diff(a, b, level), nil
}
