package diffexec

import (
	"fmt"
	"os"
	"path/filepath"

	"persistcc/internal/cacheserver"
	"persistcc/internal/cacheserver/fleet"
	"persistcc/internal/core"
	"persistcc/internal/guestopt"
	"persistcc/internal/replay"
	"persistcc/internal/vm"
)

// Mode is one way of executing a case — one registry row. Level is the
// strictest level it shares with every mode of the same or a higher level;
// Optimized modes run guestopt-rewritten code and are held to ArchLoose
// against everything that does not.
type Mode struct {
	Name      string
	Level     Level
	Optimized bool
	run       func(e *Env, mode string) (*Snapshot, error)
}

// Modes is the registry, in evaluation order.
var Modes = []Mode{
	// Cold, interpreted — the reference semantics.
	{"interpreted", Arch, false, func(e *Env, mode string) (*Snapshot, error) {
		return e.exec(mode, plan{seed: e.Case.Seed, native: true})
	}},
	// Cold, synchronously translated.
	{"cold-translated", Translated, false, func(e *Env, mode string) (*Snapshot, error) {
		p := plan{seed: e.Case.Seed}
		if e.Hooks.TamperTranslated != nil {
			p.opts = []vm.Option{vm.WithOptimizer(&tamperOpt{fn: e.Hooks.TamperTranslated})}
		}
		return e.exec(mode, p)
	}},
	// Warm from disk, synchronous dispatch — the cache-level reference.
	{"warm-disk", Cache, false, warmFrom(db{name: "disk"})},
	// Warm from the content-addressed store — the source run's entry is
	// committed as manifest + shared blobs and primed back through a second
	// manager. The store round trip (and, when the layouts differ, the
	// relocation rebase) must be invisible.
	{"store-warmed", Cache, false, warmFrom(db{name: "store", relocHooked: true})},
	// Fleet-warmed — the cache arrives through two shards behind
	// consistent-hash routing and replication. Routing must be invisible:
	// identical state and counters to every other warm mode.
	{"fleet-warmed", Cache, false, func(e *Env, mode string) (*Snapshot, error) {
		var cfg fleet.Config
		for _, id := range []string{"shard0", "shard1"} {
			addr, err := e.daemon(id)
			if err != nil {
				return nil, err
			}
			cfg.Shards = append(cfg.Shards, fleet.Shard{ID: id, Addr: addr})
		}
		fl, err := fleet.New(&cfg)
		if err != nil {
			return nil, err
		}
		e.stop = append(e.stop, func() { fl.Close() })
		return e.remote(mode, fl, filepath.Join(e.Dir, "shard0"), filepath.Join(e.Dir, "shard1"))
	}},
	// Recorded-replayed — a warm run is recorded through the VM boundary,
	// then re-executed from its log: every boundary value pinned, final
	// state verified bit-exactly by the replayer itself, and the replayed
	// execution's snapshot held to the cache-level invariants.
	{"recorded-replayed", Cache, false, (*Env).recordedReplayed},
	// Optimized, cold — every trace goes through the guestopt passes and
	// equivalence checker before install.
	{"optimized-cold", Translated, true, func(e *Env, mode string) (*Snapshot, error) {
		var o vm.Optimizer = guestopt.New(guestopt.All())
		if e.Hooks.MutateOptimized != nil {
			o = &tamperOpt{inner: o, fn: e.Hooks.MutateOptimized}
		}
		return e.exec(mode, plan{seed: e.Case.Seed, opts: []vm.Option{vm.WithOptimizer(o)}})
	}},
	// Optimized, warm through the content-addressed store — the optimized
	// traces round-trip as blobs under the optimizer's distinct VM key and
	// prime back pre-optimized: the warm run must not re-run the passes.
	{"optimized-warm", Translated, true, warmFrom(db{name: "optstore", relocHooked: true, optimized: true})},
}

// Lookup resolves one mode by name.
func Lookup(name string) (Mode, bool) {
	for _, m := range Modes {
		if m.Name == name {
			return m, true
		}
	}
	return Mode{}, false
}

// PairLevel is the level two modes are held to against each other: the
// lower of their levels, or ArchLoose when exactly one runs optimized code
// (pass that one as got: it may execute fewer instructions).
func PairLevel(ref, got Mode) Level {
	if ref.Optimized != got.Optimized {
		return ArchLoose
	}
	return min(ref.Level, got.Level)
}

// tamperOpt is a vm.Optimizer that mutates traces with no equivalence proof
// — the shape of bug the harness exists to catch — after inner, if any, and
// its checker accepted them.
type tamperOpt struct {
	inner vm.Optimizer
	fn    func(t *vm.Trace)
}

func (o *tamperOpt) Optimize(t *vm.Trace) (out vm.OptOutcome) {
	if o.inner != nil {
		out = o.inner.Optimize(t)
	}
	o.fn(t)
	return out
}

// plan is one execution: a fresh VM under a layout seed, shown to prep,
// primed from from (a *core.Manager or *cacheserver.Fallback; nil runs cold),
// run, handed to post. prep or post refusing the execution is a divergence.
type plan struct {
	seed   uint64
	opts   []vm.Option
	native bool // interpret instead of translating
	from   interface {
		Prime(v *vm.VM) (*core.PrimeReport, error)
	}
	prep func(v *vm.VM) error
	post func(v *vm.VM, res *vm.Result) error
}

// exec carries out p as mode's execution under judgment.
func (e *Env) exec(mode string, p plan) (*Snapshot, error) {
	v, err := e.Case.NewVM(p.seed, p.opts...)
	if err != nil {
		return nil, err
	}
	if p.prep != nil {
		if err := p.prep(v); err != nil {
			return nil, &Failure{mode, "divergence", err}
		}
	}
	primed := 0
	if p.from != nil {
		rep, err := p.from.Prime(v)
		if err != nil {
			return nil, fmt.Errorf("diffexec: %s prime: %w", mode, err)
		}
		if primed = rep.Installed; primed == 0 {
			return nil, fmt.Errorf("diffexec: %s installed nothing; equivalence would be vacuous", mode)
		}
	}
	run := v.Run
	if p.native {
		run = v.RunNative
	}
	res, err := run()
	if err != nil {
		return nil, &Failure{mode, "crash", err}
	}
	if p.post != nil {
		if err := p.post(v, res); err != nil {
			return nil, &Failure{mode, "divergence", err}
		}
	}
	return snapshot(mode, v, res, primed), nil
}

// db is one scratch database a source run is committed into. With
// relocHooked it is relocatable, so a warm run across a relocation edge
// rebases what moved instead of invalidating it, and the CorruptDB hook
// rewrites it once seeded.
type db struct {
	name                   string
	relocHooked, optimized bool
}

// vmOpts puts a VM under the optimizer when d holds optimized traces: the
// optimizer's signature keys them.
func (d db) vmOpts() []vm.Option {
	if d.optimized {
		return []vm.Option{vm.WithOptimizer(guestopt.New(guestopt.All()))}
	}
	return nil
}

// source returns the VM of the translated run whose cache the warm modes
// consume, executed once under the cache-producing layout and never tampered
// with: hooks corrupt one layer, not what feeds every other.
func (e *Env) source(d db) (*vm.VM, error) {
	slot := &e.src
	if d.optimized {
		slot = &e.optSrc
	}
	if *slot == nil {
		seed := e.Case.WarmSeed
		if seed == 0 {
			seed = e.Case.Seed
		}
		v, err := e.Case.NewVM(seed, d.vmOpts()...)
		if err != nil {
			return nil, err
		}
		if _, err := v.Run(); err != nil {
			return nil, fmt.Errorf("diffexec: cache-source run: %w", err)
		}
		*slot = v
	}
	return *slot, nil
}

// warmDB returns a manager over d, seeded on first use — always a fresh one,
// so nothing is served from the committing manager's memory.
func (e *Env) warmDB(d db) (*core.Manager, error) {
	dir := filepath.Join(e.Dir, d.name)
	var opts []core.ManagerOption
	if d.relocHooked {
		opts = []core.ManagerOption{core.WithRelocatable()}
	}
	if _, err := os.Stat(dir); err != nil {
		src, err := e.source(d)
		if err != nil {
			return nil, err
		}
		mgr, err := core.NewManager(dir, opts...)
		if err != nil {
			return nil, err
		}
		if _, err := mgr.Commit(src); err != nil {
			return nil, fmt.Errorf("diffexec: seeding %s database: %w", d.name, err)
		}
		if d.relocHooked && e.Hooks.CorruptDB != nil {
			if err := e.Hooks.CorruptDB(dir); err != nil {
				return nil, fmt.Errorf("diffexec: corrupt hook: %w", err)
			}
		}
	}
	return core.NewManager(dir, opts...)
}

// warmFrom is a synchronous run primed from d.
func warmFrom(d db) func(e *Env, mode string) (*Snapshot, error) {
	return func(e *Env, mode string) (*Snapshot, error) {
		mgr, err := e.warmDB(d)
		if err != nil {
			return nil, err
		}
		return e.exec(mode, plan{seed: e.Case.Seed, from: mgr, opts: d.vmOpts()})
	}
}

// daemon starts an in-process cache daemon over the fresh database Dir/name.
func (e *Env) daemon(name string) (addr string, err error) {
	mgr, err := core.NewManager(filepath.Join(e.Dir, name))
	if err != nil {
		return "", err
	}
	srv, err := cacheserver.New(mgr)
	if err != nil {
		return "", err
	}
	ln, err := cacheserver.Listen("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go srv.Serve(ln) // returns when Close below closes the listener
	e.stop = append(e.stop, func() { srv.Close() })
	return ln.Addr().String(), nil
}

// remote publishes the source run's cache through the transport (a fleet
// places it on its consistent-hash owners, replicated), lets the CorruptDB
// hook at the serving databases, and runs primed through a
// Fallback whose local database is empty: every installed trace travelled.
func (e *Env) remote(mode string, t cacheserver.Transport, storeDirs ...string) (*Snapshot, error) {
	src, err := e.source(db{})
	if err != nil {
		return nil, err
	}
	cf, _ := core.BuildCacheFile(src)
	if _, err := t.Publish(cf); err != nil {
		return nil, fmt.Errorf("diffexec: %s publish: %w", mode, err)
	}
	for _, dir := range storeDirs {
		if e.Hooks.CorruptDB == nil {
			break
		}
		if err := e.Hooks.CorruptDB(dir); err != nil {
			return nil, fmt.Errorf("diffexec: corrupt hook: %w", err)
		}
	}
	local, err := core.NewManager(filepath.Join(e.Dir, mode+"-local"))
	if err != nil {
		return nil, err
	}
	s, err := e.exec(mode, plan{seed: e.Case.Seed, from: cacheserver.NewFallback(t, local)})
	if err == nil && s.Stats.RemoteHits == 0 {
		return nil, fmt.Errorf("diffexec: %s installed nothing remotely", mode)
	}
	return s, err
}

// recordedReplayed records one warm run (unless handed a saved recording),
// then replays the log against an identically built VM primed from the same
// database — equal warmth, so the cache-behaviour counters must match too.
// The replayer verifies the run bit-exactly against the recording; the
// snapshot is the replayed execution's, held to every cross-mode invariant.
func (e *Env) recordedReplayed(mode string) (*Snapshot, error) {
	c := &e.Case
	if e.Recorded == nil {
		mgr, err := e.warmDB(db{name: "recorded", relocHooked: c.Store})
		if err != nil {
			return nil, err
		}
		path := filepath.Join(e.Dir, "run.rec")
		r, err := replay.NewRecorder(nil, path)
		if err != nil {
			return nil, err
		}
		_, err = e.exec("recording", plan{seed: c.Seed, from: mgr, opts: []vm.Option{vm.WithBoundary(r)}, post: r.Finish,
			prep: func(v *vm.VM) error {
				return r.Start(replay.StartInfo{Program: c.Name, Placement: c.Placement, Seed: c.Seed,
					Input: c.Input, PID: 1, Proc: v.Process()})
			}})
		if err != nil {
			return nil, err
		}
		if e.Recorded, err = os.ReadFile(path); err != nil {
			return nil, err
		}
		e.RecordedDB = mgr
	}
	rec := e.Recorded
	if e.Hooks.TamperRec != nil {
		rec = e.Hooks.TamperRec(rec)
	}
	// From here on every refusal is the replayer doing its job on a bad
	// recording, or failing to on a good one: a finding either way.
	rp, err := replay.NewReplayer(rec)
	if err != nil {
		return nil, &Failure{mode, "divergence", err}
	}
	p := plan{seed: rp.Seed(), opts: []vm.Option{vm.WithBoundary(rp), vm.WithPID(rp.PID())}, post: rp.Finish,
		prep: func(v *vm.VM) error { return rp.VerifyLayout(v.Process()) }}
	if e.RecordedDB != nil { // nil: a saved recording made cold
		p.from = e.RecordedDB
	}
	return e.exec(mode, p)
}
