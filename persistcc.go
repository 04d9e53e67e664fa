// Package persistcc is the public facade of the persistent code caching
// reproduction (Connors, Janapa Reddi, Cohn, Smith — "Persistent Code
// Caching: Exploiting Code Reuse Across Executions and Applications",
// CGO 2007).
//
// The package wraps the layered implementation:
//
//   - internal/isa, internal/asm, internal/obj, internal/link,
//     internal/loader — the VR64 toolchain (assembler → objects →
//     executables/shared libraries → loaded guest processes);
//   - internal/vm — the Pin-like run-time compilation system (trace
//     translation, software code cache, dispatcher, emulation, cost model);
//   - internal/instr — the instrumentation (Pintool) API and stock tools;
//   - internal/core — the paper's contribution: persistent code caches with
//     key-based validation, accumulation and inter-application reuse;
//   - internal/workload, internal/experiments — the paper's evaluation.
//
// Quick start:
//
//	exe, libs, _ := persistcc.BuildExecutable("prog", src, nil)
//	res, _ := persistcc.Run(exe, libs, persistcc.RunOptions{
//	        CacheDir: "/tmp/pcc-db", Persist: true,
//	})
//	fmt.Println(res.ExitCode, res.Seconds())
package persistcc

import (
	"errors"
	"fmt"
	"io"

	"persistcc/internal/asm"
	"persistcc/internal/cacheserver"
	"persistcc/internal/cacheserver/fleet"
	"persistcc/internal/core"
	"persistcc/internal/guestopt"
	"persistcc/internal/instr"
	"persistcc/internal/link"
	"persistcc/internal/loader"
	"persistcc/internal/metrics"
	tracelog "persistcc/internal/metrics/trace"
	"persistcc/internal/obj"
	"persistcc/internal/replay"
	"persistcc/internal/vm"
)

// Re-exported types: the facade's vocabulary.
type (
	// Object is a VXO file: relocatable object, executable or library.
	Object = obj.File
	// Process is a loaded guest program.
	Process = loader.Process
	// Result is the outcome of one run.
	Result = vm.Result
	// Tool is an instrumentation client (a Pintool analog).
	Tool = vm.Tool
	// PrimeReport summarizes persistent-cache reuse at startup.
	PrimeReport = core.PrimeReport
	// CommitReport summarizes persistent-cache generation at exit.
	CommitReport = core.CommitReport
	// LoaderConfig controls address-space layout and library placement.
	LoaderConfig = loader.Config
	// FleetConfig is a cache-server fleet's membership: shards, replica
	// count, virtual nodes (see RunOptions.FleetConfig).
	FleetConfig = fleet.Config
	// FleetShard is one fleet member: an id and a daemon address.
	FleetShard = fleet.Shard
	// DivergenceError is the failure a replayed run reports at the first
	// point it stops matching its recording (see RunOptions.Replay).
	DivergenceError = replay.DivergenceError
)

// LoadFleetConfig reads a fleet membership file (the same JSON pcc-run
// -fleet-config reads) for RunOptions.FleetConfig.
func LoadFleetConfig(path string) (*FleetConfig, error) {
	return fleet.LoadConfig(path)
}

// Library placement policies (see loader.Placement).
const (
	PlaceSequential = loader.PlaceSequential
	PlaceHashed     = loader.PlaceHashed
	PlaceASLR       = loader.PlaceASLR
)

// Assemble assembles VR64 assembly source into a relocatable object.
func Assemble(name, src string) (*Object, error) {
	return asm.Assemble(name, src)
}

// LinkExecutable links objects (and library dependencies) into an
// executable. The entry symbol is "_start".
func LinkExecutable(name string, objects []*Object, libs []*Object) (*Object, error) {
	return link.Link(link.Input{Name: name, Kind: obj.KindExec, Objects: objects, Libs: libs})
}

// LinkLibrary links objects into a shared library exporting its globals.
func LinkLibrary(name string, objects []*Object, libs []*Object) (*Object, error) {
	return link.Link(link.Input{Name: name, Kind: obj.KindLib, Objects: objects, Libs: libs})
}

// BuildExecutable assembles one source file per library (libSrcs keys are
// library names) and the executable source, then links everything.
func BuildExecutable(name, src string, libSrcs map[string]string) (*Object, []*Object, error) {
	var libs []*Object
	for _, e := range entryList(libSrcs) {
		o, err := Assemble(e.name+".o", e.src)
		if err != nil {
			return nil, nil, err
		}
		lib, err := LinkLibrary(e.name, []*Object{o}, libs)
		if err != nil {
			return nil, nil, err
		}
		libs = append(libs, lib)
	}
	o, err := Assemble(name+".o", src)
	if err != nil {
		return nil, nil, err
	}
	exe, err := LinkExecutable(name, []*Object{o}, libs)
	if err != nil {
		return nil, nil, err
	}
	return exe, libs, nil
}

// ToolByName returns a stock instrumentation tool ("bbcount",
// "bbcount-inst", "memtrace", "opcodemix"), or nil for "".
func ToolByName(name string) (Tool, error) {
	if name == "" {
		return nil, nil
	}
	t := instr.ByName(name)
	if t == nil {
		return nil, fmt.Errorf("persistcc: unknown tool %q", name)
	}
	return t, nil
}

// RunOptions configures Run.
type RunOptions struct {
	// Input words made visible to the guest's input block.
	Input []uint64
	// Tool attaches instrumentation.
	Tool Tool
	// Native runs the original program (no translation machinery). A
	// native run has no translations to reuse or keep, so with Persist it
	// neither opens the database nor primes nor commits.
	Native bool

	// Persist enables the persistent cache manager over CacheDir:
	// translations are reused at startup and committed (accumulated) at
	// exit.
	Persist bool
	// InterApp additionally falls back to another application's cache
	// when none exists for this application.
	InterApp bool
	// Relocatable enables the relocatable-translation extension.
	Relocatable bool
	// CacheDir is the cache database directory (required with Persist).
	CacheDir string
	// FleetConfig points the run at shared cache daemons: keys route to
	// shards by consistent hash with replication, and reads fan out to
	// replicas when a shard is down or misses. One daemon is a
	// one-shard FleetConfig. CacheDir remains the local fallback, so even a
	// fully dead fleet degrades to local caching, never a user-visible
	// failure.
	FleetConfig *FleetConfig
	// StoreFormat selects nothing; it stays for callers that still set it.
	//
	// Deprecated: every commit writes the store format (per-app manifests
	// over shared deduplicated blobs).
	StoreFormat bool
	// StoreDir points several databases at one shared blob store
	// (default: <CacheDir>/store) for machine-wide deduplication.
	StoreDir string

	// Optimize attaches the translation-time optimizer (internal/guestopt,
	// all passes): traces are constant-folded, dead-code/dead-flag
	// eliminated and load-collapsed at translation, each rewrite proven by
	// the static equivalence checker before install (rejections fall back
	// to the unoptimized encoding). With Persist, optimized traces are
	// committed in optimized form and keyed separately from unoptimized
	// caches, so warm runs load pre-optimized code.
	Optimize bool

	// Prefetch makes the fleet prime a bulk one (Fallback.PrimeStoreBulk):
	// with InterApp, one round trip brings the exact entry and every
	// inter-application candidate, installed together. Without InterApp it
	// is the plain prime: one request for the exact entry, falling back to
	// the local database. Requires FleetConfig.
	Prefetch bool
	// VerifyInstall deep-verifies cached traces (control flow and
	// relocations, internal/core/verify) before installing them; a file
	// that fails is quarantined and its code re-translated.
	VerifyInstall bool

	// Loader controls placement/ASLR; zero value = defaults.
	Loader LoaderConfig
	// MaxInsts bounds execution (0 = default budget).
	MaxInsts uint64
	// SMC detects self-modifying code: a guest store to a page holding
	// translated code flushes the code cache.
	SMC bool
	// ExecLog receives a disassembly line for each of the first
	// ExecLogLines executed instructions.
	ExecLog      io.Writer
	ExecLogLines uint64

	// Metrics is a registry every layer of the run records into: the VM,
	// the persistence manager, the fleet client and the replay log. Run
	// leaves it synced to the VM's final accounting, commit ticks
	// included, whether it returns an outcome or an error, so a replay
	// divergence can still be read off it. Nil keeps each layer's own.
	Metrics *metrics.Registry
	// Events receives the run's translate/install/prime/commit timeline.
	Events *tracelog.Log

	// Record writes a replay log of the run to this path: the input block,
	// the module layout the loader chose, and every nondeterministic value
	// that crossed the VM boundary, sealed with the run's final state.
	Record string
	// Replay re-executes the recording at this path instead of a fresh
	// run: placement, ASLR seed, input and pid are taken from the log
	// (overriding Input and the Loader placement fields), every boundary
	// value is pinned to its recorded one, and the execution is verified
	// bit-exactly — registers, memory image, output and cache-behavior
	// counters. The run fails with a *DivergenceError at the first
	// mismatch. Cache-behavior counters depend on cache warmth, so replay
	// against the same database state the recording saw (artifacts bundle
	// a snapshot for exactly this reason). Mutually exclusive with Record.
	Replay string
}

// RunOutcome bundles the run result with the persistence reports.
type RunOutcome struct {
	*Result
	Prime  *PrimeReport  // nil without Persist, and for a Native run
	Commit *CommitReport // nil without Persist, and for a Native run
	// LogEvents counts the replay-log events the run wrote (Record) or
	// matched (Replay); LogBytes is the size of the log Record wrote.
	LogEvents int
	LogBytes  uint64
}

// Run loads and executes an executable with its libraries.
func Run(exe *Object, libs []*Object, o RunOptions) (*RunOutcome, error) {
	if o.Record != "" && o.Replay != "" {
		return nil, errors.New("persistcc: Record and Replay are mutually exclusive")
	}
	var rp *replay.Replayer
	if o.Replay != "" {
		var err error
		rp, err = replay.Open(nil, o.Replay)
		if err != nil {
			return nil, err
		}
	}
	cfg := o.Loader
	if rp != nil {
		// The recording owns the load environment and the guest-visible
		// inputs; the caller still supplies the binaries, which VerifyLayout
		// checks against the recorded layout below.
		cfg.Placement = rp.Placement()
		cfg.ASLRSeed = rp.Seed()
		o.Input = rp.Input()
	}
	if cfg.Resolve == nil {
		all := libs
		cfg.Resolve = func(name string) (*Object, int64, error) {
			for _, l := range all {
				if l.Name == name {
					return l, 1, nil
				}
			}
			return nil, 0, fmt.Errorf("persistcc: library %s not found", name)
		}
	}
	if o.FleetConfig != nil && !o.Persist {
		return nil, errors.New("persistcc: FleetConfig requires Persist")
	}
	if o.Prefetch && o.FleetConfig == nil {
		return nil, errors.New("persistcc: Prefetch requires FleetConfig")
	}
	// The manager comes first so that its store opens while the loader
	// maps the process: the prime waits for the store (Manager.Store) only
	// if the load is done before it.
	var local *core.Manager
	if o.Persist && o.CacheDir == "" {
		return nil, errors.New("persistcc: Persist requires CacheDir")
	}
	if o.Persist && !o.Native {
		var mopts []core.ManagerOption
		if o.Relocatable {
			mopts = append(mopts, core.WithRelocatable())
		}
		if o.StoreDir != "" {
			mopts = append(mopts, core.WithStoreDir(o.StoreDir))
		}
		if o.VerifyInstall {
			mopts = append(mopts, core.WithDeepVerify())
		}
		if o.Metrics != nil {
			mopts = append(mopts, core.WithMetrics(o.Metrics))
		}
		var err error
		if local, err = core.NewManager(o.CacheDir, mopts...); err != nil {
			return nil, err
		}
		opened := make(chan struct{})
		go func() {
			local.Store() // an error is the prime's to report
			close(opened)
		}()
		defer func() { <-opened }()
	}
	proc, err := loader.Load(exe, cfg)
	if err != nil {
		return nil, err
	}
	var rec *replay.Recorder
	var opts []vm.Option
	switch {
	case rp != nil:
		if err := rp.VerifyLayout(proc); err != nil {
			return nil, err
		}
		if o.Metrics != nil {
			rp.WithMetrics(replay.NewMetrics(o.Metrics))
		}
		opts = append(opts, vm.WithBoundary(rp), vm.WithPID(rp.PID()))
	case o.Record != "":
		rec, err = replay.NewRecorder(nil, o.Record)
		if err != nil {
			return nil, err
		}
		if o.Metrics != nil {
			rec.WithMetrics(replay.NewMetrics(o.Metrics))
		}
		if err := rec.Start(replay.StartInfo{
			Program:   exe.Name,
			Placement: cfg.Placement,
			Seed:      cfg.ASLRSeed,
			Input:     o.Input,
			PID:       1,
			Proc:      proc,
		}); err != nil {
			return nil, err
		}
		opts = append(opts, vm.WithBoundary(rec))
	}
	if o.Input != nil {
		opts = append(opts, vm.WithInput(o.Input))
	}
	if o.Tool != nil {
		opts = append(opts, vm.WithTool(o.Tool))
	}
	if o.MaxInsts > 0 {
		opts = append(opts, vm.WithMaxInsts(o.MaxInsts))
	}
	if o.Optimize {
		opts = append(opts, vm.WithOptimizer(guestopt.New(guestopt.All())))
	}
	if o.SMC {
		opts = append(opts, vm.WithSMCDetection())
	}
	if o.ExecLog != nil {
		opts = append(opts, vm.WithExecLog(o.ExecLog, o.ExecLogLines))
	}
	if o.Events != nil {
		opts = append(opts, vm.WithEventLog(o.Events))
	}
	if o.Metrics != nil {
		opts = append(opts, vm.WithMetrics(o.Metrics))
	}
	v := vm.New(proc, opts...)
	if o.Metrics != nil {
		defer v.Metrics() // syncs the registry to the VM's final accounting
	}

	out := &RunOutcome{}
	var mgr cacheserver.Manager
	if local != nil {
		mgr = local
		var fb *cacheserver.Fallback
		if o.FleetConfig != nil {
			fc, err := fleet.New(o.FleetConfig, fleet.WithMetrics(o.Metrics))
			if err != nil {
				return nil, err
			}
			defer fc.Close()
			fb = cacheserver.NewFallback(fc, local)
			mgr = fb
		}
		var rep *PrimeReport
		if o.Prefetch {
			rep, err = fb.PrimeStoreBulk(v, o.InterApp)
		} else {
			rep, err = mgr.Prime(v)
			if errors.Is(err, core.ErrNoCache) && o.InterApp {
				rep, err = mgr.PrimeInterApp(v)
			}
		}
		if err != nil && !errors.Is(err, core.ErrNoCache) {
			return nil, err
		}
		out.Prime = rep
	}

	if o.Native {
		out.Result, err = v.RunNative()
	} else {
		out.Result, err = v.Run()
	}
	if err != nil {
		return nil, err
	}
	if rec != nil {
		if err := rec.Finish(v, out.Result); err != nil {
			return nil, err
		}
		out.LogEvents, out.LogBytes = int(rec.Events()), rec.Bytes()
	}
	if rp != nil {
		if err := rp.Finish(v, out.Result); err != nil {
			return nil, err
		}
		out.LogEvents = len(rp.Log().Events)
	}
	if mgr != nil {
		crep, err := mgr.Commit(v)
		if err != nil {
			return nil, err
		}
		out.Commit = crep
		out.Result.Stats.PersistTicks += crep.Ticks
		out.Result.Stats.Ticks += crep.Ticks
		v.ChargePersist(crep.Ticks) // the registry's ticks agree with Result's
	}
	return out, nil
}

type srcEntry struct {
	name string
	src  string
}

func entryList(m map[string]string) []srcEntry {
	var out []srcEntry
	for k, v := range m {
		out = append(out, srcEntry{k, v})
	}
	// Deterministic order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].name > out[j].name; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
