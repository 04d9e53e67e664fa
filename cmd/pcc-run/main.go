// Command pcc-run executes a VR64 executable — natively (interpreted) or
// under the run-time compilation system, optionally with instrumentation
// and persistent code caching.
//
// Usage:
//
//	pcc-run [flags] prog.vxe
//
// Library dependencies are resolved by module name from the directories
// given with -libpath (default: the executable's directory), expecting a
// file named exactly like the module (e.g. "libgui.so").
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"persistcc/internal/cacheserver"
	"persistcc/internal/cacheserver/fleet"
	"persistcc/internal/core"
	"persistcc/internal/guestopt"
	"persistcc/internal/instr"
	"persistcc/internal/loader"
	"persistcc/internal/metrics"
	tracelog "persistcc/internal/metrics/trace"
	"persistcc/internal/obj"
	"persistcc/internal/replay"
	"persistcc/internal/stats"
	"persistcc/internal/vm"
)

func main() {
	native := flag.Bool("native", false, "interpret the original program (no translation)")
	toolName := flag.String("tool", "", "instrumentation tool: bbcount, bbcount-inst, memtrace, opcodemix, codecov, codecov-inst")
	persistDir := flag.String("persist", "", "persistent cache database directory (enables persistence)")
	cacheServer := flag.String("cache-server", "", `shared cache daemon address ("host:port" or "unix:/path.sock"), a fleet of one; -persist becomes the local fallback database`)
	fleetConfig := flag.String("fleet-config", "", "sharded cache-server fleet membership JSON; keys route to shards by consistent hash (mutually exclusive with -cache-server)")
	interApp := flag.Bool("interapp", false, "fall back to another application's cache")
	reloc := flag.Bool("reloc", false, "enable relocatable translations")
	storeDir := flag.String("store-dir", "", "shared blob store directory for machine-wide dedup (default: <persist>/store)")
	verifyInstall := flag.Bool("verify-install", false, "deep-verify cached traces (CFG + relocations) before installing; failures quarantine the file and re-translate")
	optimize := flag.Bool("optimize", false, "run the translation-time optimizer (checker-proven const folding, dead-code/dead-flag elimination, load collapsing); with -persist, traces commit pre-optimized")
	inputStr := flag.String("input", "", "comma-separated input words for the guest input block")
	libpath := flag.String("libpath", "", "colon-separated library search path (default: exe dir)")
	aslr := flag.Uint64("aslr", 0, "ASLR seed (non-zero enables randomized library bases)")
	hashed := flag.Bool("hashed", false, "hashed library placement (stable across applications)")
	showStats := flag.Bool("stats", false, "print the run's cost breakdown")
	maxInsts := flag.Uint64("maxinsts", 0, "instruction budget (0 = default)")
	trace := flag.Uint64("trace", 0, "log the first N executed instructions to stderr")
	jsonOut := flag.Bool("json", false, "print machine-readable run statistics to stderr")
	smc := flag.Bool("smc", false, "detect self-modifying code (flush the cache on writes to translated pages)")
	prefetch := flag.Bool("prefetch", false, "prime from the fleet in one bulk round trip: the exact entry plus, with -interapp, every inter-application candidate (needs -cache-server or -fleet-config)")
	metricsOut := flag.String("metrics-out", "", "write the run's full metrics registry snapshot (JSON) to this file on exit")
	eventsOut := flag.String("events-out", "", "write the run's translate/install/prime/commit event timeline (NDJSON) to this file on exit")
	recordTo := flag.String("record", "", "record the run's nondeterministic inputs and final state to this replay log")
	replayFrom := flag.String("replay", "", "replay a recorded log: pins placement/input/pid to the recorded values and verifies the run bit-exactly (mutually exclusive with -record)")
	dumpRec := flag.String("dump-recording", "", "decode a replay log to NDJSON on stdout and exit")
	flag.Parse()
	if *dumpRec != "" {
		data, err := os.ReadFile(*dumpRec)
		if err != nil {
			fatal(err)
		}
		if err := replay.DumpNDJSON(os.Stdout, data); err != nil {
			fatal(err)
		}
		return
	}
	if *recordTo != "" && *replayFrom != "" {
		fatal(fmt.Errorf("-record and -replay are mutually exclusive"))
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pcc-run [flags] prog.vxe")
		flag.PrintDefaults()
		os.Exit(2)
	}

	exePath := flag.Arg(0)
	exe, err := obj.ReadFile(exePath)
	if err != nil {
		fatal(err)
	}
	dirs := []string{filepath.Dir(exePath)}
	if *libpath != "" {
		dirs = strings.Split(*libpath, ":")
	}
	cfg := loader.Config{
		MTime: mtimeOf(exePath),
		Resolve: func(name string) (*obj.File, int64, error) {
			for _, d := range dirs {
				p := filepath.Join(d, name)
				if f, err := obj.ReadFile(p); err == nil {
					return f, mtimeOf(p), nil
				}
			}
			return nil, 0, fmt.Errorf("library %s not found in %v", name, dirs)
		},
	}
	switch {
	case *aslr != 0:
		cfg.Placement = loader.PlaceASLR
		cfg.ASLRSeed = *aslr
	case *hashed:
		cfg.Placement = loader.PlaceHashed
	}
	var words []uint64
	if *inputStr != "" {
		for _, f := range strings.Split(*inputStr, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(f), 0, 64)
			if err != nil {
				fatal(fmt.Errorf("bad input word %q: %v", f, err))
			}
			words = append(words, v)
		}
	}
	var rp *replay.Replayer
	if *replayFrom != "" {
		var err error
		rp, err = replay.Open(nil, *replayFrom)
		if err != nil {
			fatal(err)
		}
		// The recording owns the load environment and the guest inputs.
		cfg.Placement = rp.Placement()
		cfg.ASLRSeed = rp.Seed()
		words = rp.Input()
	}

	proc, err := loader.Load(exe, cfg)
	if err != nil {
		fatal(err)
	}
	var opts []vm.Option
	var tool vm.Tool
	if *toolName != "" {
		tool = instr.ByName(*toolName)
		if tool == nil {
			fatal(fmt.Errorf("unknown tool %q", *toolName))
		}
		opts = append(opts, vm.WithTool(tool))
	}
	if words != nil {
		opts = append(opts, vm.WithInput(words))
	}
	if *maxInsts > 0 {
		opts = append(opts, vm.WithMaxInsts(*maxInsts))
	}
	if *trace > 0 {
		opts = append(opts, vm.WithExecLog(os.Stderr, *trace))
	}
	if *smc {
		opts = append(opts, vm.WithSMCDetection())
	}
	if *optimize {
		opts = append(opts, vm.WithOptimizer(guestopt.New(guestopt.All())))
	}
	// One registry spans the VM, the persistence manager and the cache
	// client, so -metrics-out holds the process's entire view.
	reg := metrics.NewRegistry()
	opts = append(opts, vm.WithMetrics(reg))
	var rec *replay.Recorder
	switch {
	case rp != nil:
		if err := rp.VerifyLayout(proc); err != nil {
			fatal(err)
		}
		rp.WithMetrics(replay.NewMetrics(reg))
		opts = append(opts, vm.WithBoundary(rp), vm.WithPID(rp.PID()))
	case *recordTo != "":
		rec, err = replay.NewRecorder(nil, *recordTo)
		if err != nil {
			fatal(err)
		}
		rec.WithMetrics(replay.NewMetrics(reg))
		if err := rec.Start(replay.StartInfo{
			Program:   exe.Name,
			Placement: cfg.Placement,
			Seed:      cfg.ASLRSeed,
			Input:     words,
			PID:       1,
			Proc:      proc,
		}); err != nil {
			fatal(err)
		}
		opts = append(opts, vm.WithBoundary(rec))
	}
	var events *tracelog.Log
	if *eventsOut != "" {
		events = tracelog.NewLog(0)
		opts = append(opts, vm.WithEventLog(events))
	}
	v := vm.New(proc, opts...)

	var mgr cacheserver.Manager
	if (*cacheServer != "" || *fleetConfig != "") && *persistDir == "" {
		fatal(fmt.Errorf("-cache-server/-fleet-config needs -persist for the local fallback database"))
	}
	if *prefetch && *cacheServer == "" && *fleetConfig == "" {
		fatal(fmt.Errorf("-prefetch needs -cache-server or -fleet-config"))
	}
	if *cacheServer != "" && *fleetConfig != "" {
		fatal(fmt.Errorf("-cache-server and -fleet-config are mutually exclusive"))
	}
	if *persistDir != "" {
		mopts := []core.ManagerOption{core.WithMetrics(reg)}
		if *reloc {
			mopts = append(mopts, core.WithRelocatable())
		}
		if *verifyInstall {
			mopts = append(mopts, core.WithDeepVerify())
		}
		if *storeDir != "" {
			mopts = append(mopts, core.WithStoreDir(*storeDir))
		}
		local, err := core.NewManager(*persistDir, mopts...)
		if err != nil {
			fatal(err)
		}
		mgr = local
		var fb *cacheserver.Fallback
		if *cacheServer != "" || *fleetConfig != "" {
			cfg := fleet.Single(*cacheServer)
			if *fleetConfig != "" {
				if cfg, err = fleet.LoadConfig(*fleetConfig); err != nil {
					fatal(err)
				}
			}
			fc, err := fleet.New(cfg, fleet.WithMetrics(reg))
			if err != nil {
				fatal(err)
			}
			fb = cacheserver.NewFallback(fc, local)
			mgr = fb
		}
		var rep *core.PrimeReport
		if *prefetch {
			rep, err = fb.PrimeStoreBulk(v, *interApp)
		} else {
			rep, err = mgr.Prime(v)
			if errors.Is(err, core.ErrNoCache) && *interApp {
				rep, err = mgr.PrimeInterApp(v)
			}
		}
		if err != nil && !errors.Is(err, core.ErrNoCache) {
			fatal(err)
		}
		if rep.Found {
			fmt.Fprintf(os.Stderr, "pcc-run: persistent cache: %d traces installed (%d rebased, %d invalidated, %d remote)\n",
				rep.Installed, rep.Rebased, rep.Invalidated(), v.Stats().RemoteHits)
		}
	}

	var res *vm.Result
	if *native {
		res, err = v.RunNative()
	} else {
		res, err = v.Run()
	}
	if err != nil {
		fatal(err)
	}
	if rec != nil {
		if err := rec.Finish(v, res); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pcc-run: recorded %d events (%d bytes) to %s\n",
			rec.Events(), rec.Bytes(), rec.Path())
	}
	if rp != nil {
		if err := rp.Finish(v, res); err != nil {
			// pcc_replay_divergence_total matters most exactly when replay
			// fails: flush the snapshot before exiting.
			if *metricsOut != "" {
				_ = os.WriteFile(*metricsOut, v.Metrics().Snapshot().JSON(), 0o644)
			}
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pcc-run: replayed %s bit-exactly (%d events)\n",
			*replayFrom, len(rp.Log().Events))
	}
	os.Stdout.Write(res.Output)

	if mgr != nil && !*native {
		crep, err := mgr.Commit(v)
		if err != nil {
			fatal(err)
		}
		res.Stats.PersistTicks += crep.Ticks
		res.Stats.Ticks += crep.Ticks
		v.ChargePersist(crep.Ticks) // keep the registry's tick view consistent
		fmt.Fprintf(os.Stderr, "pcc-run: committed %d traces (%d new) to %s\n",
			crep.Traces, crep.NewTraces, crep.File)
	}
	if cov, ok := tool.(*instr.CodeCov); ok {
		fmt.Fprintf(os.Stderr, "pcc-run: codecov: %d static instructions covered\n", cov.Count())
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			ExitCode uint64
			Stats    *vm.Stats
		}{res.ExitCode, &res.Stats}); err != nil {
			fatal(err)
		}
	}
	if *metricsOut != "" {
		if err := os.WriteFile(*metricsOut, v.Metrics().Snapshot().JSON(), 0o644); err != nil {
			fatal(err)
		}
	}
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			fatal(err)
		}
		if err := events.WriteNDJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *showStats {
		st := &res.Stats
		fmt.Fprintf(os.Stderr, "exit=%d time=%s insts=%d traces=%d reused=%d dispatches=%d flushes=%d\n",
			res.ExitCode, stats.Ms(st.Ticks), st.InstsExecuted, st.TracesTranslated, st.TracesReused, st.Dispatches, st.Flushes)
		fmt.Fprintf(os.Stderr, "breakdown: trans=%s exec=%s dispatch=%s emul=%s analysis=%s persist=%s\n",
			stats.Ms(st.TransTicks), stats.Ms(st.ExecTicks),
			stats.Ms(st.DispatchTicks+st.IndirectTicks+st.LinkTicks),
			stats.Ms(st.EmulTicks), stats.Ms(st.OpTicks), stats.Ms(st.PersistTicks))
	}
	os.Exit(int(res.ExitCode & 0x7f))
}

func mtimeOf(p string) int64 {
	fi, err := os.Stat(p)
	if err != nil {
		return 0
	}
	return fi.ModTime().UnixNano()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pcc-run:", err)
	os.Exit(1)
}
