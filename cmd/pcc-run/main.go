// Command pcc-run executes a VR64 executable — natively (interpreted) or
// under the run-time compilation system, optionally with instrumentation
// and persistent code caching. It turns its flags into a
// persistcc.RunOptions and launches through persistcc.Run, the same code
// every benchmark workload times.
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

	"persistcc"
	"persistcc/internal/instr"
	"persistcc/internal/metrics"
	tracelog "persistcc/internal/metrics/trace"
	"persistcc/internal/obj"
	"persistcc/internal/replay"
	"persistcc/internal/stats"
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
	prefetch := flag.Bool("prefetch", false, "with -interapp, prime from the fleet in one bulk round trip: the exact entry plus every inter-application candidate; without -interapp it is the plain prime (needs -cache-server or -fleet-config)")
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

	if (*cacheServer != "" || *fleetConfig != "") && *persistDir == "" {
		fatal(fmt.Errorf("-cache-server/-fleet-config needs -persist for the local fallback database"))
	}
	if *prefetch && *cacheServer == "" && *fleetConfig == "" {
		fatal(fmt.Errorf("-prefetch needs -cache-server or -fleet-config"))
	}
	if *cacheServer != "" && *fleetConfig != "" {
		fatal(fmt.Errorf("-cache-server and -fleet-config are mutually exclusive"))
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
	o := persistcc.RunOptions{
		Native:        *native,
		Persist:       *persistDir != "",
		CacheDir:      *persistDir,
		InterApp:      *interApp,
		Relocatable:   *reloc,
		StoreDir:      *storeDir,
		VerifyInstall: *verifyInstall,
		Optimize:      *optimize,
		Prefetch:      *prefetch,
		MaxInsts:      *maxInsts,
		SMC:           *smc,
		Record:        *recordTo,
		Replay:        *replayFrom,
		Loader: persistcc.LoaderConfig{
			MTime: mtimeOf(exePath),
			Resolve: func(name string) (*persistcc.Object, int64, error) {
				for _, d := range dirs {
					p := filepath.Join(d, name)
					if f, err := obj.ReadFile(p); err == nil {
						return f, mtimeOf(p), nil
					}
				}
				return nil, 0, fmt.Errorf("library %s not found in %v", name, dirs)
			},
		},
	}
	switch {
	case *aslr != 0:
		o.Loader.Placement = persistcc.PlaceASLR
		o.Loader.ASLRSeed = *aslr
	case *hashed:
		o.Loader.Placement = persistcc.PlaceHashed
	}
	if *inputStr != "" {
		for _, f := range strings.Split(*inputStr, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(f), 0, 64)
			if err != nil {
				fatal(fmt.Errorf("bad input word %q: %v", f, err))
			}
			o.Input = append(o.Input, v)
		}
	}
	if *toolName != "" {
		if o.Tool = instr.ByName(*toolName); o.Tool == nil {
			fatal(fmt.Errorf("unknown tool %q", *toolName))
		}
	}
	if *trace > 0 {
		o.ExecLog, o.ExecLogLines = os.Stderr, *trace
	}
	switch {
	case *cacheServer != "":
		o.FleetConfig = &persistcc.FleetConfig{Shards: []persistcc.FleetShard{{ID: *cacheServer, Addr: *cacheServer}}}
	case *fleetConfig != "":
		if o.FleetConfig, err = persistcc.LoadFleetConfig(*fleetConfig); err != nil {
			fatal(err)
		}
	}
	if *metricsOut != "" {
		o.Metrics = metrics.NewRegistry()
	}
	if *eventsOut != "" {
		o.Events = tracelog.NewLog(0)
	}

	out, err := persistcc.Run(exe, nil, o)
	if err != nil {
		// pcc_replay_divergence_total matters most exactly when replay
		// fails: flush the snapshot before exiting.
		var div *persistcc.DivergenceError
		if errors.As(err, &div) && o.Metrics != nil {
			_ = os.WriteFile(*metricsOut, o.Metrics.Snapshot().JSON(), 0o644)
		}
		fatal(err)
	}
	res := out.Result
	if rep := out.Prime; rep != nil && rep.Found {
		fmt.Fprintf(os.Stderr, "pcc-run: persistent cache: %d traces installed (%d rebased, %d invalidated, %d remote)\n",
			rep.Installed, rep.Rebased, rep.Invalidated(), res.Stats.RemoteHits)
	}
	if *recordTo != "" {
		fmt.Fprintf(os.Stderr, "pcc-run: recorded %d events (%d bytes) to %s\n", out.LogEvents, out.LogBytes, *recordTo)
	}
	if *replayFrom != "" {
		fmt.Fprintf(os.Stderr, "pcc-run: replayed %s bit-exactly (%d events)\n", *replayFrom, out.LogEvents)
	}
	os.Stdout.Write(res.Output)
	if crep := out.Commit; crep != nil {
		fmt.Fprintf(os.Stderr, "pcc-run: committed %d traces (%d new) to %s\n",
			crep.Traces, crep.NewTraces, crep.File)
	}
	if cov, ok := o.Tool.(*instr.CodeCov); ok {
		fmt.Fprintf(os.Stderr, "pcc-run: codecov: %d static instructions covered\n", cov.Count())
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			ExitCode uint64
			Stats    any
		}{res.ExitCode, &res.Stats}); err != nil {
			fatal(err)
		}
	}
	if *metricsOut != "" {
		if err := os.WriteFile(*metricsOut, o.Metrics.Snapshot().JSON(), 0o644); err != nil {
			fatal(err)
		}
	}
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			fatal(err)
		}
		if err := o.Events.WriteNDJSON(f); err != nil {
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
