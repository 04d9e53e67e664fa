// Command pcc-cachectl inspects and maintains a persistent code cache
// database.
//
// Usage:
//
//	pcc-cachectl -dir DB list            # list cache entries
//	pcc-cachectl -dir DB show FILE       # per-module/trace detail
//	pcc-cachectl -dir DB stats           # per-database totals, key classes, unmigrated files
//	pcc-cachectl -dir DB verify          # integrity-check every manifest
//	pcc-cachectl -dir DB verify -deep    # + static CFG/relocation verification
//	pcc-cachectl -dir DB repair          # quarantine corrupt files, clear debris
//	pcc-cachectl -dir DB migrate         # convert legacy files to manifest+blob format
//	pcc-cachectl -dir DB compact         # reclaim store blobs no manifest references
//	pcc-cachectl -server ADDR stats      # same totals, from a cache daemon
//	pcc-cachectl -server ADDR compact    # compact a daemon's store
//	pcc-cachectl -server ADDR metrics    # the daemon's metrics registry
//	pcc-cachectl metrics FILE            # render a pcc-run -metrics-out file
//	pcc-cachectl -fleet CONF stats       # fleet-wide totals + per-shard balance
//	pcc-cachectl -fleet CONF compact -keep N   # global utility-based eviction
//
// The metrics subcommand renders a registry snapshot — fetched live from a
// daemon over the wire protocol's METRICS op, or read from a JSON snapshot
// file written by pcc-run -metrics-out — in the Prometheus text format.
//
// -fleet takes a membership config (the file pcc-run -fleet-config
// reads); -server ADDR is a fleet of one, so its stats and compact take
// the same path. Fleet stats asks every shard for its own totals and
// prints the per-shard balance next to the aggregate; fleet compact runs
// ShareJIT-style global cache management — entries ranked fleet-wide by
// hit frequency × translation cost, the top -keep retained, the rest
// evicted from every shard that holds them, and each shard's store
// compacted to reclaim the freed blobs. A shard whose summary, evict or
// compact failed is named, and the command exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"persistcc/internal/cacheserver"
	"persistcc/internal/cacheserver/fleet"
	"persistcc/internal/core"
	"persistcc/internal/metrics"
	"persistcc/internal/stats"
	"persistcc/internal/store"
)

func main() {
	dir := flag.String("dir", "", "cache database directory")
	server := flag.String("server", "", `shared cache daemon address ("host:port" or "unix:/path.sock")`)
	fleetCfg := flag.String("fleet", "", "fleet membership JSON for fleet-wide stats/compact")
	keep := flag.Int("keep", 0, "with -fleet compact: entries to retain fleet-wide, ranked by utility (0 = report only)")
	flag.Parse()
	if flag.NArg() < 1 || (*dir == "" && *server == "" && *fleetCfg == "" && flag.Arg(0) != "metrics") {
		fmt.Fprintln(os.Stderr, "usage: pcc-cachectl {-dir DB | -server ADDR | -fleet CONF} {list|show FILE|stats|metrics|verify [-deep]|repair|migrate|compact}")
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	if *fleetCfg != "" || (*server != "" && (cmd == "stats" || cmd == "compact")) {
		if cmd != "stats" && cmd != "compact" {
			fatal(fmt.Errorf("%s needs -dir or -server (only stats and compact work fleet-wide)", cmd))
		}
		cfg := fleet.Single(*server)
		if *fleetCfg != "" {
			cfg = mustLoadFleet(*fleetCfg)
		}
		fl, err := fleet.New(cfg)
		if err != nil {
			fatal(err)
		}
		defer fl.Close()
		if cmd == "stats" {
			fleetStats(fl)
		} else {
			// Accept -keep after the subcommand too (flag parsing stops
			// at "compact"), matching the documented usage.
			k := *keep
			if flag.NArg() >= 3 && flag.Arg(1) == "-keep" {
				n, err := strconv.Atoi(flag.Arg(2))
				if err != nil {
					fatal(fmt.Errorf("bad -keep value %q", flag.Arg(2)))
				}
				k = n
			}
			fleetCompact(fl, k)
		}
		return
	}
	var mgr *core.Manager
	if *dir != "" {
		var err error
		mgr, err = core.NewManager(*dir)
		if err != nil {
			fatal(err)
		}
	} else if cmd != "metrics" {
		fatal(fmt.Errorf("%s needs -dir (only stats, compact and metrics work over -server)", cmd))
	}
	switch cmd {
	case "list":
		entries, err := mgr.Entries()
		if err != nil {
			fatal(err)
		}
		tb := stats.NewTable("", "file", "application", "traces", "code pool", "data pool", "app key", "tool key")
		for _, e := range entries {
			tb.AddRow(e.File, e.AppPath, fmt.Sprintf("%d", e.Traces),
				stats.Bytes(e.CodePool), stats.Bytes(e.DataPool), e.App[:8], e.Tool[:8])
		}
		fmt.Print(tb.Render())
	case "show":
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("show needs a cache file name"))
		}
		cf, err := readEntry(mgr, *dir, flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("application: %s (key %s)\nVM key: %s\ntool key: %s\n",
			cf.AppPath, cf.AppKey, cf.VMKey, cf.ToolKey)
		fmt.Printf("pools: code %s, data %s\n", stats.Bytes(cf.CodePool), stats.Bytes(cf.DataPool))
		tb := stats.NewTable("mappings", "path", "base", "size", "mtime", "key")
		for _, m := range cf.Modules {
			tb.AddRow(m.Path, fmt.Sprintf("%#x", m.Base), stats.Bytes(uint64(m.Size)),
				fmt.Sprintf("%d", m.MTime), m.Key.String())
		}
		fmt.Print(tb.Render())
		perModule := make(map[int32]int)
		insts := 0
		for _, t := range cf.Traces {
			perModule[t.Module]++
			insts += len(t.Insts)
		}
		fmt.Printf("traces: %d (%d instructions)\n", len(cf.Traces), insts)
		for mi, n := range perModule {
			fmt.Printf("  %-24s %d traces\n", cf.Modules[mi].Path, n)
		}
	case "stats":
		st, err := mgr.Stats()
		if err != nil {
			fatal(err)
		}
		printDBStats(st)
		// A legacy image is invisible to everything but migrate.
		if legacy, _ := filepath.Glob(filepath.Join(*dir, "*.pcc")); len(legacy) > 0 {
			fmt.Printf("unmigrated legacy files: %d (run `pcc-cachectl migrate`)\n", len(legacy))
		}
	case "metrics":
		var snap *metrics.Snapshot
		var err error
		switch {
		case *server != "":
			c := cacheserver.NewClient(*server)
			defer c.Close()
			snap, err = c.ServerMetrics()
		case flag.NArg() == 2:
			var b []byte
			if b, err = os.ReadFile(flag.Arg(1)); err == nil {
				snap, err = metrics.ParseSnapshot(b)
			}
		default:
			err = fmt.Errorf("metrics needs -server ADDR or a snapshot file argument")
		}
		if err != nil {
			fatal(err)
		}
		if err := snap.WritePrometheus(os.Stdout); err != nil {
			fatal(err)
		}
	case "verify":
		deep := flag.NArg() > 1 && flag.Arg(1) == "-deep"
		// Every manifest on disk, not the listing: a file whose header does
		// not read is left out of that, and is exactly what to report.
		files, err := filepath.Glob(filepath.Join(*dir, "*.pcm"))
		if err != nil {
			fatal(err)
		}
		bad := 0
		for _, path := range files {
			file := filepath.Base(path)
			cf, err := readEntry(mgr, *dir, file)
			if err != nil {
				fmt.Printf("BAD  %s: %v\n", file, err)
				bad++
				continue
			}
			if deep {
				if rep := cf.VerifyDeep(); !rep.OK() {
					fmt.Printf("BAD  %s: deep verification failed (%d finding(s) across %d trace(s))\n",
						file, len(rep.Findings), rep.Traces)
					for _, f := range rep.Findings {
						fmt.Printf("     %s\n", f)
					}
					bad++
					continue
				}
			}
			fmt.Printf("OK   %s\n", file)
		}
		if bad > 0 {
			os.Exit(1)
		}
	case "repair":
		// Repair is meant to run when no healthy writer exists (e.g. after a
		// crash); don't wait out a crash victim's stale lock.
		rmgr, err := core.NewManager(*dir, core.WithLockTimeout(2*time.Second))
		if err != nil {
			fatal(err)
		}
		rep, err := rmgr.RecoverIndex()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("scanned: %d cache files\n", rep.FilesScanned)
		fmt.Printf("quarantined: %d corrupt cache files (moved to %s)\n",
			rep.FilesQuarantined, filepath.Join(*dir, core.QuarantineDir))
		fmt.Printf("verified: %d cache files\n", rep.EntriesVerified)
		fmt.Printf("folded: %d loose blobs into packs\n", rep.BlobsFolded)
		fmt.Printf("removed: %d temp files from interrupted writes\n", rep.TmpFilesRemoved)
		fmt.Printf("reclaimed: %s from the live database\n", stats.Bytes(rep.BytesReclaimed))
	case "migrate":
		// Migration, like repair, runs when no healthy writer exists.
		smgr, err := core.NewManager(*dir, core.WithLockTimeout(2*time.Second))
		if err != nil {
			fatal(err)
		}
		rep, err := smgr.MigrateToStore()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("scanned: %d legacy cache files\n", rep.Scanned)
		fmt.Printf("migrated: %d to manifest+blob format\n", rep.Migrated)
		fmt.Printf("quarantined: %d that failed verification (moved to %s)\n",
			rep.Quarantined, filepath.Join(*dir, core.QuarantineDir))
		fmt.Printf("blobs: %d written, %d shared via dedup\n", rep.BlobsAdded, rep.BlobsShared)
		fmt.Printf("folded: %d loose blobs into packs\n", rep.BlobsFolded)
		if rep.BytesBefore > 0 {
			fmt.Printf("bytes: %s → %s (%.1f%% saved)\n",
				stats.Bytes(rep.BytesBefore), stats.Bytes(rep.BytesAfter),
				100*(1-float64(rep.BytesAfter)/float64(rep.BytesBefore)))
		}
	case "compact":
		smgr, err := core.NewManager(*dir, core.WithLockTimeout(2*time.Second))
		if err != nil {
			fatal(err)
		}
		rep, err := smgr.CompactStore()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pruned: %d orphan blobs\n", rep.PrunedOrphans)
		fmt.Printf("reclaimed: %s\n", stats.Bytes(rep.ReclaimedBytes))
	default:
		fatal(fmt.Errorf("unknown subcommand %q", cmd))
	}
}

func printDBStats(st *core.DBStats) {
	fmt.Printf("cache files: %d\ntraces: %d\ncode pool: %s\ndata pool: %s\n",
		st.Files, st.Traces, stats.Bytes(st.CodePool), stats.Bytes(st.DataPool))
	if ss := st.Store; ss != nil {
		fmt.Printf("store: %d manifests over %d shared blobs (%s physical)\n",
			ss.Manifests, ss.Blobs, stats.Bytes(ss.BlobBytes))
		if ss.Packs+ss.LooseBlobs > 0 { // a local view: the wire response does not carry these
			fmt.Printf("packs: %d, loose blobs remaining: %d\n", ss.Packs, ss.LooseBlobs)
		}
		fmt.Printf("dedup: %s logical → %.1f%% saved by content addressing\n",
			stats.Bytes(ss.LogicalBytes), 100*ss.DedupRatio)
	}
	tb := stats.NewTable("key classes", "VM key", "tool key", "entries", "traces")
	for _, c := range st.Classes {
		tb.AddRow(c.VM[:8], c.Tool[:8], fmt.Sprintf("%d", c.Entries), fmt.Sprintf("%d", c.Traces))
	}
	fmt.Print(tb.Render())
}

func mustLoadFleet(path string) *fleet.Config {
	cfg, err := fleet.LoadConfig(path)
	if err != nil {
		fatal(err)
	}
	return cfg
}

// fleetStats prints the per-shard balance table, then the aggregate totals
// merged across every reachable shard.
func fleetStats(fl *fleet.Client) {
	views := fl.StatsByShard()
	tb := stats.NewTable("shards", "shard", "files", "traces", "code pool", "status")
	for _, v := range views {
		if v.Err != nil {
			tb.AddRow(v.ID, "-", "-", "-", v.Err.Error())
			continue
		}
		tb.AddRow(v.ID, fmt.Sprintf("%d", v.Stats.Files), fmt.Sprintf("%d", v.Stats.Traces),
			stats.Bytes(v.Stats.CodePool), "ok")
	}
	fmt.Print(tb.Render())
	st, err := fl.Stats()
	if err != nil {
		fatal(err)
	}
	fmt.Println("fleet totals:")
	printDBStats(st)
}

// fleetCompact runs utility-ranked global cache management: keep > 0
// retains the top entries by hit frequency × translation cost and evicts
// the rest from every shard; keep == 0 only compacts the per-shard stores.
func fleetCompact(fl *fleet.Client, keep int) {
	rep, err := fl.GlobalCompact(keep)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("entries: %d fleet-wide, %d kept\n", rep.Entries, rep.Kept)
	fmt.Printf("evicted: %d shard copies (%d traces)\n", rep.Evicted, rep.EvictedTraces)
	if rep.Kept > 0 && rep.Kept < rep.Entries {
		fmt.Printf("admission floor: utility %d (hits × traces) to enter the cache\n", rep.FloorUtility)
	}
	fmt.Printf("reclaimed: %s (%d orphan blobs pruned)\n", stats.Bytes(rep.Reclaimed), rep.PrunedOrphans)
	if len(rep.Failed) > 0 {
		fatal(fmt.Errorf("summary, evict or compact failed on shard(s) %s", strings.Join(rep.Failed, ", ")))
	}
}

// readEntry reads one database manifest and changes nothing on disk: it is
// materialized from the store, each blob verified on read.
func readEntry(mgr *core.Manager, dir, file string) (*core.CacheFile, error) {
	b, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		return nil, err
	}
	man, err := store.DecodeManifest(b)
	if err != nil {
		return nil, err
	}
	return mgr.MaterializeManifest(man)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pcc-cachectl:", err)
	os.Exit(1)
}
