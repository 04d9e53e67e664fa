package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// This file is the benchmark's contract: the workload, end-to-end and
// per-layer tables that BENCHMARK.json, README.md and every later perf
// claim refer to by name. `go run ./bench -spec` prints BENCHMARK.json from
// these tables; bench_test.go fails when the checked-in file drifts.

// runSeconds is the measuring window of one run, identical on every commit.
// The issue asked for 20 s; the driver makes 4 + 22 x 7 runs inside 3420 s,
// so set-up, the warm-up round, the window and the two-round minimum of the
// workloads whose round takes longer than the window (gui-cold, accumulate,
// fleet-warm) have to average well under 21 s. At 4 s a set of seven runs
// takes ~95 s here. Shrunk uniformly; no workload was dropped.
const runSeconds = 4

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerDef is one per-layer metric. Metric/On record, before anything is
// optimised, which end-to-end metric the layer metric is expected to move
// and on which workloads ("*" = every workload); everywhere else the
// prediction is no change. Probe marks micro-measurements taken after the
// traced rounds on fixed data (gftp's committed cache, gcc's text) rather
// than from the spans and counters of the workload's own ops.
type layerDef struct {
	Name, Unit, Better string
	Metric             string
	On                 []string
	Probe              bool
}

var workloadDefs = []workloadDef{
	{"gui-cold", "five GUI apps each launched into its own empty store database: first-launch cost; translate + core commit + store write path (encode/deflate/hash/fsync/meta), prime does none"},
	{"gui-warm", "five GUI apps relaunched against databases seeded in setup: the paper's headline case; core prime + store read path + install dominate, translation must be zero"},
	{"spec-steady", "warm Reference runs of the ten SPEC models other than 176.gcc: the dispatch loop does most of the work, persistence little; the control for every core/store change"},
	{"gcc-translate", "176.gcc's five Train inputs, no persistence, no optimizer: loader + decode + translate dominate; bypasses core/store/cacheserver entirely"},
	{"gcc-translate-opt", "the same five gcc launches with Optimize: the extra time is guestopt analyse/rewrite/prove, the only workload where that layer carries weight"},
	{"accumulate", "5 GUI apps + gcc's 5 Reference inputs + Oracle's 5 phases with InterApp into one growing database: merge, dedup hits, growing blob index, partial prime + partial translate"},
	{"fleet-warm", "GUI launches with an empty local database against 3 seeded loopback shards (R=2), 2 clients: first launch on a new machine; wire codec, ring + fan-out, shard reads, write-through"},
}

var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"launch_ms", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
	{"vticks_per_op", "ticks", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

var (
	all      = []string{"*"}
	warm     = []string{"gui-warm", "fleet-warm"}
	writes   = []string{"gui-cold", "accumulate"}
	storeRW  = []string{"gui-cold", "accumulate", "gui-warm"}
	gccBoth  = []string{"gcc-translate", "gcc-translate-opt"}
	onlyOpt  = []string{"gcc-translate-opt"}
	onlyFlt  = []string{"fleet-warm"}
	onlySpec = []string{"spec-steady"}
)

var perLayer = []layerDef{
	// The two end-to-end metrics of the issue that can legitimately read 0
	// (no database on the gcc workloads, no failure anywhere) live here:
	// the driver's contract wants end-to-end metrics that are never 0.
	{"db_kb", "KB", "lower", "launch_ms", storeRW, false},
	{"failed_share", "share", "lower", "ops_per_s", all, false},

	{"persistcc.ops", "count", "higher", "ops_per_s", all, false},
	{"persistcc.rounds", "count", "higher", "ops_per_s", all, false},
	{"persistcc.launch_ms_tail", "ms", "lower", "launch_ms", all, false},
	{"persistcc.tail_percentile", "%", "higher", "launch_ms", all, false},
	{"persistcc.peak_rss_mb", "MB", "lower", "alloc_mb_per_op", all, false},
	{"persistcc.other_ms", "ms", "lower", "launch_ms", all, false},
	{"persistcc.persist_share_host", "share", "lower", "launch_ms", storeRW, false},
	{"persistcc.persist_share_vticks", "share", "lower", "vticks_per_op", storeRW, false},
	{"persistcc.translate_share_host", "share", "lower", "launch_ms", gccBoth, false},
	{"persistcc.translate_share_vticks", "share", "lower", "vticks_per_op", gccBoth, false},
	{"persistcc.trace_overhead_pct", "%", "lower", "launch_ms", all, false},

	{"loader.load_ms", "ms", "lower", "launch_ms", []string{"gui-warm"}, false},

	{"isa.decode_ns_per_inst", "ns/inst", "lower", "launch_ms", []string{"gcc-translate"}, true},

	{"vm.new_ms", "ms", "lower", "alloc_mb_per_op", all, false},
	{"vm.run_ms", "ms", "lower", "ops_per_s", onlySpec, false},
	{"vm.run_ns_per_inst", "ns/inst", "lower", "ops_per_s", onlySpec, false},
	{"vm.guest_minst_per_s", "Minst/s", "higher", "ops_per_s", onlySpec, false},
	{"vm.translate_us_per_inst", "us/inst", "lower", "launch_ms", []string{"gcc-translate"}, true},
	{"vm.install_us_per_trace", "us/trace", "lower", "launch_ms", []string{"gui-warm"}, true},
	{"vm.interp_ns_per_inst", "ns/inst", "lower", "setup_s", all, true},
	{"vm.insts_executed", "count", "lower", "vticks_per_op", all, false},
	{"vm.insts_translated", "count", "lower", "launch_ms", gccBoth, false},
	{"vm.traces_translated", "count", "lower", "launch_ms", gccBoth, false},
	{"vm.traces_reused", "count", "higher", "launch_ms", warm, false},
	{"vm.dispatches", "count", "lower", "ops_per_s", onlySpec, false},
	{"vm.indirect_misses", "count", "lower", "ops_per_s", onlySpec, false},
	{"vm.links_patched", "count", "lower", "launch_ms", gccBoth, false},
	{"vm.cache_flushes", "count", "lower", "launch_ms", all, false},
	{"vm.reuse_ratio", "share", "higher", "launch_ms", warm, false},

	{"guestopt.optimize_us_per_trace", "us/trace", "lower", "launch_ms", onlyOpt, true},
	{"guestopt.constfold_us_per_trace", "us/trace", "lower", "launch_ms", onlyOpt, true},
	{"guestopt.deadcode_us_per_trace", "us/trace", "lower", "launch_ms", onlyOpt, true},
	{"guestopt.deadflag_us_per_trace", "us/trace", "lower", "launch_ms", onlyOpt, true},
	{"guestopt.loadelim_us_per_trace", "us/trace", "lower", "launch_ms", onlyOpt, true},
	{"guestopt.insts_removed_pct", "%", "higher", "vticks_per_op", onlyOpt, false},
	{"guestopt.rejects", "count", "lower", "launch_ms", onlyOpt, false},

	{"core.open_ms", "ms", "lower", "launch_ms", warm, false},
	{"core.prime_ms", "ms", "lower", "launch_ms", warm, false},
	{"core.commit_ms", "ms", "lower", "launch_ms", writes, false},
	{"core.build_ms", "ms", "lower", "launch_ms", writes, true},
	{"core.marshal_ms", "ms", "lower", "launch_ms", onlyFlt, true},
	{"core.unmarshal_ms", "ms", "lower", "launch_ms", onlyFlt, true},
	{"core.to_store_ms", "ms", "lower", "launch_ms", writes, true},
	{"core.materialize_ms", "ms", "lower", "launch_ms", warm, true},
	{"core.merge_ms", "ms", "lower", "launch_ms", []string{"accumulate"}, true},
	{"core.prime_legacy_ms", "ms", "lower", "launch_ms", []string{"gui-warm"}, true},
	{"core.prime_store_ms", "ms", "lower", "launch_ms", []string{"gui-warm"}, true},
	{"core.commit_legacy_ms", "ms", "lower", "launch_ms", []string{"gui-cold"}, true},
	{"core.commit_store_ms", "ms", "lower", "launch_ms", []string{"gui-cold"}, true},
	{"core.prime_installed", "count", "higher", "launch_ms", warm, false},
	{"core.prime_invalidated", "count", "lower", "launch_ms", []string{"accumulate"}, false},
	{"core.commit_new_traces", "count", "lower", "launch_ms", writes, false},
	{"core.commit_skipped_share", "share", "higher", "launch_ms", warm, false},

	{"store.encode_us_per_blob", "us/blob", "lower", "launch_ms", writes, true},
	{"store.hash_us_per_blob", "us/blob", "lower", "launch_ms", writes, true},
	{"store.decode_us_per_blob", "us/blob", "lower", "launch_ms", []string{"gui-warm"}, true},
	{"store.materialize_us_per_blob", "us/blob", "lower", "launch_ms", []string{"gui-warm"}, true},
	{"store.putall_ms", "ms", "lower", "launch_ms", writes, true},
	{"store.putall_into_5k_ms", "ms", "lower", "launch_ms", []string{"accumulate"}, true},
	{"store.get_cold_us_per_blob", "us/blob", "lower", "launch_ms", []string{"gui-warm"}, true},
	{"store.get_l1_us_per_blob", "us/blob", "lower", "launch_ms", onlyFlt, true},
	{"store.open_ms", "ms", "lower", "launch_ms", storeRW, true},
	{"store.manifest_codec_us", "us", "lower", "launch_ms", storeRW, true},
	{"store.blobs_written", "count", "lower", "launch_ms", writes, false},
	{"store.blobs_deduped", "count", "higher", "launch_ms", []string{"accumulate"}, false},
	{"store.bytes_written", "count", "lower", "launch_ms", writes, false},
	{"store.dedup_ratio", "share", "higher", "launch_ms", []string{"accumulate"}, false},

	{"cacheserver.lookup_rtt_us", "us", "lower", "launch_ms", onlyFlt, true},
	{"cacheserver.fetch_manifests_ms", "ms", "lower", "launch_ms", onlyFlt, true},
	{"cacheserver.fetch_blobs_ms", "ms", "lower", "launch_ms", onlyFlt, true},
	{"cacheserver.publish_ms", "ms", "lower", "launch_ms", onlyFlt, true},
	{"cacheserver.remote_lookups", "count", "lower", "launch_ms", onlyFlt, false},
	{"cacheserver.remote_hits", "count", "higher", "launch_ms", onlyFlt, false},
	{"cacheserver.remote_fallbacks", "count", "lower", "launch_ms", onlyFlt, false},

	{"fleet.owners_ns", "ns", "lower", "launch_ms", onlyFlt, true},
	{"fleet.fetch_blobs_ms", "ms", "lower", "launch_ms", onlyFlt, true},
	{"fleet.publish_ms", "ms", "lower", "launch_ms", onlyFlt, true},
}

// benchmarkJSON renders BENCHMARK.json: exactly the keys the driver's
// contract names, so the prediction columns stay in this file and README.md.
func benchmarkJSON() []byte {
	type layerOut struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerOut    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
	}
	for _, l := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerOut{l.Name, l.Unit, l.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return append(b, '\n')
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

// predictionTable renders the layer -> end-to-end table for README.md and
// the traced run's header.
func predictionTable() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-34s %-8s %-6s %-5s %s\n", "per-layer metric", "unit", "better", "probe", "should move")
	for _, l := range perLayer {
		probe := ""
		if l.Probe {
			probe = "probe"
		}
		on := strings.Join(l.On, ", ")
		if on == "*" {
			on = "every workload"
		}
		fmt.Fprintf(&sb, "%-34s %-8s %-6s %-5s %s on %s\n", l.Name, l.Unit, l.Better, probe, l.Metric, on)
	}
	return sb.String()
}
