package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// endToEndMetrics turns the facade ops of an untraced run into the
// end-to-end metrics.
func endToEndMetrics(m *measured, slots, clients int, setupS float64) map[string]float64 {
	var wall, ticks float64
	for i := range m.ops {
		wall += m.ops[i].wall.Seconds()
		ticks += float64(m.ops[i].stats.Ticks)
	}
	n := float64(len(m.ops))
	return map[string]float64{
		"ops_per_s":       n / (wall / float64(clients)),
		"launch_ms":       geomean(perSlotMedians(m.ops, slots)),
		"alloc_mb_per_op": float64(m.allocB) / n / (1 << 20),
		"vticks_per_op":   ticks / n,
		"setup_s":         setupS,
	}
}

// layerMetrics turns a traced run into the per-layer metrics that come from
// spans and counters; the caller adds the probes.
func layerMetrics(m *measured, r *runner, probes map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for k, v := range probes {
		out[k] = v
	}
	ops := m.traced
	n := float64(len(ops))
	attempted := float64(len(m.ops) + len(m.traced))

	out["db_kb"] = m.dbKB
	out["failed_share"] = float64(m.failed()) / attempted
	out["persistcc.ops"] = float64(len(m.ops))
	out["persistcc.rounds"] = float64(m.rounds)
	walls := make([]float64, len(m.ops))
	for i := range m.ops {
		walls[i] = ms(m.ops[i].wall)
	}
	out["persistcc.tail_percentile"], out["persistcc.launch_ms_tail"] = tail(walls)
	out["persistcc.peak_rss_mb"] = peakRSSMB()
	slots := len(r.st.slots)
	plain := geomean(perSlotMedians(m.ops, slots))
	out["persistcc.trace_overhead_pct"] = (geomean(perSlotMedians(ops, slots))/plain - 1) * 100

	// Spans: self time per layer call, averaged over the traced ops, so the
	// rows add up to the op.
	self := selfTimes(r.tr.spans)
	perOp := func(name string) float64 { return float64(self[name]) / 1e6 / n }
	out["loader.load_ms"] = perOp(spanLoad)
	out["vm.new_ms"] = perOp(spanNew)
	out["vm.run_ms"] = perOp(spanRun)
	out["core.open_ms"] = perOp(spanOpen)
	out["core.prime_ms"] = perOp(spanPrime)
	out["core.commit_ms"] = perOp(spanCommit)
	out["persistcc.other_ms"] = perOp(spanOp)
	var opNS int64
	for _, ns := range self {
		opNS += ns
	}
	out["persistcc.persist_share_host"] = float64(self[spanOpen]+self[spanPrime]+self[spanCommit]) / float64(opNS)

	// Counters, summed over the traced ops.
	var ticks, persistTicks, transTicks, insts, translated, tracesTr, reused float64
	var dispatches, indirect, links, flushes, removed, rejects float64
	var lookups, hits, fallbacks, installed, invalidated, newTraces, commits, skipped float64
	for i := range ops {
		s := &ops[i].stats
		ticks += float64(s.Ticks)
		persistTicks += float64(s.PersistTicks)
		transTicks += float64(s.TransTicks)
		insts += float64(s.InstsExecuted)
		translated += float64(s.InstsTranslated)
		tracesTr += float64(s.TracesTranslated)
		reused += float64(s.TracesReused)
		dispatches += float64(s.Dispatches)
		indirect += float64(s.IndirectMisses)
		links += float64(s.LinksPatched)
		flushes += float64(s.Flushes)
		removed += float64(s.OptInstsRemoved)
		rejects += float64(s.OptRejects)
		lookups += float64(s.RemoteLookups)
		hits += float64(s.RemoteHits)
		fallbacks += float64(s.RemoteFallbacks)
		if p := ops[i].prime; p != nil {
			installed += float64(p.Installed)
			invalidated += float64(p.Invalidated())
		}
		if c := ops[i].commit; c != nil {
			commits++
			newTraces += float64(c.NewTraces)
			if c.Skipped {
				skipped++
			}
		}
	}
	out["persistcc.persist_share_vticks"] = ratio(persistTicks, ticks)
	out["persistcc.translate_share_vticks"] = ratio(transTicks, ticks)
	// Translation is not a call the benchmark can put a span around: its
	// host share is the translate probe's unit cost times the
	// instructions the ops translated.
	out["persistcc.translate_share_host"] = probes["vm.translate_us_per_inst"] * 1e3 * translated / float64(opNS)
	out["vm.run_ns_per_inst"] = ratio(float64(self[spanRun]), insts)
	out["vm.guest_minst_per_s"] = ratio(insts*1e3, float64(self[spanRun]))
	out["vm.insts_executed"] = insts / n
	out["vm.insts_translated"] = translated / n
	out["vm.traces_translated"] = tracesTr / n
	out["vm.traces_reused"] = reused / n
	out["vm.dispatches"] = dispatches / n
	out["vm.indirect_misses"] = indirect / n
	out["vm.links_patched"] = links / n
	out["vm.cache_flushes"] = flushes / n
	out["vm.reuse_ratio"] = ratio(reused, reused+tracesTr)
	out["guestopt.insts_removed_pct"] = ratio(removed, translated) * 100
	out["guestopt.rejects"] = rejects / n
	out["core.prime_installed"] = installed / n
	out["core.prime_invalidated"] = invalidated / n
	out["core.commit_new_traces"] = newTraces / n
	out["core.commit_skipped_share"] = ratio(skipped, commits)
	out["cacheserver.remote_lookups"] = lookups / n
	out["cacheserver.remote_hits"] = hits / n
	out["cacheserver.remote_fallbacks"] = fallbacks / n

	snap := r.reg.Snapshot()
	counter := func(name string) float64 { v, _ := snap.Value(name); return v }
	written, deduped := counter("pcc_store_blobs_written_total"), counter("pcc_store_dedup_blobs_total")
	out["store.blobs_written"] = written / n
	out["store.blobs_deduped"] = deduped / n
	out["store.bytes_written"] = counter("pcc_store_blob_written_bytes_total") / n
	out["store.dedup_ratio"] = ratio(deduped, written+deduped)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's high-water resident set (VmHWM), 0 where
// /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// fsType names the filesystem holding dir (longest mount-point prefix in
// /proc/self/mounts), "unknown" where /proc is not available: fsync is a
// cost users pay, so the header says what it was paid to.
func fsType(dir string) string {
	b, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
