package vm

import (
	"fmt"

	"persistcc/internal/metrics"
	tracelog "persistcc/internal/metrics/trace"
)

// vmMetrics holds the VM's registry families. The interpreter's inner loop
// keeps its plain Stats fields (no per-instruction atomics); syncMetrics
// publishes them into the registry at snapshot points, so the registry is
// a consistent view over Stats. Low-frequency events (translations,
// persistent installs, remote round trips) also land here directly via the
// same sync.
type vmMetrics struct {
	ticks      *metrics.CounterVec // component=trans|dispatch|indirect|link|exec|emul|op|persist, plus total
	instsExec  *metrics.Counter
	instsTrans *metrics.Counter
	traces     *metrics.CounterVec // source=translated|persistent|remote
	traceExecs *metrics.Counter
	dispatches *metrics.Counter
	indirect   *metrics.CounterVec // result=hit|miss
	links      *metrics.Counter
	flushes    *metrics.CounterVec // cause=capacity|smc
	remote     *metrics.CounterVec // event=lookup|hit|fallback
	syscalls   *metrics.CounterVec // num=<syscall number>
	optTraces  *metrics.CounterVec // outcome=optimized|rejected
	optRemoved *metrics.Counter

	// Guest memory: pages the mapping table covers, and how many of them
	// the run wrote and so gave memory of their own (internal/mem).
	mappedPages   *metrics.Gauge
	residentPages *metrics.Gauge
}

func newVMMetrics(r *metrics.Registry) *vmMetrics {
	return &vmMetrics{
		ticks:      r.CounterVec("pcc_vm_ticks_total", "virtual ticks by component (trans is the paper's VM overhead)", "component"),
		instsExec:  r.Counter("pcc_vm_insts_executed_total", "guest instructions retired"),
		instsTrans: r.Counter("pcc_vm_insts_translated_total", "guest instructions translated into the code cache"),
		traces:     r.CounterVec("pcc_vm_traces_total", "traces entering the code cache by source", "source"),
		traceExecs: r.Counter("pcc_vm_trace_execs_total", "trace executions"),
		dispatches: r.Counter("pcc_vm_dispatches_total", "full VM dispatcher entries"),
		indirect:   r.CounterVec("pcc_vm_indirect_lookups_total", "inline indirect-branch lookups", "result"),
		links:      r.Counter("pcc_vm_links_patched_total", "trace exit links patched"),
		flushes:    r.CounterVec("pcc_vm_cache_flushes_total", "code cache flushes", "cause"),
		remote:     r.CounterVec("pcc_vm_remote_total", "shared cache-server interactions", "event"),
		syscalls:   r.CounterVec("pcc_vm_syscalls_total", "emulated system calls", "num"),
		optTraces:  r.CounterVec("pcc_vm_opt_traces_total", "translation-time optimizer outcomes per trace", "outcome"),
		optRemoved: r.Counter("pcc_vm_opt_insts_removed_total", "instructions eliminated by the translation-time optimizer"),

		mappedPages:   r.Gauge("pcc_vm_mapped_pages", "guest pages covered by a mapping"),
		residentPages: r.Gauge("pcc_vm_resident_pages", "guest pages written at least once (demand-zero pages holding memory)"),
	}
}

// syncMetrics publishes the run's accumulated Stats into the registry.
func (v *VM) syncMetrics() {
	if v.m == nil {
		return
	}
	s, m := &v.stats, v.m
	m.ticks.With("total").Set(v.clock)
	m.ticks.With("trans").Set(s.TransTicks)
	m.ticks.With("dispatch").Set(s.DispatchTicks)
	m.ticks.With("indirect").Set(s.IndirectTicks)
	m.ticks.With("link").Set(s.LinkTicks)
	m.ticks.With("exec").Set(s.ExecTicks)
	m.ticks.With("emul").Set(s.EmulTicks)
	m.ticks.With("op").Set(s.OpTicks)
	m.ticks.With("persist").Set(s.PersistTicks)
	m.instsExec.Set(s.InstsExecuted)
	m.instsTrans.Set(s.InstsTranslated)
	m.traces.With("translated").Set(s.TracesTranslated)
	localReused := s.TracesReused
	if localReused >= s.RemoteHits {
		localReused -= s.RemoteHits
	}
	m.traces.With("persistent").Set(localReused)
	m.traces.With("remote").Set(s.RemoteHits)
	m.traceExecs.Set(s.TraceExecs)
	m.dispatches.Set(s.Dispatches)
	m.indirect.With("hit").Set(s.IndirectHits)
	m.indirect.With("miss").Set(s.IndirectMisses)
	m.links.Set(s.LinksPatched)
	m.flushes.With("smc").Set(uint64(s.SMCFlushes))
	m.flushes.With("capacity").Set(uint64(s.Flushes - s.SMCFlushes))
	m.remote.With("lookup").Set(s.RemoteLookups)
	m.remote.With("hit").Set(s.RemoteHits)
	m.remote.With("fallback").Set(s.RemoteFallbacks)
	m.optTraces.With("optimized").Set(s.TracesOptimized)
	m.optTraces.With("rejected").Set(s.OptRejects)
	m.optRemoved.Set(s.OptInstsRemoved)
	m.mappedPages.Set(float64(v.as.MappedPages()))
	m.residentPages.Set(float64(v.as.Resident()))
	for num, n := range s.Syscalls {
		m.syscalls.With(fmt.Sprintf("%d", num)).Set(n)
	}
}

// Metrics returns the VM's metrics registry, synced to the current Stats.
// By default each VM owns a private registry; WithMetrics shares one across
// the VM, the persistence manager and the cache-server client so a process
// exports a single unified snapshot.
func (v *VM) Metrics() *metrics.Registry {
	v.syncMetrics()
	return v.metrics
}

// EventLog returns the structured event log attached with WithEventLog
// (nil, and safe to record to, when none is attached).
func (v *VM) EventLog() *tracelog.Log { return v.events }

// WithMetrics records the run's counters into reg instead of a private
// registry.
func WithMetrics(reg *metrics.Registry) Option {
	return func(v *VM) {
		if reg != nil {
			v.metrics = reg
		}
	}
}

// WithEventLog attaches a structured event log: translations and
// persistent installs are recorded with their virtual-tick timestamps, and
// the persistence layers append prime/commit/publish events, giving a
// post-hoc timeline of where every trace came from.
func WithEventLog(log *tracelog.Log) Option {
	return func(v *VM) { v.events = log }
}
