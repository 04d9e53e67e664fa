package core

import (
	"persistcc/internal/metrics"
)

// coreMetrics holds the manager's registry families. Unlike the VM (whose
// hot loop publishes absolutes at snapshot points), every manager operation
// is low-frequency, so these are incremented directly at the call sites.
type coreMetrics struct {
	lookups       *metrics.CounterVec // mode=exact|interapp, result=hit|miss|error
	keyMismatches *metrics.CounterVec // kind=vm|tool
	installs      *metrics.CounterVec // mode=exact|rebased
	invalidations *metrics.CounterVec // reason=missing|content|base
	commits       *metrics.CounterVec // result=written|skipped
	mergeDropped  *metrics.Counter
	fileBytes     *metrics.CounterVec // dir=read|written

	quarantines      *metrics.CounterVec // kind=cachefile|manifest|verify
	verifyRejects    *metrics.CounterVec // check=module|modref|bounds|instr|branch|reloc|dup
	recoveries       *metrics.Counter
	recoveredEntries *metrics.Counter

	dbFiles    *metrics.Gauge
	dbTraces   *metrics.Gauge
	dbCodePool *metrics.Gauge
	dbDataPool *metrics.Gauge
}

func newCoreMetrics(r *metrics.Registry) *coreMetrics {
	return &coreMetrics{
		lookups:       r.CounterVec("pcc_core_lookups_total", "persistent cache lookups", "mode", "result"),
		keyMismatches: r.CounterVec("pcc_core_key_mismatches_total", "caches rejected whole on a hard key mismatch", "kind"),
		installs:      r.CounterVec("pcc_core_installs_total", "cached traces installed into a VM", "mode"),
		invalidations: r.CounterVec("pcc_core_trace_invalidations_total", "cached traces rejected individually", "reason"),
		commits:       r.CounterVec("pcc_core_commits_total", "cache commits by outcome", "result"),
		mergeDropped:  r.Counter("pcc_core_merge_dropped_total", "prior traces dropped during accumulation (stale mappings)"),
		fileBytes:     r.CounterVec("pcc_core_file_bytes_total", "cache-file bytes moved", "dir"),
		quarantines: r.CounterVec("pcc_core_quarantine_total",
			"corrupt database files moved into quarantine/", "kind"),
		verifyRejects: r.CounterVec("pcc_core_verify_reject_total",
			"cache files rejected by the deep trace verifier, by failed check", "check"),
		recoveries: r.Counter("pcc_core_index_recoveries_total",
			"repair passes over the database"),
		recoveredEntries: r.Counter("pcc_core_recovered_entries_total",
			"cache files that verified in repair passes"),
		dbFiles:    r.Gauge("pcc_core_db_files", "cache files in the database"),
		dbTraces:   r.Gauge("pcc_core_db_traces", "traces across the database"),
		dbCodePool: r.Gauge("pcc_core_db_code_pool_bytes", "modeled code-pool bytes across the database"),
		dbDataPool: r.Gauge("pcc_core_db_data_pool_bytes", "modeled data-pool bytes across the database"),
	}
}

// Metrics returns the manager's registry. By default each Manager owns a
// private registry; share one with WithMetrics for a unified process view.
func (m *Manager) Metrics() *metrics.Registry { return m.metrics }

// WithMetrics records the manager's counters into reg instead of a private
// registry.
func WithMetrics(reg *metrics.Registry) ManagerOption {
	return func(m *Manager) {
		if reg != nil {
			m.metrics = reg
		}
	}
}
