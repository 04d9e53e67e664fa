package guestopt

import "persistcc/internal/metrics"

// outcome is what became of one trace.
type outcome uint8

const (
	outOptimized outcome = iota
	outUnchanged
	outRejected
	nOutcomes
)

// Metrics exports the optimizer's counters. Every labeled family is
// resolved to its counters once, here: observe runs per trace, from a
// hotpath frame, and must not pay a family lookup. All methods are
// nil-safe: an optimizer with no bound registry drops its observations.
type Metrics struct {
	traces  [nOutcomes]*metrics.Counter // outcome: optimized | unchanged | rejected
	removed [nPasses]*metrics.Counter   // pass: constfold | loadelim | deadcode | deadflag
	rejects *metrics.Counter
}

// NewMetrics registers the pcc_guestopt_* families in reg.
func NewMetrics(reg *metrics.Registry) *Metrics {
	traces := reg.CounterVec("pcc_guestopt_traces_total", "traces through the translation-time optimizer by outcome", "outcome")
	removed := reg.CounterVec("pcc_guestopt_removed_insts_total", "instructions eliminated, by the pass that removed them", "pass")
	m := &Metrics{
		traces:  [nOutcomes]*metrics.Counter{traces.With("optimized"), traces.With("unchanged"), traces.With("rejected")},
		rejects: reg.Counter("pcc_guestopt_reject_total", "rewrites refused by the static equivalence checker (trace installed unoptimized)"),
	}
	for p := passConstFold; p < nPasses; p++ {
		m.removed[p] = removed.With(p.String())
	}
	return m
}

// observe records one trace's pass through the optimizer.
func (m *Metrics) observe(out outcome, removedBy *[nPasses]int) {
	if m == nil {
		return
	}
	m.traces[out].Inc()
	if out == outRejected {
		m.rejects.Inc()
	}
	if removedBy != nil {
		for p := passConstFold; p < nPasses; p++ {
			if n := removedBy[p]; n > 0 {
				m.removed[p].Add(uint64(n))
			}
		}
	}
}
