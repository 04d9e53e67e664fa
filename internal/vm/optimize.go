package vm

import "persistcc/internal/metrics"

// Optimizer is the translation-time optimization seam. An implementation
// (internal/guestopt) receives a freshly decoded trace after its static
// metadata and relocation notes exist but before tool instrumentation, and
// may rewrite Insts in place — setting OptLevel, OrigLen and SrcIdx so
// every pc-dependent semantic stays anchored to original fetch addresses.
//
// The contract is strict: an implementation must prove each rewrite
// equivalent (guestopt runs an independent symbolic checker) and report a
// rejected rewrite through OptOutcome.Rejected, leaving the trace in its
// unoptimized form. The VM never re-optimizes persisted traces; an
// optimized trace round-trips through the persistence layer as-is.
type Optimizer interface {
	Optimize(t *Trace) OptOutcome
}

// OptOutcome is one trace's pass through the optimizer.
type OptOutcome struct {
	Level    uint8 // optimization level applied; 0 = trace unchanged
	Removed  int   // instructions eliminated from the trace
	Rejected bool  // the equivalence checker refused the rewrite
}

// Signaturer is implemented by optimizers whose configuration changes the
// generated code. The signature becomes persistence key material: a cache
// of optimized traces must not prime a VM running different passes.
type Signaturer interface {
	Signature() string
}

// OptSignature returns the attached optimizer's configuration signature,
// "opt" for an optimizer that does not implement Signaturer, and "" when no
// optimizer is attached (the baseline key, unchanged from prior versions).
func (v *VM) OptSignature() string {
	if s, ok := v.opt.(Signaturer); ok {
		return s.Signature()
	}
	if v.opt != nil {
		return "opt"
	}
	return ""
}

// metricBinder is implemented by optimizers that export their own metric
// families (guestopt registers pcc_guestopt_*); the VM binds its registry
// at construction so a shared registry sees them.
type metricBinder interface {
	BindMetrics(*metrics.Registry)
}

// WithOptimizer attaches a translation-time optimizer. Optimized traces
// execute fewer instructions for the same architectural effect; the
// persistence layer stores the optimized form, so warm runs start both
// pre-translated and pre-optimized.
func WithOptimizer(o Optimizer) Option { return func(v *VM) { v.opt = o } }

// optimizeTrace runs the attached optimizer over a freshly decoded trace
// and folds the outcome into the run's accounting. Called by prepareTrace.
func (v *VM) optimizeTrace(t *Trace) {
	out := v.opt.Optimize(t)
	switch {
	case out.Rejected:
		v.stats.OptRejects++
	case out.Level > 0:
		v.stats.TracesOptimized++
		v.stats.OptInstsRemoved += uint64(out.Removed)
		// The rewrite changed Insts (and SrcIdx/OrigLen): re-derive exits
		// for the optimized sequence.
		t.RecomputeStatic()
	}
}
