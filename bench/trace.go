package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"time"

	"persistcc"
	"persistcc/internal/cacheserver"
	"persistcc/internal/cacheserver/fleet"
	"persistcc/internal/core"
	"persistcc/internal/guestopt"
	"persistcc/internal/loader"
	"persistcc/internal/metrics"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

// Span names: one per call persistcc.Run makes into a layer, plus the op
// itself. Everything the facade does between those calls (option plumbing,
// pipeline and fleet-client construction) is the op's self time.
const (
	spanOp     = "persistcc.op"
	spanLoad   = "loader.load"
	spanNew    = "vm.new"
	spanOpen   = "core.open"
	spanPrime  = "core.prime"
	spanRun    = "vm.run"
	spanCommit = "core.commit"
)

// span is one timed interval: times are nanoseconds since the tracer
// started, Parent is the ID of the span that caused it (-1 for an op), and
// spans of one op share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Two fleet-warm clients
// record concurrently, hence the lock.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// launchTraced is persistcc.Run taken apart in the benchmark's own code:
// the same calls in the same order for the options the workloads use
// (Input, Loader, Optimize, Persist, InterApp, StoreFormat, FleetConfig,
// Prefetch), with a span around each call into a layer. The runner asserts
// that it yields the same vm.Stats as the facade for the same slot, so the
// per-layer numbers describe the op the end-to-end numbers time. reg
// collects the manager's pcc_core_*/pcc_store_* counters.
func launchTraced(tr *tracer, op int, prog *workload.Program, o persistcc.RunOptions, reg *metrics.Registry) (*persistcc.RunOutcome, error) {
	root := tr.begin(spanOp, -1, op)
	defer tr.end(root)
	timed := func(name string, f func()) {
		id := tr.begin(name, root, op)
		f()
		tr.end(id)
	}

	var proc *loader.Process
	var err error
	timed(spanLoad, func() { proc, err = prog.Load(o.Loader) })
	if err != nil {
		return nil, err
	}

	opts := []vm.Option{vm.WithInput(o.Input)}
	if o.Optimize {
		opts = append(opts, vm.WithOptimizer(guestopt.New(guestopt.All())))
	}
	var pipe *vm.Pipeline
	if o.Prefetch {
		pipe = vm.NewPipeline(1, vm.PipelinePrefetch())
		opts = append(opts, vm.WithPipeline(pipe))
		defer pipe.Shutdown()
	}
	var v *vm.VM
	timed(spanNew, func() { v = vm.New(proc, opts...) })

	out := &persistcc.RunOutcome{}
	var mgr cacheserver.Manager
	if o.Persist {
		mopts := []core.ManagerOption{core.WithMetrics(reg)}
		if o.StoreFormat {
			mopts = append(mopts, core.WithStore())
		}
		var local *core.Manager
		timed(spanOpen, func() { local, err = core.NewManager(o.CacheDir, mopts...) })
		if err != nil {
			return nil, err
		}
		mgr = local
		var fb *cacheserver.Fallback
		if o.FleetConfig != nil {
			fc, err := fleet.New(o.FleetConfig)
			if err != nil {
				return nil, err
			}
			defer fc.Close()
			fb = cacheserver.NewFallback(fc, local)
			mgr = fb
		}
		if pipe != nil {
			pipe.SetCommit(local.BatchCommitter(v))
		}
		var rep *core.PrimeReport
		timed(spanPrime, func() {
			if fb != nil && o.Prefetch {
				rep, err = fb.PrimeStoreBulk(v, o.InterApp)
				return
			}
			rep, err = mgr.Prime(v)
			if errors.Is(err, core.ErrNoCache) && o.InterApp {
				rep, err = mgr.PrimeInterApp(v)
			}
		})
		if err != nil && !errors.Is(err, core.ErrNoCache) {
			return nil, err
		}
		out.Prime = rep
	}

	timed(spanRun, func() { out.Result, err = v.Run() })
	if err != nil {
		return nil, err
	}
	if mgr != nil {
		var crep *core.CommitReport
		timed(spanCommit, func() { crep, err = mgr.Commit(v) })
		if err != nil {
			return nil, err
		}
		out.Commit = crep
		out.Result.Stats.PersistTicks += crep.Ticks
		out.Result.Stats.Ticks += crep.Ticks
	}
	return out, nil
}
