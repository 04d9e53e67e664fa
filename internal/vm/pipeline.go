// Asynchronous translation pipeline: a bounded pool of decode workers that
// speculatively translates predicted successor trace heads while the
// dispatch loop keeps executing, plus load-time bulk prefetch of persistent
// traces and batched accumulate commits of newly translated ones.
//
// Determinism is the design constraint: the repository's virtual-tick model
// must produce bit-identical Stats for the same program and input on every
// machine, yet real goroutines race by nature. The split that reconciles
// the two:
//
//   - Workers perform only the pure part of translation — decoding a
//     memory snapshot taken on the dispatch thread into instructions.
//     Everything order-sensitive (relocation notes, tool instrumentation,
//     code-cache insertion) happens at consume time on the dispatch
//     thread, in dispatch order. Cache contents therefore evolve exactly
//     as in the synchronous path, so every behavioral statistic
//     (dispatches, indirect hits, link patches, analysis results) is
//     invariant; only the tick accounting changes.
//   - Worker time is virtual. Each job is assigned to the virtually
//     least-loaded worker in enqueue order, and its completion tick is
//     computed from the cost model, never from wall-clock scheduling. The
//     wall-clock wait for the real goroutine only gates when the decoded
//     bytes become visible, not what any counter reads.
//
// A consumed job is adopted only when the modeled stall plus the install
// cost undercuts a fresh synchronous translation, so a pipelined run is
// never charged more per miss than a synchronous one.
package vm

import (
	"bytes"
	"sync/atomic"

	"persistcc/internal/isa"
	tracelog "persistcc/internal/metrics/trace"
)

// defaultFlushInterval is the batched-commit flush period in virtual ticks.
// It is a few multiples of a single trace translation, so a crash loses at
// most a short window of new translations while a warm run still performs
// only a handful of accumulate writes instead of one per trace.
const defaultFlushInterval = 2_000_000

// specResult is a worker's decode outcome, published exactly once by
// compare-and-swap; the dispatch thread loads it only after the job's done
// channel closes.
type specResult struct {
	insts []isa.Inst
	ok    bool // decoded a complete trace head (terminator or length limit)
}

// specJob is one speculative translation request.
type specJob struct {
	pc          uint32
	enqueueTick uint64 // virtual clock when the prediction was made
	snap        []byte // code bytes snapshotted on the dispatch thread
	result      atomic.Pointer[specResult]
	done        chan struct{}

	// Virtual schedule, filled in lazily on the dispatch thread.
	scheduled bool
	virtDone  uint64 // tick the modeled worker finishes decoding
	cost      uint64 // modeled decode cost on the worker
}

// Pipeline drives asynchronous translation for a single VM run. Create one
// with NewPipeline, attach it with WithPipeline, and optionally give it a
// commit hook (core.Manager.BatchCommitter) for batched persistence. A
// Pipeline must not be shared between VMs.
type Pipeline struct {
	workers       int
	prefetch      bool
	flushInterval uint64
	commitFn      func([]*Trace) error
	maxQueue      int

	jobs     chan *specJob
	queued   map[uint32]*specJob // pending predictions by trace head
	order    []*specJob          // same jobs, in enqueue order
	inflight int

	// Virtual worker occupancy for speculative decode and prefetch install.
	workerFreeAt []uint64
	preMax       uint64 // makespan high-water of the current prefetch burst

	prefetched []*Trace // installed at load time; seeds exit-profile speculation

	pending    []*Trace // translated since the last flush, commit order
	lastFlush  uint64
	commitCh   chan []*Trace
	commitDone chan struct{}
	commitErrs atomic.Uint64

	started bool
	drained bool
}

// PipelineOption configures a Pipeline.
type PipelineOption func(*Pipeline)

// PipelinePrefetch enables load-time bulk install of persistent traces
// (charged as parallel work across the worker pool) and successor
// speculation seeded from the prefetched traces' recorded exits.
func PipelinePrefetch() PipelineOption { return func(p *Pipeline) { p.prefetch = true } }

// PipelineFlushInterval overrides the batched-commit flush period
// (virtual ticks).
func PipelineFlushInterval(ticks uint64) PipelineOption {
	return func(p *Pipeline) {
		if ticks > 0 {
			p.flushInterval = ticks
		}
	}
}

// NewPipeline returns a pipeline with the given decode-worker count.
func NewPipeline(workers int, opts ...PipelineOption) *Pipeline {
	if workers < 1 {
		workers = 1
	}
	p := &Pipeline{
		workers:       workers,
		flushInterval: defaultFlushInterval,
		maxQueue:      workers * 4,
		queued:        make(map[uint32]*specJob),
		workerFreeAt:  make([]uint64, workers),
	}
	for _, o := range opts {
		o(p)
	}
	// Channel capacity equals the queue bound, so enqueue never blocks the
	// dispatch thread: the inflight counter is the (deterministic) gate.
	p.jobs = make(chan *specJob, p.maxQueue)
	return p
}

// SetCommit installs the batched-commit hook; it must be called before the
// run starts (persistcc wires it after the manager exists).
func (p *Pipeline) SetCommit(fn func([]*Trace) error) {
	if !p.started {
		p.commitFn = fn
	}
}

// begin spawns the worker pool; called by Run after VM start.
func (p *Pipeline) begin(v *VM) {
	if p.started || p.drained {
		return
	}
	p.started = true
	for i := 0; i < p.workers; i++ {
		go p.worker(v.maxTrace)
	}
	if p.commitFn != nil {
		p.commitCh = make(chan []*Trace, 4)
		p.commitDone = make(chan struct{})
		go p.committer()
	}
	p.lastFlush = v.clock
	p.seedFromPrefetch(v)
}

// worker decodes snapshots; the only code that runs off the dispatch thread
// besides the committer.
func (p *Pipeline) worker(maxTrace int) {
	for j := range p.jobs {
		res := decodeSnapshot(j.snap, maxTrace)
		j.result.CompareAndSwap(nil, res)
		close(j.done)
	}
}

// decodeSnapshot mirrors the synchronous translator's fetch/decode loop
// over an immutable byte snapshot: instructions until a terminator or the
// trace-length limit. Running off the end of the snapshot or hitting an
// undecodable word marks the result not-ok; the consumer falls back to
// synchronous translation, which reproduces the baseline behavior
// (including its error) exactly.
func decodeSnapshot(snap []byte, maxTrace int) *specResult {
	var insts []isa.Inst
	for len(insts) < maxTrace {
		off := len(insts) * isa.InstSize
		if off+isa.InstSize > len(snap) {
			return &specResult{insts: insts}
		}
		in, err := isa.Decode(snap[off : off+isa.InstSize])
		if err != nil {
			return &specResult{insts: insts}
		}
		insts = append(insts, in)
		if in.IsTerminator() {
			return &specResult{insts: insts, ok: true}
		}
	}
	return &specResult{insts: insts, ok: true}
}

// enqueue predicts that execution will reach pc and hands its code bytes to
// the worker pool. Runs on the dispatch thread.
func (p *Pipeline) enqueue(v *VM, pc uint32) {
	if !p.started || p.drained {
		return
	}
	if _, ok := v.cache.Lookup(pc); ok {
		return
	}
	if _, ok := p.queued[pc]; ok {
		return
	}
	if p.inflight >= p.maxQueue {
		v.stats.SpecDropped++
		return
	}
	limit := v.maxTrace * isa.InstSize
	snap := make([]byte, 0, limit)
	var buf [isa.InstSize]byte
	for len(snap) < limit {
		if err := v.as.ReadBytes(pc+uint32(len(snap)), buf[:]); err != nil {
			break
		}
		snap = append(snap, buf[:]...)
	}
	if len(snap) == 0 {
		// Unmapped prediction (e.g. a bogus static target): let the real
		// dispatch path discover and report it if it is ever reached.
		return
	}
	j := &specJob{pc: pc, enqueueTick: v.clock, snap: snap, done: make(chan struct{})}
	p.queued[pc] = j
	p.order = append(p.order, j)
	p.inflight++
	if p.inflight > v.stats.PipelineMaxQueue {
		v.stats.PipelineMaxQueue = p.inflight
	}
	v.stats.SpecEnqueued++
	p.jobs <- j
}

// speculate enqueues a trace's statically known successors — the recorded
// exit profile of prefetched traces and the static branch targets of fresh
// ones. Indirect exits have no static target; halt exits no successor.
func (p *Pipeline) speculate(v *VM, t *Trace) {
	for _, e := range t.Exits {
		if e.Kind == ExitIndirect || e.Kind == ExitHalt {
			continue
		}
		p.enqueue(v, e.Target)
	}
}

// seedFromPrefetch turns the bulk-installed traces' exits into the initial
// speculation wave: successors the previous execution knew about but which
// are not in the cache yet (e.g. invalidated by a moved module) start
// decoding before the interpreter first touches them.
func (p *Pipeline) seedFromPrefetch(v *VM) {
	for _, t := range p.prefetched {
		p.speculate(v, t)
	}
	p.prefetched = nil
}

// scheduleOne assigns j to the virtually least-loaded worker. Jobs are
// scheduled strictly in enqueue order (callers guarantee the prefix is
// already scheduled), which makes every virtDone independent of wall-clock
// interleaving. The wait on done only orders memory: the decode result is
// needed to price the job.
func (p *Pipeline) scheduleOne(v *VM, j *specJob) {
	<-j.done
	res := j.result.Load()
	n := uint64(len(res.insts))
	j.cost = v.cost.TransFixed + (v.cost.TransFetch+v.cost.TransPerInst)*n
	w := 0
	for i := 1; i < p.workers; i++ {
		if p.workerFreeAt[i] < p.workerFreeAt[w] {
			w = i
		}
	}
	start := j.enqueueTick
	if p.workerFreeAt[w] > start {
		start = p.workerFreeAt[w]
	}
	p.workerFreeAt[w] = start + j.cost
	j.virtDone = p.workerFreeAt[w]
	j.scheduled = true
}

// scheduleThrough schedules every unscheduled job up to and including
// target, preserving enqueue order.
func (p *Pipeline) scheduleThrough(v *VM, target *specJob) {
	for _, j := range p.order {
		if !j.scheduled {
			p.scheduleOne(v, j)
		}
		if j == target {
			return
		}
	}
}

// remove drops a consumed job from the queue bookkeeping.
func (p *Pipeline) remove(target *specJob) {
	delete(p.queued, target.pc)
	for i, j := range p.order {
		if j == target {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	p.inflight--
}

// adopt tries to satisfy a translation-map miss from the speculative queue.
// It returns nil when no usable job exists and the caller must translate
// synchronously. Runs on the dispatch thread.
func (p *Pipeline) adopt(v *VM, pc uint32) *Trace {
	j := p.queued[pc]
	if j == nil {
		return nil
	}
	p.scheduleThrough(v, j)
	p.remove(j)
	res := j.result.Load()
	if !res.ok || len(res.insts) == 0 {
		v.stats.SpecWasted++
		v.stats.SpecWastedTicks += j.cost
		return nil
	}
	// The snapshot may be stale (self-modifying or generated code since the
	// prediction): re-verify against current memory before installing.
	n := len(res.insts) * isa.InstSize
	cur := make([]byte, n)
	if err := v.as.ReadBytes(pc, cur); err != nil || !bytes.Equal(cur, j.snap[:n]) {
		v.stats.SpecWasted++
		v.stats.SpecWastedTicks += j.cost
		return nil
	}
	// Adopt only when waiting out the worker plus the install undercuts a
	// fresh synchronous translation; the comparison excludes the per-op
	// instrumentation cost, which both paths pay identically.
	var stall uint64
	if j.virtDone > v.clock {
		stall = j.virtDone - v.clock
	}
	if stall+v.cost.PersistInstall >= j.cost {
		v.stats.SpecWasted++
		v.stats.SpecWastedTicks += j.cost
		return nil
	}

	t := &Trace{Start: pc, Module: -1, Insts: res.insts}
	if v.proc != nil {
		if mi := v.proc.ModuleAt(pc); mi >= 0 {
			t.Module = int32(mi)
			t.ModOff = pc - v.proc.Modules[mi].Base
		}
	}
	v.prepareTrace(t)

	v.clock += stall
	v.stats.SpecStallTicks += stall
	if v.opt != nil {
		// Optimization happened at consume time (inside prepareTrace), on
		// the dispatch thread: charge it as translation work, exactly as
		// the synchronous path does.
		optCost := v.cost.OptPerInst * uint64(t.OrigInsts())
		v.clock += optCost
		v.stats.TransTicks += optCost
	}
	install := v.cost.PersistInstall + v.cost.TransPerOp*uint64(len(t.Ops))
	v.clock += install
	v.stats.SpecInstallTicks += install
	v.stats.SpecOffloadTicks += j.cost
	v.stats.SpecTranslated++
	v.stats.TracesTranslated++
	v.stats.InstsTranslated += uint64(t.OrigInsts())
	if v.recordTimeline {
		v.stats.Timeline = append(v.stats.Timeline, TransEvent{Tick: v.clock, PC: pc, Insts: len(t.Insts)})
	}
	v.events.Record(tracelog.Event{
		Kind: tracelog.KindTranslate, Tick: v.clock, PC: pc, Insts: len(t.Insts),
		Detail: "speculative",
	})
	v.recordCoverage(t)
	v.installTrace(t)
	return t
}

// resolveMiss is the pipeline's dispatch-miss path: adopt a speculatively
// decoded trace or translate synchronously, then record the new trace for
// the next batched commit and seed successor speculation from its exits.
func (p *Pipeline) resolveMiss(v *VM, pc uint32) (*Trace, error) {
	t := p.adopt(v, pc)
	if t == nil {
		var err error
		t, err = v.translate(pc)
		if err != nil {
			return nil, err
		}
	}
	p.noteTranslated(t)
	p.speculate(v, t)
	p.maybeFlush(v)
	return t, nil
}

// prefetchInstall bulk-installs one persistent trace at load time, charging
// its install cost as parallel work spread across the worker pool: a burst
// of N installs over W workers advances the clock by the makespan
// ceil(N/W)·PersistInstall instead of N·PersistInstall.
func (p *Pipeline) prefetchInstall(v *VM, t *Trace) {
	t.Persisted = true
	if v.cache.WouldOverflow(t) {
		v.cache.Flush()
		v.stats.Flushes++
	}
	v.cache.Insert(t)
	// A new burst starts whenever the clock has moved past the previous
	// burst's makespan (e.g. a second cache file primed later in startup).
	if v.clock > p.preMax {
		for i := range p.workerFreeAt {
			if p.workerFreeAt[i] < v.clock {
				p.workerFreeAt[i] = v.clock
			}
		}
		p.preMax = v.clock
	}
	w := 0
	for i := 1; i < p.workers; i++ {
		if p.workerFreeAt[i] < p.workerFreeAt[w] {
			w = i
		}
	}
	p.workerFreeAt[w] += v.cost.PersistInstall
	if p.workerFreeAt[w] > p.preMax {
		delta := p.workerFreeAt[w] - p.preMax
		v.clock += delta
		v.stats.PersistTicks += delta
		p.preMax = p.workerFreeAt[w]
	}
	v.stats.TracesReused++
	v.stats.PrefetchInstalls++
	p.prefetched = append(p.prefetched, t)
	v.events.Record(tracelog.Event{
		Kind: tracelog.KindInstall, Tick: v.clock, PC: t.Start, Insts: len(t.Insts),
		Detail: "prefetch",
	})
}

// noteTranslated queues a freshly translated trace for the next batched
// commit. Only called when a commit hook is attached.
func (p *Pipeline) noteTranslated(t *Trace) {
	if p.commitFn == nil {
		return
	}
	p.pending = append(p.pending, t)
}

// maybeFlush hands the accumulated batch to the committer once a flush
// interval has elapsed on the virtual clock.
func (p *Pipeline) maybeFlush(v *VM) {
	if p.commitFn == nil || len(p.pending) == 0 {
		return
	}
	if v.clock-p.lastFlush < p.flushInterval {
		return
	}
	p.flush(v)
}

func (p *Pipeline) flush(v *VM) {
	batch := p.pending
	p.pending = nil
	p.lastFlush = v.clock
	v.stats.BatchCommits++
	v.stats.BatchTraces += uint64(len(batch))
	v.events.Record(tracelog.Event{
		Kind: tracelog.KindCommit, Tick: v.clock, Traces: len(batch), Detail: "batch",
	})
	p.commitCh <- batch
}

// committer runs the commit hook off the dispatch thread; one batch at a
// time, in flush order. Errors are counted, not fatal: the final full
// commit at run end writes everything regardless.
func (p *Pipeline) committer() {
	for batch := range p.commitCh {
		if err := p.commitFn(batch); err != nil {
			p.commitErrs.Add(1)
		}
	}
	close(p.commitDone)
}

// drain finalizes the pipeline at normal run completion (called from
// finish on the dispatch thread): prices every unconsumed prediction as
// waste, flushes the last batch, and waits for the background goroutines.
func (p *Pipeline) drain(v *VM) {
	if p.drained {
		return
	}
	p.drained = true
	if !p.started {
		return
	}
	for _, j := range p.order {
		if !j.scheduled {
			p.scheduleOne(v, j)
		}
		v.stats.SpecWasted++
		v.stats.SpecWastedTicks += j.cost
		delete(p.queued, j.pc)
	}
	p.order = nil
	p.inflight = 0
	close(p.jobs)
	if p.commitFn != nil {
		if len(p.pending) > 0 {
			p.flush(v)
		}
		close(p.commitCh)
		<-p.commitDone
		v.stats.BatchErrors += p.commitErrs.Load()
	}
}

// Shutdown releases the pipeline's goroutines without touching the VM's
// accounting — the cleanup hook for error paths where the run never
// finished. Idempotent, and a no-op after a normal drain.
func (p *Pipeline) Shutdown() {
	if p.drained {
		return
	}
	p.drained = true
	if !p.started {
		return
	}
	close(p.jobs)
	if p.commitFn != nil {
		close(p.commitCh)
		<-p.commitDone
	}
}
