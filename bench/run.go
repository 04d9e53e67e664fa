package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"time"

	"persistcc"
	"persistcc/internal/metrics"
	"persistcc/internal/vm"
)

// opResult is one launch: which slot, how long persistcc.Run (or its traced
// decomposition) took on the host clock, what it cost on the virtual one,
// and why it failed if it did.
type opResult struct {
	slot   int
	round  int
	wall   time.Duration
	stats  vm.Stats
	prime  *persistcc.PrimeReport
	commit *persistcc.CommitReport
	dbKB   float64 // size of the op's own database, when it had one
	fail   string
}

// runner launches rounds of one workload against one set-up state.
type runner struct {
	st    *state
	order []int             // slot order within a round, fixed by the seed
	tr    *tracer           // non-nil while a traced round runs
	reg   *metrics.Registry // collects manager/store counters of traced ops
	ops   int               // op ids for spans
	mu    sync.Mutex
}

func newRunner(st *state, seed int64) *runner {
	return &runner{
		st:    st,
		order: launchOrder(st.slots, seed),
		reg:   metrics.NewRegistry(),
	}
}

// round launches every slot once, in seed order, from the workload's
// closed-loop clients: a client starts its next op only when its previous
// one has returned. Directory creation, result checks and clean-up sit
// outside each op's timed interval. roundKB is the size of the round's
// shared database for dbPerRound workloads. A non-zero deadline stops the
// round early: slots not yet started when it passes are skipped.
func (r *runner) round(n int, traced bool, deadline time.Time) (ops []opResult, roundKB float64) {
	w := r.st.w
	roundDir := ""
	if w.db == dbPerRound {
		roundDir = r.st.freshDir("round")
		defer os.RemoveAll(roundDir)
	}
	// Every round starts from a collected heap, so garbage left by the
	// previous round is not charged to this one's first ops.
	runtime.GC()

	ops = make([]opResult, len(r.order))
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				ops[k] = r.op(r.order[k], n, roundDir, traced)
			}
		}()
	}
	for k := range r.order {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		next <- k
	}
	close(next)
	wg.Wait()
	if roundDir != "" {
		roundKB = float64(dirBytes(roundDir)) / 1024
	}
	return ops, roundKB
}

func (r *runner) op(i, round int, roundDir string, traced bool) opResult {
	s := &r.st.slots[i]
	res := opResult{slot: i, round: round}
	dir, done := r.st.opDir(i, roundDir)
	defer done()
	o := r.st.options(i, dir)

	var out *persistcc.RunOutcome
	var err error
	if traced {
		r.mu.Lock()
		r.ops++
		id := r.ops
		r.mu.Unlock()
		t0 := time.Now()
		out, err = launchTraced(r.tr, id, s.prog, o, r.reg)
		res.wall = time.Since(t0)
	} else {
		t0 := time.Now()
		out, err = persistcc.Run(s.prog.Exe, s.prog.Libs, o)
		res.wall = time.Since(t0)
	}
	if err != nil {
		res.fail = err.Error()
		return res
	}
	res.stats, res.prime, res.commit = out.Stats, out.Prime, out.Commit
	if r.st.w.db == dbPerOp {
		res.dbKB = float64(dirBytes(dir)) / 1024
	}
	if res.fail = s.matches(out); res.fail == "" {
		res.fail = r.st.w.invariant(out)
	}
	return res
}

// sameStats reports whether two ops of one slot agree on everything the
// virtual clock and the event counters say.
func sameStats(a, b *opResult) bool { return reflect.DeepEqual(a.stats, b.stats) }

// measured is everything one run of one workload yields before it is
// turned into named metrics.
type measured struct {
	ops      []opResult // timed facade ops
	traced   []opResult // timed decomposed ops (traced run only)
	rounds   int
	allocB   uint64 // heap bytes allocated across the timed facade rounds
	dbKB     float64
	failures []string
}

func (m *measured) failf(format string, args ...any) {
	m.failures = append(m.failures, fmt.Sprintf(format, args...))
}

// check records the ops of a round that failed on their own, or whose
// virtual clock differs from the same slot of the first timed round.
func (m *measured) check(r *runner, first, ops []opResult) {
	for k := range ops {
		op := &ops[k]
		name := r.st.slots[op.slot].name
		if op.fail != "" {
			m.failf("round %d %s: %s", op.round, name, op.fail)
		} else if first[k].fail == "" && op.stats.Ticks != first[k].stats.Ticks {
			op.fail = fmt.Sprintf("%d virtual ticks, %d in the first timed round", op.stats.Ticks, first[k].stats.Ticks)
			m.failf("round %d %s: %s", op.round, name, op.fail)
		}
	}
}

func (m *measured) failed() int {
	n := 0
	for _, ops := range [][]opResult{m.ops, m.traced} {
		for i := range ops {
			if ops[i].fail != "" {
				n++
			}
		}
	}
	return n
}

// warmupCap bounds the untimed warm-up round. Set-up has already run every
// slot through the interpreter (and launched it once on seeded workloads),
// so the round only has to bring the launch path and the heap to steady
// state; on the workloads whose round takes many seconds a full one would
// cost more than the window.
const warmupCap = time.Second

// measure is the untraced run: one untimed warm-up round (cut off at
// warmupCap), then whole rounds until the window has elapsed (never fewer
// than two).
func measure(r *runner, window time.Duration) *measured {
	m := &measured{}
	r.round(0, false, time.Now().Add(warmupCap))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var first, last []opResult
	var lastKB float64
	for n := 1; n <= 2 || time.Since(start) < window; n++ {
		last, lastKB = r.round(n, false, time.Time{})
		if first == nil {
			first = last
		}
		m.check(r, first, last)
		m.ops = append(m.ops, last...)
		m.rounds++
	}
	runtime.ReadMemStats(&m1)
	m.allocB = m1.TotalAlloc - m0.TotalAlloc
	m.dbKB = lastKB + r.st.persistentKB()
	for i := range last {
		m.dbKB += last[i].dbKB
	}
	return m
}

// measureTraced is the traced run: decomposed rounds and facade rounds
// alternate, a decomposed one first and last, until half the window has
// elapsed (never fewer than two decomposed rounds), so the overhead of
// tracing is the difference between two sets of ops taken under the same
// conditions. Every decomposed op must report the vm.Stats of the facade op
// of the same slot in the round that follows.
func measureTraced(r *runner, window time.Duration) *measured {
	m := &measured{}
	r.tr = newTracer()
	start := time.Now()
	var first, firstTraced []opResult
	for n := 1; ; n++ {
		traced, kb := r.round(n, true, time.Time{})
		if firstTraced == nil {
			firstTraced = traced
		}
		m.check(r, firstTraced, traced)
		m.traced = append(m.traced, traced...)
		m.rounds++
		m.dbKB = kb + r.st.persistentKB()
		for i := range traced {
			m.dbKB += traced[i].dbKB
		}
		if n >= 2 && time.Since(start) >= window/2 {
			return m
		}
		plain, _ := r.round(n, false, time.Time{})
		if first == nil {
			first = plain
		}
		m.check(r, first, plain)
		for k := range traced {
			if plain[k].fail == "" && traced[k].fail == "" && !sameStats(&plain[k], &traced[k]) {
				traced[k].fail = "decomposed op's vm.Stats differ from the facade op's"
				m.failf("round %d %s: %s", n, r.st.slots[traced[k].slot].name, traced[k].fail)
			}
		}
		m.ops = append(m.ops, plain...)
	}
}
