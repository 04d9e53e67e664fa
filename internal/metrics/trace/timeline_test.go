package trace_test

import (
	"errors"
	"testing"

	"persistcc/internal/core"
	"persistcc/internal/loader"
	tracelog "persistcc/internal/metrics/trace"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

// The virtual ticks of 176.gcc's first Train input, cold (commit included)
// and warm, when this test was written. Ticks are deterministic on every
// machine; a run may cost at most tickSlack times as much.
const (
	gccColdTicks = 36_394_276
	gccWarmTicks = 7_594_756
	tickSlack    = 1.25
)

// TestTimelineAgreesWithVMCounters records a cold 176.gcc run (every trace
// a translate event, then one commit) and a warm run of the same input
// (every reused trace an install event, after one prime) into event logs.
// The logs must agree exactly with the VM's own counters: a drifting log
// would lie in every timeline built from it.
func TestTimelineAgreesWithVMCounters(t *testing.T) {
	gcc, err := workload.BuildSpecBenchmark("176.gcc")
	if err != nil {
		t.Fatal(err)
	}
	mgr := testutil.NewMgr(t)
	in := gcc.Train[0]
	launch := func(warm bool) (*vm.Result, *tracelog.Log) {
		t.Helper()
		log := tracelog.NewLog(0)
		v, err := gcc.Prog.NewVM(loader.Config{}, in, vm.WithEventLog(log))
		if err != nil {
			t.Fatal(err)
		}
		if warm {
			if _, err := mgr.Prime(v); err != nil && !errors.Is(err, core.ErrNoCache) {
				t.Fatal(err)
			}
		}
		res, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !warm {
			crep, err := mgr.Commit(v)
			if err != nil {
				t.Fatal(err)
			}
			res.Stats.Ticks += crep.Ticks
		}
		return res, log
	}
	count := func(l *tracelog.Log, kind string) int {
		n := 0
		for _, e := range l.Events() {
			if e.Kind == kind {
				n++
			}
		}
		return n
	}

	cold, coldLog := launch(false)
	warm, warmLog := launch(true)
	if n := count(coldLog, tracelog.KindTranslate); uint64(n) != cold.Stats.TracesTranslated {
		t.Errorf("cold translate events %d != traces translated %d", n, cold.Stats.TracesTranslated)
	}
	if n := count(coldLog, tracelog.KindCommit); n != 1 {
		t.Errorf("cold run logged %d commits, want 1", n)
	}
	if n := count(warmLog, tracelog.KindInstall); n == 0 || uint64(n) != warm.Stats.TracesReused {
		t.Errorf("warm install events %d != traces reused %d", n, warm.Stats.TracesReused)
	}
	if n := count(warmLog, tracelog.KindTranslate); n != 0 {
		t.Errorf("warm run logged %d translate events, want 0", n)
	}
	if n := count(warmLog, tracelog.KindPrime); n != 1 {
		t.Errorf("warm run logged %d primes, want 1", n)
	}
	if cold.Stats.Ticks > tickSlack*gccColdTicks {
		t.Errorf("cold run %d ticks, want <= %.2fx %d", cold.Stats.Ticks, tickSlack, gccColdTicks)
	}
	if warm.Stats.Ticks > tickSlack*gccWarmTicks {
		t.Errorf("warm run %d ticks, want <= %.2fx %d", warm.Stats.Ticks, tickSlack, gccWarmTicks)
	}
	t.Logf("cold %d ticks, warm %d ticks", cold.Stats.Ticks, warm.Stats.Ticks)
}
