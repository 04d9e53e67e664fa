package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"persistcc/internal/workload"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestAggregators(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean = %v, want 10", got)
	}

	// Per-program medians: slot 1's outlier must not leak into slot 0, and
	// the geometric mean weighs both programs the same.
	ops := []opResult{
		{slot: 0, wall: 2 * time.Millisecond}, {slot: 1, wall: 50 * time.Millisecond},
		{slot: 0, wall: 2 * time.Millisecond}, {slot: 1, wall: 900 * time.Millisecond},
		{slot: 0, wall: 4 * time.Millisecond}, {slot: 1, wall: 50 * time.Millisecond},
	}
	meds := perSlotMedians(ops, 2)
	if len(meds) != 2 || !near(meds[0], 2) || !near(meds[1], 50) {
		t.Errorf("perSlotMedians = %v, want [2 50]", meds)
	}
	if got := geomean(meds); !near(got, 10) {
		t.Errorf("launch_ms of the sample = %v, want 10", got)
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		pct, val float64
	}{
		{10, 100, 10},   // too few for any percentile: the maximum
		{19, 100, 19},   // p50 would leave only 9 beyond it
		{20, 50, 10},    // exactly ten beyond the median
		{100, 90, 90},   // ten beyond p90, five beyond p95
		{1000, 99, 990}, // ten beyond p99, one beyond p99.9
		{10000, 99.9, 9990},
	} {
		pct, val := tail(seq(c.n))
		if pct != c.pct || val != c.val {
			t.Errorf("tail of 1..%d = p%v %v, want p%v %v", c.n, pct, val, c.pct, c.val)
		}
	}
}

func TestSelfTime(t *testing.T) {
	// An op of 100 with children covering [10,30] and [20,50] (overlapping,
	// counted once), one child sticking out past the parent's end, and a
	// grandchild that only reduces its own parent.
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},
		{ID: 4, Parent: 1, Name: "a.inner", Start: 12, End: 17},
	}
	want := map[string]int64{"op": 100 - 40 - 10, "a": 20 - 5, "b": 30, "c": 30, "a.inner": 5}
	got := selfTimes(spans)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

// miniWarm is gui-warm in miniature: the same options, database kind,
// seeding and invariants over one small program, so a set-up plus a round
// costs milliseconds instead of the seconds five cold store commits take.
func miniWarm(t *testing.T) *workloadSpec {
	prog, err := workload.BuildProgram(workload.ProgSpec{
		Name: "mini", Seed: 7, Regions: []workload.RegionSpec{{Funcs: 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := workload.Input{Name: "mini.startup", Units: []workload.Unit{{Entry: 0, Iters: 3}}}
	return &workloadSpec{
		name: "mini-warm", clients: 1, db: dbPerSlot, seeded: true, base: storeOpts, warm: true,
		slots: func() ([]slot, error) {
			return []slot{{name: "mini", prog: prog, in: in, loader: guiLoader}}, nil
		},
	}
}

// Two independent set-ups of a warm workload, each with a fresh store,
// must agree bit for bit on the virtual clock and the database size, and
// the decomposed op must reproduce the facade's vm.Stats.
func TestWarmRoundIsDeterministic(t *testing.T) {
	w := miniWarm(t)
	var ticks []float64
	var kb []float64
	for i := 0; i < 2; i++ {
		st, err := setup(w, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		m := measureTraced(newRunner(st, 1), 0)
		if len(m.failures) > 0 {
			t.Fatalf("failures: %v", m.failures)
		}
		if len(m.ops) == 0 || len(m.traced) < 2 {
			t.Fatalf("traced run made %d facade and %d decomposed ops", len(m.ops), len(m.traced))
		}
		e2e := endToEndMetrics(m, len(st.slots), w.clients, 0)
		ticks, kb = append(ticks, e2e["vticks_per_op"]), append(kb, m.dbKB)
		st.close()
	}
	if ticks[0] != ticks[1] || ticks[0] == 0 {
		t.Errorf("vticks_per_op differs between two fresh stores: %v", ticks)
	}
	if kb[0] != kb[1] || kb[0] == 0 {
		t.Errorf("db_kb differs between two fresh stores: %v", kb)
	}
}

// The checked-in BENCHMARK.json is the tables of spec.go, and the tables
// stay inside the limits of the driver's contract.
func TestBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json is stale: regenerate with `go run ./bench -spec > BENCHMARK.json`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	better := map[string]bool{"higher": true, "lower": true}

	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	isWorkload := map[string]bool{"*": true}
	for _, w := range workloadDefs {
		use(w.Name)
		isWorkload[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %s is declared but not runnable", w.Name)
		}
	}
	if len(workloads) != len(workloadDefs) {
		t.Errorf("%d runnable workloads, %d declared", len(workloads), len(workloadDefs))
	}

	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	isEndToEnd := make(map[string]bool)
	for _, e := range endToEnd {
		use(e.Name)
		isEndToEnd[e.Name] = true
		if !unit.MatchString(e.Unit) || !better[e.Better] || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", e)
		}
	}
	if !isEndToEnd["setup_s"] {
		t.Error("setup_s is missing from the end-to-end metrics")
	}

	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, l := range perLayer {
		use(l.Name)
		if !unit.MatchString(l.Unit) || !better[l.Better] {
			t.Errorf("per-layer metric %+v is outside the contract", l)
		}
		if !isEndToEnd[l.Metric] {
			t.Errorf("%s should move %q, which is not an end-to-end metric", l.Name, l.Metric)
		}
		if len(l.On) == 0 {
			t.Errorf("%s names no workload it should move", l.Name)
		}
		for _, w := range l.On {
			if !isWorkload[w] {
				t.Errorf("%s should move %s on %q, which is not a workload", l.Name, l.Metric, w)
			}
		}
	}
}
