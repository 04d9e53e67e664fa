// Command bench is the repository's host-clock benchmark: seven launch
// workloads timed end to end through the persistcc.Run facade, and a traced
// run that takes the same op apart layer by layer. See README.md.
//
//	go run ./bench                          every workload, end-to-end metrics
//	go run ./bench -trace 1                 every workload, per-layer metrics
//	go run ./bench -repeat 2                two sets, fails if they disagree
//	go run ./bench -workload gui-warm -seed 7 -seconds 6 -trace 0
//
// The last form is what the PR driver runs; its final stdout line is one
// JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// An untraced run sets up repeatedly and reports the median as setup_s: at
// least setupRepeats times and for setupFloor, so the set-ups that take
// milliseconds are sampled often enough to be steady, but not again once
// setupBudget has gone into set-up, because the ones that take seconds
// (seeding five cold store commits, or publishing them to three shards)
// would otherwise cost more than the measuring window.
const (
	setupRepeats = 3
	setupFloor   = 1 * time.Second
	setupBudget  = 3 * time.Second
)

// moreSetups says whether to set up again after done set-ups took spent.
func moreSetups(done int, spent time.Duration) bool {
	return spent < setupBudget && (done < setupRepeats || spent < setupFloor)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the last stdout line of a run: exactly the keys the PR
// driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is one run of one workload as written to the result file, which
// the all-workloads tables and -repeat read.
type result struct {
	driverLine
	Workload string             `json:"workload"`
	Extra    map[string]float64 `json:"extra,omitempty"` // db_kb, failed_share on untraced runs
	Failures []string           `json:"failures,omitempty"`
}

type config struct {
	seed    int64
	window  time.Duration
	trace   bool
	workdir string
	out     string
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in this process (default: all, one child process each)")
		seed    = flag.Int64("seed", 1, "fixes the launch order within a round")
		seconds = flag.Int("seconds", runSeconds, "measuring window per workload")
		trace   = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
		repeat  = flag.Int("repeat", 1, "run the whole set this many times and fail if the sets disagree")
		workdir = flag.String("workdir", filepath.Join("bench", "out", "work"), "where databases live (a real disk: fsync is a cost users pay)")
		out     = flag.String("out", filepath.Join("bench", "out"), "where span files and result files go")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace != 0}
	var err error
	if cfg.workdir, err = filepath.Abs(*workdir); err == nil {
		cfg.out, err = filepath.Abs(*out)
	}
	if err == nil {
		if *name != "" {
			err = runOne(*name, cfg)
		} else {
			err = runAll(cfg, *repeat)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func header(cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# seed=%d window=%s trace=%t commit=%s %s nproc=%d GOMAXPROCS=%d workdir=%s (%s)\n",
		cfg.seed, cfg.window, cfg.trace, commit, runtime.Version(), runtime.NumCPU(),
		runtime.GOMAXPROCS(0), cfg.workdir, fsType(cfg.workdir))
}

// runOne runs one workload in this process and prints its result line.
func runOne(name string, cfg config) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	header(cfg)

	// A traced run does not report setup_s and sets up once.
	var st *state
	var setups []float64
	for i, begun := 0, time.Now(); i == 0 || (!cfg.trace && moreSetups(i, time.Since(begun))); i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = setup(w, cfg.workdir); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()

	r := newRunner(st, cfg.seed)
	res := &result{Workload: name}
	res.Metrics = make(map[string]metricValue)
	var m *measured
	if cfg.trace {
		m = measureTraced(r, cfg.window)
		if err := r.tr.write(filepath.Join(cfg.out, "trace-"+name+".json")); err != nil {
			return err
		}
		probes, err := runProbes(cfg.workdir)
		if err != nil {
			return err
		}
		values := layerMetrics(m, r, probes)
		for _, l := range perLayer {
			res.Metrics[l.Name] = metricValue{values[l.Name], l.Unit}
		}
		printSpans(m, r)
	} else {
		m = measure(r, cfg.window)
		values := endToEndMetrics(m, len(st.slots), w.clients, median(setups))
		for _, e := range endToEnd {
			res.Metrics[e.Name] = metricValue{values[e.Name], e.Unit}
		}
	}
	res.Attempted = len(m.ops) + len(m.traced)
	res.Failed = m.failed()
	res.Correct = res.Failed == 0
	res.Failures = m.failures
	if !cfg.trace {
		res.Extra = map[string]float64{"db_kb": m.dbKB, "failed_share": float64(res.Failed) / float64(res.Attempted)}
	}

	printSlots(m, r)
	for _, f := range m.failures {
		fmt.Println("FAILED", f)
	}
	printMetrics(res)
	if err := writeJSON(resultPath(cfg, name), res); err != nil {
		return err
	}
	line, err := json.Marshal(res.driverLine)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func resultPath(cfg config, name string) string {
	kind := "e2e"
	if cfg.trace {
		kind = "layers"
	}
	return filepath.Join(cfg.out, fmt.Sprintf("result-%s-%s.json", name, kind))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printSlots prints one row per program: medians of a mixed population jump
// between modes, so launch_ms is a geometric mean of these.
func printSlots(m *measured, r *runner) {
	fmt.Printf("%-22s %6s %12s %12s %14s\n", "program", "ops", "median_ms", "max_ms", "vticks")
	walls := make(map[int][]float64)
	ticks := make(map[int]uint64) // of the slot's first timed op; later ones must match it
	for i := range m.ops {
		op := &m.ops[i]
		if _, seen := ticks[op.slot]; !seen {
			ticks[op.slot] = op.stats.Ticks
		}
		walls[op.slot] = append(walls[op.slot], ms(op.wall))
	}
	for _, i := range r.order {
		xs := walls[i]
		sort.Float64s(xs)
		fmt.Printf("%-22s %6d %12.3f %12.3f %14d\n", r.st.slots[i].name, len(xs), median(xs), xs[len(xs)-1], ticks[i])
	}
}

// printSpans prints the layer breakdown of the traced ops: mean self time
// per op and share of the op.
func printSpans(m *measured, r *runner) {
	self := selfTimes(r.tr.spans)
	var total int64
	for _, ns := range self {
		total += ns
	}
	n := float64(len(m.traced))
	fmt.Printf("%-16s %12s %8s   (%d traced ops, %d spans)\n", "span", "self_ms/op", "share", len(m.traced), len(r.tr.spans))
	for _, name := range []string{spanLoad, spanNew, spanOpen, spanPrime, spanRun, spanCommit, spanOp} {
		label := name
		if name == spanOp {
			label = "(other)"
		}
		fmt.Printf("%-16s %12.3f %7.1f%%\n", label, float64(self[name])/1e6/n, 100*float64(self[name])/float64(total))
	}
}

func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for _, e := range endToEnd {
		if _, ok := res.Metrics[e.Name]; ok {
			names = append(names, e.Name)
		}
	}
	for _, l := range perLayer {
		if _, ok := res.Metrics[l.Name]; ok {
			names = append(names, l.Name)
		}
	}
	for _, n := range names {
		fmt.Printf("%-36s %16.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range []string{"db_kb", "failed_share"} {
		if v, ok := res.Extra[n]; ok {
			fmt.Printf("%-36s %16.4f\n", n, v)
		}
	}
}

// runAll runs every workload, each in a child process of its own so no
// workload inherits another's heap, page cache warmth or GC pacing, then
// prints one table over all of them. With repeat > 1 it does so repeat
// times and fails if any end-to-end metric of two sets differs by more than
// the metric's own bound.
func runAll(cfg config, repeat int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	traceFlag := "0"
	if cfg.trace {
		traceFlag = "1"
	}
	var sets []map[string]*result
	for rep := 0; rep < repeat; rep++ {
		set := make(map[string]*result)
		for _, w := range workloadDefs {
			cmd := exec.Command(self,
				"-workload", w.Name, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.Itoa(int(cfg.window/time.Second)), "-trace", traceFlag,
				"-workdir", cfg.workdir, "-out", cfg.out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			fmt.Printf("\n== %s (set %d of %d)\n", w.Name, rep+1, repeat)
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			b, err := os.ReadFile(resultPath(cfg, w.Name))
			if err != nil {
				return err
			}
			res := new(result)
			if err := json.Unmarshal(b, res); err != nil {
				return err
			}
			set[w.Name] = res
		}
		sets = append(sets, set)
		printTable(set)
	}
	last := sets[len(sets)-1]
	if err := writeJSON(filepath.Join(cfg.out, "results.json"), last); err != nil {
		return err
	}
	if cfg.trace {
		fmt.Print("\n", predictionTable())
		printPredictions(last)
	}
	failed := 0
	for _, res := range last {
		failed += res.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	if repeat > 1 && !cfg.trace {
		return agreement(sets)
	}
	return nil
}

// printTable prints metrics as rows and workloads as columns.
func printTable(set map[string]*result) {
	fmt.Printf("\n%-34s %-8s", "metric", "unit")
	for _, w := range workloadDefs {
		fmt.Printf(" %17s", w.Name)
	}
	fmt.Println()
	row := func(name, unit string, get func(*result) (float64, bool)) {
		if _, ok := get(set[workloadDefs[0].Name]); !ok {
			return
		}
		fmt.Printf("%-34s %-8s", name, unit)
		for _, w := range workloadDefs {
			v, _ := get(set[w.Name])
			fmt.Printf(" %17.4f", v)
		}
		fmt.Println()
	}
	metric := func(name string) func(*result) (float64, bool) {
		return func(r *result) (float64, bool) {
			if v, ok := r.Metrics[name]; ok {
				return v.Value, true
			}
			v, ok := r.Extra[name]
			return v, ok
		}
	}
	for _, e := range endToEnd {
		row(e.Name, e.Unit, metric(e.Name))
	}
	for _, l := range perLayer {
		row(l.Name, l.Unit, metric(l.Name))
	}
}

// printPredictions checks the first baseline's prediction table on a traced
// set: where the time must be, and where it must not.
func printPredictions(set map[string]*result) {
	v := func(w, m string) float64 { return set[w].Metrics[m].Value }
	opMS := func(w string) float64 {
		var t float64
		for _, m := range []string{"loader.load_ms", "vm.new_ms", "core.open_ms", "core.prime_ms", "vm.run_ms", "core.commit_ms", "persistcc.other_ms"} {
			t += v(w, m)
		}
		return t
	}
	fmt.Println("\npredictions")
	check := func(ok bool, format string, args ...any) {
		verdict := "holds"
		if !ok {
			verdict = "DOES NOT HOLD"
		}
		fmt.Printf("  %-14s %s\n", verdict, fmt.Sprintf(format, args...))
	}
	share := v("spec-steady", "vm.run_ms") / opMS("spec-steady")
	check(share >= 0.6, "spec-steady: vm.run_ms is %.0f%% of the op (>= 60%%)", share*100)
	gccPersist := v("gcc-translate", "core.open_ms") + v("gcc-translate", "core.prime_ms") + v("gcc-translate", "core.commit_ms")
	check(gccPersist == 0, "gcc-translate: persistence spans absent (%.3f ms)", gccPersist)
	for _, w := range []string{"gui-warm", "fleet-warm"} {
		check(v(w, "vm.insts_translated") == 0, "%s: vm.insts_translated = %.0f", w, v(w, "vm.insts_translated"))
	}
	delta := opMS("gcc-translate-opt") - opMS("gcc-translate")
	probe := v("gcc-translate-opt", "guestopt.optimize_us_per_trace") * v("gcc-translate-opt", "vm.traces_translated") / 1e3
	check(math.Abs(probe-delta) <= 0.2*delta,
		"gcc-translate-opt - gcc-translate = %.2f ms/op; guestopt probe x traces translated = %.2f ms/op (within 20%%)", delta, probe)
}

// exact end-to-end numbers must repeat bit for bit between two sets of the
// same code and seed; the others may differ by their bound, and setup_s by
// setupSlack if that is more, because a set-up of 50 ms moves by a third
// when the machine hiccups for a moment.
var exact = map[string]bool{"vticks_per_op": true, "db_kb": true, "failed_share": true}

const setupSlack = 0.25 // seconds

func agreement(sets []map[string]*result) error {
	a, b := sets[0], sets[len(sets)-1]
	fmt.Printf("\n%-18s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "last", "spread", "bound")
	bad := 0
	row := func(w, name string, x, y, bound float64) {
		spread := 0.0
		if x != y {
			spread = math.Abs(x-y) / math.Min(math.Abs(x), math.Abs(y))
		}
		verdict := ""
		within := spread <= bound || (name == "setup_s" && math.Abs(x-y) <= setupSlack)
		if (exact[name] && x != y) || (!exact[name] && !within) {
			verdict = "  DISAGREE"
			bad++
		}
		fmt.Printf("%-18s %-18s %14.4f %14.4f %8.2f%% %6.1f%%%s\n", w, name, x, y, spread*100, bound*100, verdict)
	}
	for _, w := range workloadDefs {
		for _, e := range endToEnd {
			bound := e.Bound
			if exact[e.Name] {
				bound = 0
			}
			row(w.Name, e.Name, a[w.Name].Metrics[e.Name].Value, b[w.Name].Metrics[e.Name].Value, bound)
		}
		for _, name := range []string{"db_kb", "failed_share"} {
			row(w.Name, name, a[w.Name].Extra[name], b[w.Name].Extra[name], 0)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d end-to-end metrics disagree between two sets of the same code", bad)
	}
	return nil
}
