// Package experiments reproduces every table and figure of the paper's
// evaluation (§2 and §4) on the synthetic workloads from internal/workload,
// using the persistent cache manager from internal/core. Each experiment
// returns a Report with the paper-style rows plus paper-vs-measured notes;
// cmd/pcc-bench and the repository's bench_test.go drive them.
package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"persistcc/internal/core"
	"persistcc/internal/loader"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

// Report is one regenerated table or figure.
type Report struct {
	ID    string
	Title string
	Body  string   // rendered rows/series
	Notes []string // paper-vs-measured commentary

	// Metrics holds the experiment's headline numbers keyed by a stable
	// name. Virtual ticks are deterministic, so keys ending in "_ticks"
	// are exact across runs and machines — pcc-benchdiff gates CI on them
	// (lower is better); other keys are informational.
	Metrics map[string]float64
}

// AddMetric records one named result value.
func (r *Report) AddMetric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n%s", r.ID, r.Title, r.Body)
	for _, n := range r.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// Runner produces one report.
type Runner func() (*Report, error)

// Entry registers an experiment.
type Entry struct {
	ID    string
	Title string
	Run   Runner
}

// Registry lists every experiment in paper order.
var Registry = []Entry{
	{"fig2a", "SPEC2K behaviour under the VM: translation-request timelines", Fig2a},
	{"fig2b", "GUI startup overhead breakdown", Fig2b},
	{"table1", "GUI applications: % library code at startup", Table1},
	{"table2", "Common libraries between GUI applications", Table2},
	{"fig4", "Code invariance: average inter-execution coverage", Fig4},
	{"fig5a", "Same-input persistence improvement", Fig5a},
	{"fig5b", "SPEC2K ref overheads with and without instrumentation", Fig5b},
	{"table3a", "176.gcc code coverage between inputs", Table3a},
	{"table3b", "Oracle code coverage between phases", Table3b},
	{"fig6a", "176.gcc cross-input persistence", Fig6a},
	{"fig6b", "Oracle cross-input persistence", Fig6b},
	{"fig7a", "176.gcc persistent cache accumulation", Fig7a},
	{"fig7b", "Oracle persistent cache accumulation", Fig7b},
	{"table4", "Library code coverage between GUI applications", Table4},
	{"fig8", "Inter-application persistence", Fig8},
	{"fig9", "Persistent code cache sizes", Fig9},
	{"oracle", "Oracle regression testing (§4.2 headline numbers)", OracleRegression},
	{"pretranslate", "Static pre-translation vs persistent caching (§5)", PreTranslate},
	{"ablation-tracelen", "Ablation: trace-length limit sweep", AblationTraceLen},
	{"ablation-reloc", "Ablation: relocatable translations under relocation", AblationRelocatable},
	{"ablation-flush", "Ablation: code-cache size limit and flushing", AblationFlush},
}

// ByID finds an experiment runner.
func ByID(id string) (Entry, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}

// ---------------------------------------------------------------------------
// Shared suite construction (built once per process; builds are deterministic)
// ---------------------------------------------------------------------------

var (
	specOnce  sync.Once
	specVal   []*workload.SpecBenchmark
	specErr   error
	guiOnce   sync.Once
	guiVal    *workload.GUISuite
	guiErr    error
	oraOnce   sync.Once
	oraVal    *workload.OracleSuite
	oraErr    error
	gccCached *workload.SpecBenchmark
)

func specSuite() ([]*workload.SpecBenchmark, error) {
	specOnce.Do(func() { specVal, specErr = workload.BuildSpecSuite() })
	return specVal, specErr
}

func gccBench() (*workload.SpecBenchmark, error) {
	suite, err := specSuite()
	if err != nil {
		return nil, err
	}
	if gccCached == nil {
		for _, b := range suite {
			if b.Name == "176.gcc" {
				gccCached = b
			}
		}
	}
	if gccCached == nil {
		return nil, errors.New("experiments: gcc missing from suite")
	}
	return gccCached, nil
}

func guiSuite() (*workload.GUISuite, error) {
	guiOnce.Do(func() { guiVal, guiErr = workload.BuildGUISuite() })
	return guiVal, guiErr
}

func oracleSuite() (*workload.OracleSuite, error) {
	oraOnce.Do(func() { oraVal, oraErr = workload.BuildOracleSuite() })
	return oraVal, oraErr
}

// guiCfg is the loader configuration for GUI experiments: hashed placement
// maps shared libraries at stable addresses across applications, the
// precondition for inter-application reuse.
func guiCfg() loader.Config {
	return loader.Config{Placement: loader.PlaceHashed}
}

// ---------------------------------------------------------------------------
// Run helper
// ---------------------------------------------------------------------------

type primeMode int

const (
	primeNone primeMode = iota
	primeSame
	primeInter
	primeFrom
)

// runSpec describes one measured execution.
type runSpec struct {
	Prog     *workload.Program
	In       workload.Input
	Cfg      loader.Config
	Tool     vm.Tool
	Mgr      *core.Manager
	Prime    primeMode
	FromFile *core.CacheFile // for primeFrom
	Commit   bool
	Native   bool
	Options  []vm.Option
}

// runOut carries the execution result plus persistence reports.
type runOut struct {
	Res    *vm.Result
	Prime  *core.PrimeReport
	Commit *core.CommitReport
	VM     *vm.VM
}

func run(s runSpec) (*runOut, error) {
	if s.Tool != nil {
		s.Options = append(s.Options, vm.WithTool(s.Tool))
	}
	v, err := s.Prog.NewVM(s.Cfg, s.In, s.Options...)
	if err != nil {
		return nil, err
	}
	out := &runOut{VM: v}
	switch s.Prime {
	case primeNone:
	case primeSame:
		rep, err := s.Mgr.Prime(v)
		if err != nil && !errors.Is(err, core.ErrNoCache) {
			return nil, err
		}
		out.Prime = rep
	case primeInter:
		rep, err := s.Mgr.PrimeInterApp(v)
		if err != nil && !errors.Is(err, core.ErrNoCache) {
			return nil, err
		}
		out.Prime = rep
	case primeFrom:
		rep, err := s.Mgr.PrimeFrom(v, s.FromFile)
		if err != nil {
			return nil, err
		}
		out.Prime = rep
	}
	if s.Native {
		out.Res, err = v.RunNative()
	} else {
		out.Res, err = v.Run()
	}
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", s.Prog.Name, s.In.Name, err)
	}
	if s.Commit {
		crep, err := s.Mgr.Commit(v)
		if err != nil {
			return nil, err
		}
		out.Commit = crep
		// The save cost belongs to the run that generated the cache.
		out.Res.Stats.PersistTicks += crep.Ticks
		out.Res.Stats.Ticks += crep.Ticks
	}
	return out, nil
}

// tmpMgr creates a persistence manager in a fresh temp directory; the
// caller must call the returned cleanup.
func tmpMgr(opts ...core.ManagerOption) (*core.Manager, func(), error) {
	dir, err := os.MkdirTemp("", "pcc-exp-*")
	if err != nil {
		return nil, nil, err
	}
	mgr, err := core.NewManager(dir, opts...)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return mgr, func() {
		// Recovery paths may leave permission-stripped quarantine files;
		// reopen modes so the tree never outlives the experiment.
		_ = filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err == nil {
				_ = os.Chmod(p, 0o755)
			}
			return nil
		})
		os.RemoveAll(dir)
	}, nil
}

// withTool wraps a tool option list.
func withTool(t vm.Tool) []vm.Option {
	if t == nil {
		return nil
	}
	return []vm.Option{vm.WithTool(t)}
}
