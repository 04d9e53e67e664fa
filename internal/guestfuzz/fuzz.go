package guestfuzz

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"persistcc/internal/instr"
	"persistcc/internal/replay"
	"persistcc/internal/vm"
)

// Config parameterizes one fuzzing campaign. The zero value is not usable:
// set at least MaxExecs.
type Config struct {
	Seed     uint64   // rng seed; (Seed, MaxExecs) determines the whole run
	MaxExecs int      // mutant-evaluation budget (seed cases included)
	Oracles  []string // which differential oracles judge each case; nil = all

	CorpusDir  string // persist kept cases + coverage here ("" = in-memory only)
	CrasherDir string // where findings are packaged ("" = replay.DefaultDir())

	Exact bool   // instruction-exact coverage feedback (slower, finer)
	Hooks *Hooks // deliberate-bug injection (oracle self-tests, CI plants)

	Log func(format string, args ...any) // optional progress logging
}

// Finding is one packaged divergence or crash.
type Finding struct {
	Name     string `json:"name"`
	Oracle   string `json:"oracle"`
	Kind     string `json:"kind"`
	Detail   string `json:"detail"`
	Path     string `json:"path"`      // written crasher JSON
	BodySize int    `json:"body_size"` // minimized generated-body instructions
	Case     *Case  `json:"case"`
}

// Stats summarizes a campaign.
type Stats struct {
	Execs      int       `json:"execs"`       // cases evaluated (probe + oracles each)
	Kept       int       `json:"kept"`        // mutants that reached new coverage
	CovKeys    int       `json:"cov_keys"`    // global coverage frontier size
	CorpusSize int       `json:"corpus_size"` // live corpus entries at exit
	Findings   []Finding `json:"findings"`
}

type corpusEntry struct {
	c   *Case
	cov *instr.CovSet
}

// Fuzz runs one campaign: seed the corpus, then mutate-probe-judge until
// the exec budget is spent. Every kept case reached coverage no earlier
// case reached; every verdict is minimized and packaged as a
// replay.Crasher before the campaign continues.
func Fuzz(cfg Config) (*Stats, error) {
	if cfg.MaxExecs <= 0 {
		return nil, fmt.Errorf("guestfuzz: MaxExecs must be positive")
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	oracles := cfg.Oracles
	if len(oracles) == 0 {
		oracles = AllOracles
	}
	for _, o := range oracles {
		if _, _, err := oraclePair(o); err != nil {
			return nil, err
		}
	}
	crasherDir := cfg.CrasherDir
	if crasherDir == "" {
		crasherDir = replay.DefaultDir()
	}

	r := &rng{s: cfg.Seed ^ 0xf00dface}
	frontier := instr.NewCovSet()
	stats := &Stats{}
	var corpus []*corpusEntry
	seen := map[string]bool{}     // case keys already evaluated
	reported := map[string]bool{} // (oracle, minimized key) findings already packaged

	// evaluate probes one case for coverage and judges it with every
	// configured oracle; returns the probe coverage (nil if unbuildable).
	evaluate := func(c *Case) *instr.CovSet {
		stats.Execs++
		cov, err := probe(c, cfg.Exact)
		if err != nil {
			logf("probe %s: %v", c.Key(), err)
			return nil
		}
		for _, o := range oracles {
			v, err := RunOracle(o, c, cfg.Hooks)
			if err != nil {
				logf("oracle %s on %s: %v", o, c.Key(), err)
				continue
			}
			if v == nil {
				continue
			}
			logf("VERDICT %s on %s", v, c.Key())
			f, err := packageFinding(c, v, cfg.Hooks, crasherDir)
			if err != nil {
				logf("package %s: %v", c.Key(), err)
				continue
			}
			dedup := v.Oracle + "/" + f.Case.Key()
			if reported[dedup] {
				continue
			}
			reported[dedup] = true
			stats.Findings = append(stats.Findings, *f)
			logf("finding %s minimized to %d body insts: %s", f.Name, f.BodySize, f.Path)
		}
		return cov
	}

	keep := func(c *Case, cov *instr.CovSet) {
		corpus = append(corpus, &corpusEntry{c: c, cov: cov})
		if cfg.CorpusDir != "" {
			if err := saveEntry(cfg.CorpusDir, c, cov); err != nil {
				logf("corpus save: %v", err)
			}
		}
	}

	// Pre-load a persisted corpus (prior campaign), then the hand-shaped
	// seeds for any coverage the stored corpus misses.
	if cfg.CorpusDir != "" {
		loaded, err := loadCorpus(cfg.CorpusDir)
		if err != nil {
			return nil, err
		}
		for _, e := range loaded {
			frontier.Merge(e.cov)
			corpus = append(corpus, e)
			seen[e.c.Key()] = true
		}
		if len(loaded) > 0 {
			logf("loaded %d corpus entries (%d cov keys)", len(loaded), frontier.Len())
		}
	}
	for _, c := range SeedCases() {
		if seen[c.Key()] || stats.Execs >= cfg.MaxExecs {
			continue
		}
		seen[c.Key()] = true
		cov := evaluate(c)
		if cov == nil {
			continue
		}
		if frontier.Merge(cov) > 0 {
			keep(c, cov)
		}
	}
	if len(corpus) == 0 {
		return nil, fmt.Errorf("guestfuzz: no seed case survived evaluation")
	}

	for stats.Execs < cfg.MaxExecs {
		parent := corpus[r.intn(len(corpus))].c
		other := corpus[r.intn(len(corpus))].c
		child := Mutate(r, parent, other)
		if seen[child.Key()] {
			continue // mutation landed on an evaluated shape; free to retry
		}
		seen[child.Key()] = true
		cov := evaluate(child)
		if cov == nil {
			continue
		}
		if frontier.Merge(cov) > 0 {
			stats.Kept++
			keep(child, cov)
			logf("corpus +%s (%d entries, %d cov keys, %d/%d execs)",
				child.Key(), len(corpus), frontier.Len(), stats.Execs, cfg.MaxExecs)
		}
	}

	stats.CovKeys = frontier.Len()
	stats.CorpusSize = len(corpus)
	sort.Slice(stats.Findings, func(i, j int) bool { return stats.Findings[i].Name < stats.Findings[j].Name })
	return stats, nil
}

// probe runs the case once, translated, under the coverage tool; the
// returned set is the feedback signal for corpus scheduling.
func probe(c *Case, exact bool) (*instr.CovSet, error) {
	prog, err := c.Build()
	if err != nil {
		return nil, err
	}
	cov := instr.NewCodeCov()
	if exact {
		cov = instr.NewExactCodeCov()
	}
	v, err := prog.NewVM(c.LoaderConfig(c.ASLRSeed), c.In, c.VMOpts(vm.WithTool(cov))...)
	if err != nil {
		return nil, err
	}
	if _, err := v.Run(); err != nil {
		return nil, fmt.Errorf("probe run: %w", err)
	}
	return cov.Snapshot(), nil
}

// packageFinding minimizes the failing case (re-judging with the same
// oracle and hooks at every step) and writes it as a replay.Crasher: the
// artifact's Expect block records the interpreted reference behavior, so
// once the underlying bug is fixed — or, for an injected plant, absent —
// TestCrasherCorpus replays the artifact green.
func packageFinding(c *Case, v *Verdict, hooks *Hooks, dir string) (*Finding, error) {
	min := Minimize(c, func(cand *Case) bool {
		vv, err := RunOracle(v.Oracle, cand, hooks)
		return err == nil && vv != nil && vv.Oracle == v.Oracle
	})

	name := fmt.Sprintf("fz-%s-%s", strings.ReplaceAll(v.Oracle, "-vs-", "-"), min.Key())
	cr, err := ToCrasher(min, name, v)
	if err != nil {
		return nil, err
	}
	path, err := replay.WriteCrasher(nil, dir, cr, nil)
	if err != nil {
		return nil, err
	}
	return &Finding{
		Name:     name,
		Oracle:   v.Oracle,
		Kind:     v.Kind,
		Detail:   v.Detail,
		Path:     path,
		BodySize: min.BodySize(),
		Case:     min,
	}, nil
}

// ToCrasher converts a case into the corpus artifact format. The Expect
// block is the interpreted reference (ground truth independent of every
// layer the oracles test); it is omitted when even the interpreter cannot
// run the case.
func ToCrasher(c *Case, name string, v *Verdict) (*replay.Crasher, error) {
	specJSON, err := json.Marshal(c.Spec)
	if err != nil {
		return nil, err
	}
	unitsJSON, err := json.Marshal(c.In)
	if err != nil {
		return nil, err
	}
	cr := &replay.Crasher{
		Name:         name,
		Kind:         v.Kind,
		Note:         fmt.Sprintf("guestfuzz %s oracle: %s", v.Oracle, v.Detail),
		Spec:         specJSON,
		Units:        unitsJSON,
		Placement:    c.Placement,
		ASLRSeed:     c.ASLRSeed,
		WarmASLRSeed: c.WarmASLRSeed,
		SMC:          c.Spec.SMCRewrites > 0,
	}
	if prog, err := c.Build(); err == nil {
		if ref, err := prog.NewVM(c.LoaderConfig(c.ASLRSeed), c.In, c.VMOpts()...); err == nil {
			if res, err := ref.RunNative(); err == nil {
				cr.Expect = &replay.Expect{Exit: res.ExitCode, Insts: res.Stats.InstsExecuted}
			}
		}
	}
	return cr, nil
}

// saveEntry persists one corpus entry: the case JSON plus its serialized
// coverage set, keyed by content hash so re-runs are idempotent.
func saveEntry(dir string, c *Case, cov *instr.CovSet) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	key := c.Key()
	if err := os.WriteFile(filepath.Join(dir, key+".json"), append(blob, '\n'), 0o644); err != nil {
		return err
	}
	enc, err := cov.MarshalBinary()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, key+".cov"), enc, 0o644)
}

// loadCorpus reads back every persisted entry; entries whose coverage
// sidecar is missing or corrupt are skipped (they will be re-found).
func loadCorpus(dir string) ([]*corpusEntry, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []*corpusEntry
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		c := &Case{}
		if err := json.Unmarshal(blob, c); err != nil {
			continue
		}
		enc, err := os.ReadFile(strings.TrimSuffix(p, ".json") + ".cov")
		if err != nil {
			continue
		}
		cov := instr.NewCovSet()
		if err := cov.UnmarshalBinary(enc); err != nil {
			continue
		}
		out = append(out, &corpusEntry{c: c, cov: cov})
	}
	return out, nil
}
