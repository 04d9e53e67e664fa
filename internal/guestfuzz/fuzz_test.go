package guestfuzz

import (
	"path/filepath"
	"reflect"
	"testing"

	"persistcc/internal/replay"
)

// TestFuzzDeterministic: the same (seed, budget) must reproduce the whole
// campaign — corpus growth, coverage frontier and finding names — or
// TestFuzzRediscoversPlants is a coin flip.
func TestFuzzDeterministic(t *testing.T) {
	run := func() *Stats {
		t.Helper()
		stats, err := Fuzz(Config{
			Seed:       99,
			MaxExecs:   25,
			Oracles:    []string{OracleInterpTrans},
			CrasherDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if a.Execs != b.Execs || a.Kept != b.Kept || a.CovKeys != b.CovKeys || a.CorpusSize != b.CorpusSize {
		t.Errorf("campaign stats differ: %+v vs %+v", a, b)
	}
	names := func(s *Stats) []string {
		var out []string
		for _, f := range s.Findings {
			out = append(out, f.Name)
		}
		return out
	}
	if !reflect.DeepEqual(names(a), names(b)) {
		t.Errorf("findings differ: %v vs %v", names(a), names(b))
	}
}

// TestFuzzGrowsCoverage: mutants must actually enlarge the frontier beyond
// the seed corpus — a fuzzer that never keeps anything is not exploring.
func TestFuzzGrowsCoverage(t *testing.T) {
	seedOnly, err := Fuzz(Config{Seed: 7, MaxExecs: 5, Oracles: []string{OracleInterpTrans}, CrasherDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Fuzz(Config{Seed: 7, MaxExecs: 60, Oracles: []string{OracleInterpTrans}, CrasherDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if full.Kept == 0 {
		t.Error("no mutant ever reached new coverage")
	}
	if full.CovKeys <= seedOnly.CovKeys {
		t.Errorf("coverage frontier did not grow: %d -> %d", seedOnly.CovKeys, full.CovKeys)
	}
}

// TestFuzzRediscoversPlants is the fuzzing contract: under a fixed seed and
// a bounded budget, each planted known-bug must be rediscovered by the one
// oracle enabled for it, auto-minimized under the body budget, and
// packaged as a crasher that loads back from disk. The same budget on the
// healthy system, every oracle enabled, must find nothing: oracles that
// fire spuriously would drown real bugs.
func TestFuzzRediscoversPlants(t *testing.T) {
	const seed, execs, maxBody = 1, 12, 12
	for _, p := range Plants() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			stats, err := Fuzz(Config{
				Seed:       seed,
				MaxExecs:   execs,
				Oracles:    []string{p.Oracle},
				Hooks:      p.Hooks,
				CrasherDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(stats.Findings) == 0 {
				t.Fatalf("plant %s not rediscovered in %d execs", p.Name, stats.Execs)
			}
			if f := stats.Findings[0]; f.BodySize > maxBody {
				t.Errorf("finding minimized to %d body insts, want <= %d", f.BodySize, maxBody)
			}
			for _, f := range stats.Findings {
				if f.Oracle != p.Oracle {
					t.Errorf("%s found by %s; only %s was enabled", f.Name, f.Oracle, p.Oracle)
				}
				c, _, err := replay.LoadCrasher(nil, f.Path)
				if err != nil {
					t.Fatalf("packaged crasher %s does not load: %v", f.Path, err)
				}
				if len(c.Spec) == 0 {
					t.Errorf("crasher %s carries no spec", f.Name)
				}
				if c.Expect == nil {
					t.Errorf("crasher %s carries no interpreted-reference expectation", f.Name)
				}
			}
		})
	}
	t.Run("control", func(t *testing.T) {
		stats, err := Fuzz(Config{Seed: seed, MaxExecs: execs, CrasherDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.Findings) != 0 {
			t.Errorf("%d findings on the healthy system in %d execs, want 0: %+v", len(stats.Findings), stats.Execs, stats.Findings)
		}
	})
}

// TestFuzzCorpusPersists: a second campaign over the same corpus directory
// must pick up the first one's entries and coverage instead of rediscovering
// them.
func TestFuzzCorpusPersists(t *testing.T) {
	corpus := t.TempDir()
	first, err := Fuzz(Config{Seed: 3, MaxExecs: 30, Oracles: []string{OracleInterpTrans},
		CorpusDir: corpus, CrasherDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(corpus, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != first.CorpusSize {
		t.Errorf("%d corpus files persisted, stats say %d entries", len(files), first.CorpusSize)
	}
	second, err := Fuzz(Config{Seed: 4, MaxExecs: 5, Oracles: []string{OracleInterpTrans},
		CorpusDir: corpus, CrasherDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if second.CovKeys < first.CovKeys {
		t.Errorf("resumed campaign lost coverage: %d -> %d", first.CovKeys, second.CovKeys)
	}
	if second.CorpusSize < first.CorpusSize {
		t.Errorf("resumed campaign lost corpus entries: %d -> %d", first.CorpusSize, second.CorpusSize)
	}
}

// TestMutateStaysBuildable: every mutation composition must yield a
// buildable, runnable case after Normalize — unbuildable mutants waste the
// exec budget silently.
func TestMutateStaysBuildable(t *testing.T) {
	r := &rng{s: 5}
	seeds := SeedCases()
	cur := seeds[0]
	for i := 0; i < 60; i++ {
		other := seeds[r.intn(len(seeds))]
		cur = Mutate(r, cur, other)
		if _, err := cur.Build(); err != nil {
			t.Fatalf("mutant %d does not build: %v\ncase: %+v", i, err, cur)
		}
	}
}
