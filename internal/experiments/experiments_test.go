package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The experiment tests assert the qualitative facts the paper reports; the
// rendered reports themselves are exercised end to end. Experiments share
// cached suite builds, so the package test binary builds each workload
// once.

func runExp(t *testing.T, id string) *Report {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if rep.ID != id || rep.Body == "" {
		t.Fatalf("%s: malformed report %+v", id, rep)
	}
	for _, n := range rep.Notes {
		if strings.HasPrefix(n, "WARNING") {
			t.Errorf("%s: %s", id, n)
		}
	}
	return rep
}

func TestFig2a(t *testing.T) {
	rep := runExp(t, "fig2a")
	if !strings.Contains(rep.Body, "176.gcc") {
		t.Error("gcc row missing")
	}
}

func TestFig2b(t *testing.T) {
	rep := runExp(t, "fig2b")
	if !strings.Contains(rep.Body, "file-roller") {
		t.Error("file-roller row missing")
	}
}

func TestTable1(t *testing.T) { runExp(t, "table1") }
func TestTable2(t *testing.T) { runExp(t, "table2") }
func TestFig4(t *testing.T)   { runExp(t, "fig4") }

func TestFig5a(t *testing.T) {
	rep := runExp(t, "fig5a")
	if !strings.Contains(rep.Body, "Oracle") {
		t.Error("oracle row missing")
	}
}

func TestFig5b(t *testing.T) { runExp(t, "fig5b") }

func TestTable3a(t *testing.T) {
	rep := runExp(t, "table3a")
	// Worst deviation note must stay under 8 points.
	assertDeviationUnder(t, rep, 8.0)
}

func TestTable3b(t *testing.T) {
	rep := runExp(t, "table3b")
	assertDeviationUnder(t, rep, 13.0)
}

func assertDeviationUnder(t *testing.T, rep *Report, limit float64) {
	t.Helper()
	for _, n := range rep.Notes {
		var dev float64
		if _, err := scanDeviation(n, &dev); err == nil {
			if dev > limit {
				t.Errorf("%s: deviation %.1f exceeds %.1f points", rep.ID, dev, limit)
			}
			return
		}
	}
	t.Errorf("%s: no deviation note found", rep.ID)
}

func scanDeviation(s string, out *float64) (int, error) {
	i := strings.Index(s, "deviation from the paper's table: ")
	if i < 0 {
		return 0, errNoMatch
	}
	var v float64
	_, err := sscanFloat(s[i+len("deviation from the paper's table: "):], &v)
	if err != nil {
		return 0, err
	}
	*out = v
	return 1, nil
}

var errNoMatch = &parseErr{"no match"}

type parseErr struct{ s string }

func (e *parseErr) Error() string { return e.s }

func sscanFloat(s string, out *float64) (int, error) {
	end := 0
	for end < len(s) && (s[end] == '.' || (s[end] >= '0' && s[end] <= '9')) {
		end++
	}
	if end == 0 {
		return 0, errNoMatch
	}
	var v float64
	frac := 0.1
	seenDot := false
	for i := 0; i < end; i++ {
		if s[i] == '.' {
			seenDot = true
			continue
		}
		d := float64(s[i] - '0')
		if !seenDot {
			v = v*10 + d
		} else {
			v += d * frac
			frac /= 10
		}
	}
	*out = v
	return 1, nil
}

func TestFig6a(t *testing.T) { runExp(t, "fig6a") }
func TestFig6b(t *testing.T) { runExp(t, "fig6b") }
func TestFig7a(t *testing.T) { runExp(t, "fig7a") }
func TestFig7b(t *testing.T) { runExp(t, "fig7b") }
func TestTable4(t *testing.T) {
	rep := runExp(t, "table4")
	if !strings.Contains(rep.Body, "gftp") {
		t.Error("gftp row missing")
	}
}
func TestFig8(t *testing.T) { runExp(t, "fig8") }
func TestFig9(t *testing.T) { runExp(t, "fig9") }

func TestOracleRegression(t *testing.T) { runExp(t, "oracle") }
func TestPreTranslate(t *testing.T)     { runExp(t, "pretranslate") }

func TestAblations(t *testing.T) {
	runExp(t, "ablation-tracelen")
	runExp(t, "ablation-reloc")
	runExp(t, "ablation-flush")
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2a", "fig2b", "table1", "table2", "fig4", "fig5a", "fig5b",
		"table3a", "table3b", "fig6a", "fig6b", "fig7a", "fig7b",
		"table4", "fig8", "fig9", "oracle", "pretranslate",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted unknown id")
	}
	// EXPERIMENTS.md counts the experiments results.txt renders; a deleted
	// or added experiment must change that count too.
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`rendered output of all (\d+) experiments`).FindSubmatch(doc)
	if m == nil {
		t.Fatal("EXPERIMENTS.md no longer says how many experiments there are")
	}
	if n, _ := strconv.Atoi(string(m[1])); n != len(Registry) {
		t.Errorf("EXPERIMENTS.md counts %d experiments, the registry holds %d", n, len(Registry))
	}
}

// TestGateListsNameExperiments: the Makefile's BENCH_SMOKE and the rows of
// bench_baseline.json name the same registered experiments. pcc-benchdiff
// skips an experiment that is in only one of its two files, so a list that
// drifts from the other would drop that experiment's gate without a word.
func TestGateListsNameExperiments(t *testing.T) {
	read := func(path string) string {
		b, err := os.ReadFile(filepath.Join("..", "..", path))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	m := regexp.MustCompile(`(?m)^BENCH_SMOKE = (.+)$`).FindStringSubmatch(read("Makefile"))
	if m == nil {
		t.Fatal("Makefile: no BENCH_SMOKE line")
	}
	smoke := strings.Split(m[1], ",")
	var baseline []string
	for _, line := range strings.Split(strings.TrimSpace(read("bench_baseline.json")), "\n") {
		var row struct{ ID string }
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("bench_baseline.json: %v", err)
		}
		baseline = append(baseline, row.ID)
	}
	for _, id := range smoke {
		if _, ok := ByID(id); !ok {
			t.Errorf("BENCH_SMOKE names %q, which is not a registered experiment", id)
		}
	}
	sort.Strings(smoke)
	sort.Strings(baseline)
	if !reflect.DeepEqual(smoke, baseline) {
		t.Errorf("BENCH_SMOKE names %v, bench_baseline.json has rows for %v", smoke, baseline)
	}
}

func TestWarmup(t *testing.T) {
	rep := runExp(t, "warmup")
	if !strings.Contains(rep.Body, "gqview") {
		t.Error("warmup rows missing")
	}
}

func TestSpecInstr(t *testing.T) {
	rep := runExp(t, "spec-instr")
	if !strings.Contains(rep.Body, "176.gcc") {
		t.Error("gcc row missing")
	}
}

func TestShellTools(t *testing.T) {
	rep := runExp(t, "shelltools")
	if !strings.Contains(rep.Body, "wc first run, calc's cache") {
		t.Error("shelltools rows missing")
	}
}
