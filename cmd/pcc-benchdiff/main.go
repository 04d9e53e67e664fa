// Command pcc-benchdiff compares two pcc-bench -json result files and fails
// when the current results regressed past a threshold — the CI perf gate.
//
// Usage:
//
//	pcc-benchdiff -baseline bench_baseline.json -current bench.json [-max-regress 0.25]
//
// Both files are NDJSON written by pcc-bench -json under schema
// "pcc-bench/2". Only metrics ending in "_ticks" are gated: virtual ticks
// are fully deterministic (no wall-clock noise), lower is better, and any
// increase beyond -max-regress (a fraction; 0.25 = +25%) of the baseline
// fails the run with exit status 1. Other metrics and wall-clock seconds
// are reported but never gated. Experiments present in only one file are
// reported and ignored, so the baseline does not have to cover every
// experiment.
//
// To refresh the baseline after an intentional performance change, rerun
// the smoke set (BENCH_SMOKE in the Makefile) into it:
//
//	make bench-baseline
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

const wantSchema = "pcc-bench/2"

type result struct {
	Schema  string             `json:"schema"`
	ID      string             `json:"id"`
	Seconds float64            `json:"seconds"`
	Metrics map[string]float64 `json:"metrics"`
}

func readResults(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(text), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		if r.Schema != wantSchema {
			return nil, fmt.Errorf("%s:%d: schema %q, want %q (regenerate with a current pcc-bench)", path, line, r.Schema, wantSchema)
		}
		out[r.ID] = r
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func main() {
	baseline := flag.String("baseline", "", "baseline NDJSON results (required)")
	current := flag.String("current", "", "current NDJSON results (required)")
	maxRegress := flag.Float64("max-regress", 0.25, "maximum allowed fractional tick increase vs baseline")
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "usage: pcc-benchdiff -baseline FILE -current FILE [-max-regress 0.25]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	base, err := readResults(*baseline)
	if err != nil {
		fatal(err)
	}
	cur, err := readResults(*current)
	if err != nil {
		fatal(err)
	}

	ids := make([]string, 0, len(base))
	for id := range base {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	failures := 0
	for _, id := range ids {
		b := base[id]
		c, ok := cur[id]
		if !ok {
			fmt.Printf("SKIP %s: not in current results\n", id)
			continue
		}
		keys := make([]string, 0, len(b.Metrics))
		for k := range b.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			bv := b.Metrics[k]
			cv, ok := c.Metrics[k]
			if !ok {
				fmt.Printf("SKIP %s/%s: metric missing from current results\n", id, k)
				continue
			}
			if !strings.HasSuffix(k, "_ticks") {
				continue // informational only
			}
			delta := 0.0
			if bv != 0 {
				delta = (cv - bv) / bv
			} else if cv != 0 {
				delta = 1 // regression from zero: treat as 100%
			}
			switch {
			case delta > *maxRegress:
				fmt.Printf("FAIL %s/%s: %.0f -> %.0f (%+.1f%% > +%.0f%% allowed)\n",
					id, k, bv, cv, 100*delta, 100**maxRegress)
				failures++
			case delta != 0:
				fmt.Printf("ok   %s/%s: %.0f -> %.0f (%+.1f%%)\n", id, k, bv, cv, 100*delta)
			}
		}
	}
	for id := range cur {
		if _, ok := base[id]; !ok {
			fmt.Printf("NEW  %s: not in baseline (add it with the refresh command in the doc comment)\n", id)
		}
	}
	if failures > 0 {
		fmt.Printf("pcc-benchdiff: %d metric(s) regressed beyond +%.0f%%\n", failures, 100**maxRegress)
		os.Exit(1)
	}
	fmt.Println("pcc-benchdiff: no regressions beyond threshold")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pcc-benchdiff:", err)
	os.Exit(1)
}
