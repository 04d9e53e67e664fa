// Command pcc-fuzz runs the coverage-guided guest-program fuzzer
// (internal/guestfuzz).
//
// Usage:
//
//	pcc-fuzz -execs 500                       # fuzz, the four default oracles
//	pcc-fuzz -seed 7 -corpus fuzz-corpus/     # persistent corpus
//	pcc-fuzz -oracles interp-vs-trans,cold-vs-warm
//	pcc-fuzz -oracles fleet-warmed,store-warmed-vs-warm-disk   # any execution mode / pair
//	pcc-fuzz -plant miscompile -execs 40      # known-bug rediscovery check
//	pcc-fuzz -list-plants
//
// In normal mode findings are real bugs: each is minimized, packaged into
// -out (default crashers/pending) and the command exits 1 so CI pipelines
// notice. In -plant mode a named known-bug is injected first and the exit
// code inverts: 0 only if the fuzzer rediscovers it within the budget.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"persistcc/internal/guestfuzz"
	"persistcc/internal/replay"
)

func main() {
	seed := flag.Uint64("seed", 1, "campaign rng seed; (seed, execs) determines the whole run")
	execs := flag.Int("execs", 200, "mutant-evaluation budget")
	corpus := flag.String("corpus", "", "persist kept cases + coverage in this directory")
	out := flag.String("out", "", "package findings here (default: crashers/pending)")
	oracles := flag.String("oracles", "", "comma-separated oracles: the four default names, any execution mode (judged against interpreted), or <modeA>-vs-<modeB> (default: the four)")
	exact := flag.Bool("exact", false, "instruction-exact coverage feedback (slower, finer)")
	plant := flag.String("plant", "", "inject this known-bug and require its rediscovery")
	listPlants := flag.Bool("list-plants", false, "list known-bug plants and exit")
	jsonOut := flag.Bool("json", false, "emit campaign stats as JSON on stdout")
	verbose := flag.Bool("v", false, "log corpus growth and verdicts")
	flag.Parse()

	if *listPlants {
		for _, p := range guestfuzz.Plants() {
			fmt.Printf("%-12s %-16s %s\n", p.Name, p.Oracle, p.Note)
		}
		return
	}

	cfg := guestfuzz.Config{
		Seed:       *seed,
		MaxExecs:   *execs,
		CorpusDir:  *corpus,
		CrasherDir: *out,
		Exact:      *exact,
	}
	if *oracles != "" {
		cfg.Oracles = strings.Split(*oracles, ",")
	}
	if *verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "pcc-fuzz: "+format+"\n", args...)
		}
	}

	var planted *guestfuzz.Plant
	if *plant != "" {
		p, err := guestfuzz.PlantByName(*plant)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pcc-fuzz:", err)
			os.Exit(2)
		}
		planted = &p
		cfg.Hooks = p.Hooks
		if len(cfg.Oracles) == 0 {
			cfg.Oracles = []string{p.Oracle}
		}
	}

	stats, err := guestfuzz.Fuzz(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcc-fuzz:", err)
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(stats); err != nil {
			fmt.Fprintln(os.Stderr, "pcc-fuzz:", err)
			os.Exit(2)
		}
	} else {
		fmt.Printf("pcc-fuzz: %d execs, %d kept, %d cov keys, %d corpus entries, %d findings\n",
			stats.Execs, stats.Kept, stats.CovKeys, stats.CorpusSize, len(stats.Findings))
		for _, f := range stats.Findings {
			fmt.Printf("  %-12s %-16s %3d body insts  %s\n", f.Kind, f.Oracle, f.BodySize, f.Path)
		}
	}

	if planted != nil {
		for _, f := range stats.Findings {
			if f.Oracle == planted.Oracle {
				fmt.Printf("pcc-fuzz: plant %q rediscovered as %s\n", planted.Name, f.Name)
				return
			}
		}
		fmt.Fprintf(os.Stderr, "pcc-fuzz: plant %q NOT rediscovered within %d execs\n", planted.Name, *execs)
		os.Exit(1)
	}
	if len(stats.Findings) > 0 {
		dir := cfg.CrasherDir
		if dir == "" {
			dir = replay.DefaultDir()
		}
		fmt.Fprintf(os.Stderr, "pcc-fuzz: %d findings packaged under %s\n", len(stats.Findings), dir)
		os.Exit(1)
	}
}
