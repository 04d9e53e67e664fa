package persistcc_test

// TestCrasherCorpus replays every artifact in crashers/: the regression
// corpus of self-packaged failures (see crashers/README.md). Each JSON file
// is a saved diffexec case — a generated-workload spec or literal assembly
// sources, plus optional warm state — and must (a) run identically
// interpreted and under the translated mode its fields imply, (b) match its
// recorded expectations, and (c) when a .rec sidecar is present, re-execute
// bit-exactly through the replayer, primed from the bundled cache-DB
// snapshot so the cache-behavior counters reproduce too.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"persistcc/internal/core"
	"persistcc/internal/diffexec"
	"persistcc/internal/loader"
	"persistcc/internal/replay"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

func TestCrasherCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("crashers", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("crasher corpus is empty: crashers/*.json matched nothing")
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) { runCrasher(t, path, os.Getenv("PCC_REGEN_CRASHERS") != "") })
	}
}

// crasherCase adapts a decoded artifact's workload to a diffexec.Case.
func crasherCase(t *testing.T, c *replay.Crasher) diffexec.Case {
	t.Helper()
	own := noOpts
	if c.SMC {
		own = func() []vm.Option { return []vm.Option{vm.WithSMCDetection()} }
	}
	var dc diffexec.Case
	if len(c.Spec) > 0 {
		var spec workload.ProgSpec
		var in workload.Input
		if err := json.Unmarshal(c.Spec, &spec); err != nil {
			t.Fatalf("crasher spec: %v", err)
		}
		if err := json.Unmarshal(c.Units, &in); err != nil {
			t.Fatalf("crasher units: %v", err)
		}
		dc = progCase(t, spec, in, loader.Placement(c.Placement), own)
	} else {
		dc = worldCase(t, c.Name, c.Main, c.Libs, loader.Placement(c.Placement), c.Input, own)
	}
	dc.Name, dc.Seed, dc.WarmSeed, dc.Store = c.Name, c.ASLRSeed, c.WarmASLRSeed, c.Store
	return dc
}

// runCrasher judges one artifact. With regen (PCC_REGEN_CRASHERS=1, after a
// deliberate log-format or VM change) the committed .rec and .db sidecars are
// ignored — they may not exist yet — so recorded-replayed commits a fresh
// database and records a warm run primed from it; both are then saved next
// to the JSON with a new Expect block.
func runCrasher(t *testing.T, path string, regen bool) {
	dir := filepath.Dir(path)
	c, rec, err := replay.LoadCrasher(nil, path)
	if regen {
		var data []byte
		if data, err = os.ReadFile(path); err == nil {
			c, rec = &replay.Crasher{}, nil
			err = json.Unmarshal(data, c)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	env := &diffexec.Env{Case: crasherCase(t, c), Dir: testutil.TempDB(t), Recorded: rec}
	defer env.Close()
	if c.Snapshot != "" && !regen {
		// A scratch copy, never the committed snapshot itself, which must
		// stay pristine in version control (a manager takes a .lock in its
		// directory).
		scratch := testutil.TempDB(t)
		if err := copyTree(filepath.Join(dir, c.Snapshot), scratch); err != nil {
			t.Fatalf("snapshot copy: %v", err)
		}
		if env.RecordedDB, err = core.NewManager(scratch); err != nil {
			t.Fatal(err)
		}
	}

	// The modes the artifact's fields imply, each judged against the
	// interpreter: translated cold — or, in the relocation-edge shape, warm
	// from a database (relocatable when flagged store) written under the
	// warm seed and consumed at another — then the bundled recording's
	// replay.
	modes := []string{"cold-translated"}
	if c.WarmASLRSeed != 0 {
		modes[0] = "warm-disk"
		if c.Store {
			modes[0] = "store-warmed"
		}
	}
	if c.Recording != "" {
		modes = append(modes, "recorded-replayed")
	}
	ref, err := env.Run("interpreted")
	if err != nil {
		t.Fatal(err)
	}
	var last *diffexec.Snapshot
	for i, m := range modes {
		if last, err = env.Run(m); err != nil {
			t.Fatal(err)
		}
		for _, d := range diffexec.Diff(ref, last, diffexec.Arch) {
			t.Error(d)
		}
		if i > 0 || c.Expect == nil || regen {
			continue
		}
		if last.Exit != c.Expect.Exit {
			t.Errorf("exit %d, artifact expects %d", last.Exit, c.Expect.Exit)
		}
		if c.Expect.Insts != 0 && last.Stats.InstsExecuted != c.Expect.Insts {
			t.Errorf("insts %d, artifact expects %d", last.Stats.InstsExecuted, c.Expect.Insts)
		}
		if c.Expect.Output != "" && string(last.Output) != c.Expect.Output {
			t.Errorf("output %q, artifact expects %q", last.Output, c.Expect.Output)
		}
	}

	if !regen || c.Recording == "" {
		return
	}
	if c.Snapshot != "" {
		snapDir := filepath.Join(dir, c.Snapshot)
		if err := os.RemoveAll(snapDir); err != nil {
			t.Fatal(err)
		}
		if err := env.RecordedDB.SnapshotTo(snapDir); err != nil {
			t.Fatalf("regen snapshot: %v", err)
		}
	}
	c.Expect = &replay.Expect{Exit: last.Exit, Insts: last.Stats.InstsExecuted}
	if _, err := replay.WriteCrasher(nil, dir, c, env.Recorded); err != nil {
		t.Fatalf("regen artifact: %v", err)
	}
}
