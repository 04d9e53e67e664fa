package persistcc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"persistcc"
	"persistcc/internal/workload"
)

// accumulateGoldenDigest pins TestAccumulateDatabaseGolden's output. It
// changes only when what an accumulating database holds, or what a launch
// against one reports, changes on purpose.
const accumulateGoldenDigest = "8c14d460d576eb94dc35f399f685a63ebdb931e500547289602e90929eb4249a"

// goldenSlot is one launch of the golden accumulation.
type goldenSlot struct {
	name   string
	prog   *workload.Program
	in     workload.Input
	loader persistcc.LoaderConfig
	chain  string // slots of one chain keep their relative order
}

// accumulateGoldenSlots is the five GUI apps at hashed placement, 176.gcc's
// Reference inputs and Oracle's phases, in an order drawn from seed in
// which gcc's inputs and Oracle's phases each keep their natural order.
func accumulateGoldenSlots(t *testing.T, seed int64) []goldenSlot {
	t.Helper()
	gui, err := workload.BuildGUISuite()
	if err != nil {
		t.Fatal(err)
	}
	gcc, err := workload.BuildSpecBenchmark("176.gcc")
	if err != nil {
		t.Fatal(err)
	}
	ora, err := workload.BuildOracleSuite()
	if err != nil {
		t.Fatal(err)
	}
	var slots []goldenSlot
	for _, a := range gui.Apps {
		slots = append(slots, goldenSlot{name: a.Name, prog: a.Prog, in: a.Startup,
			loader: persistcc.LoaderConfig{Placement: persistcc.PlaceHashed}})
	}
	for _, in := range gcc.Ref {
		slots = append(slots, goldenSlot{name: "gcc." + in.Name, prog: gcc.Prog, in: in, chain: "gcc"})
	}
	for _, in := range ora.Phases {
		slots = append(slots, goldenSlot{name: "oracle." + in.Name, prog: ora.Prog, in: in, chain: "oracle"})
	}
	order := rand.New(rand.NewSource(seed)).Perm(len(slots))
	next := make(map[string][]int) // chain -> its slots in natural order
	for i, s := range slots {
		if s.chain != "" {
			next[s.chain] = append(next[s.chain], i)
		}
	}
	out := make([]goldenSlot, len(order))
	for pos, i := range order {
		if c := slots[i].chain; c != "" {
			i, next[c] = next[c][0], next[c][1:]
		}
		out[pos] = slots[i]
	}
	return out
}

// TestAccumulateDatabaseGolden launches GUI apps, 176.gcc and Oracle with
// inter-application priming into one growing database, twice over in two
// orders (the second round finds every entry warm), and pins one SHA-256 over every launch's prime and commit reports and VM
// statistics and over every file the database ends with (name and bytes).
// It is the byte-level guard for any change to how a prime reads an entry
// or how a commit merges into one: such a change may make them cheaper, but
// it must not change what they decide or what they write.
func TestAccumulateDatabaseGolden(t *testing.T) {
	dir := t.TempDir()
	h := sha256.New()
	for round := int64(0); round < 2; round++ {
		for _, s := range accumulateGoldenSlots(t, 4242+round) {
			out, err := persistcc.Run(s.prog.Exe, s.prog.Libs, persistcc.RunOptions{
				Input: s.in.Words(), Loader: s.loader,
				Persist: true, InterApp: true, CacheDir: dir,
			})
			if err != nil {
				t.Fatalf("round %d %s: %v", round, s.name, err)
			}
			fmt.Fprintf(h, "%d %s exit=%d out=%x\nprime=%+v\ncommit=%+v\nstats=%s\n",
				round, s.name, out.ExitCode, out.Output, *out.Prime, *out.Commit, nonZeroFields(out.Stats))
		}
	}
	files := hashTree(t, h, dir)
	if got := hex.EncodeToString(h.Sum(nil)); got != accumulateGoldenDigest {
		t.Errorf("digest %s, want %s (%d files)", got, accumulateGoldenDigest, files)
	}
}

// nonZeroFields prints the fields of a struct that are not zero, as
// "Name:value" in declaration order. A counter no launch of the golden
// touches prints nothing, so adding or deleting one leaves the digest alone,
// while any counter that moves still changes it.
func nonZeroFields(x any) string {
	v := reflect.ValueOf(x)
	var b strings.Builder
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); !f.IsZero() {
			fmt.Fprintf(&b, "%s:%+v ", v.Type().Field(i).Name, f.Interface())
		}
	}
	return b.String()
}

// hashTree writes every file under dir into h, in name order, as its
// slash-separated relative path, its size and its bytes, and returns how
// many files there were.
func hashTree(t *testing.T, h io.Writer, dir string) int {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(dir, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return len(files)
}
