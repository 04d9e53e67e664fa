package persistcc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"persistcc/internal/cacheserver"
	"persistcc/internal/core"
	"persistcc/internal/loader"
	"persistcc/internal/testutil"
)

// daemonGoldenDigest pins TestDaemonDatabaseGolden's output. It changes only
// when what a daemon's database holds after a sequence of publishes, or what
// the daemon answers about it, changes on purpose.
const daemonGoldenDigest = "232d9c3328651c368c9d9e3688e16f74207f6fe7e2682fc0e51300fe93a79476"

// TestDaemonDatabaseGolden publishes cold runs of the GUI apps and of
// 176.gcc's Reference inputs to one in-process daemon, twice over in two
// orders, the second round with the GUI apps' libraries moved (so the merge
// drops what no longer validates). The database starts with one corrupt
// prior, which the first publish of its key set quarantines. One SHA-256 is
// pinned over every publish's commit report, the daemon's answers about
// every entry (LOOKUP, UTILITY, STATS) and every file the database ends
// with. It is the byte-level guard for any change to how a daemon merges a publish: such a
// change may make it cheaper, but must not change what it decides or writes.
func TestDaemonDatabaseGolden(t *testing.T) {
	dir := t.TempDir()
	var slots []goldenSlot
	for _, s := range accumulateGoldenSlots(t, 4242) {
		if s.chain != "oracle" {
			slots = append(slots, s)
		}
	}
	// coldCache runs s once with nothing primed and returns what it would
	// commit.
	coldCache := func(s goldenSlot, cfg loader.Config) (*core.CacheFile, core.KeySet) {
		w := &testutil.World{Exe: s.prog.Exe, Libs: s.prog.Libs}
		v := w.NewVM(t, testutil.RunOpts{Input: s.in.Words(), Cfg: cfg})
		if _, err := v.Run(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		return core.BuildCacheFile(v)
	}

	// The prior: garbage under a GUI app's manifest name.
	var gui []goldenSlot
	for _, s := range slots {
		if s.chain == "" {
			gui = append(gui, s)
		}
	}
	_, corrupt := coldCache(gui[1], gui[1].loader)
	if err := os.WriteFile(filepath.Join(dir, corrupt.ManifestFileName()), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}

	mgr, err := core.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cacheserver.New(mgr)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := cacheserver.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c := cacheserver.NewClient(ln.Addr().String())
	defer c.Close()

	h := sha256.New()
	var keys []core.KeySet
	seen := make(map[core.KeySet]bool)
	for round := int64(0); round < 2; round++ {
		order := accumulateGoldenSlots(t, 4242+round)
		for _, s := range order {
			if s.chain == "oracle" {
				continue
			}
			cfg := s.loader
			if round == 1 && s.chain == "" {
				cfg = loader.Config{Placement: loader.PlaceASLR, ASLRSeed: 7}
			}
			cf, ks := coldCache(s, cfg)
			rep, err := c.Publish(cf)
			if err != nil {
				t.Fatalf("round %d %s: publish: %v", round, s.name, err)
			}
			fmt.Fprintf(h, "%d %s commit=%+v\n", round, s.name, *rep)
			if !seen[ks] {
				seen[ks] = true
				keys = append(keys, ks)
			}
		}
	}
	for _, ks := range keys {
		info, err := c.Lookup(ks, false)
		if err != nil {
			t.Fatalf("lookup %s: %v", ks.ManifestFileName(), err)
		}
		fmt.Fprintf(h, "lookup=%+v\n", *info)
	}
	util, err := c.UtilitySummary()
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	sst := *st.Store
	st.Store = nil
	fmt.Fprintf(h, "utility=%+v\nstats=%+v store=%+v\n", util, *st, sst)
	files := hashTree(t, h, dir)
	if got := hex.EncodeToString(h.Sum(nil)); got != daemonGoldenDigest {
		t.Errorf("digest %s, want %s (%d files)", got, daemonGoldenDigest, files)
	}
}
