package cacheserver_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"persistcc/internal/cacheserver"
	"persistcc/internal/core"
	"persistcc/internal/fsx"
)

// seededDB opens a database over a recording filesystem holding n entries
// of other applications than the one incoming builds.
func seededDB(t *testing.T, n int) (*core.Manager, *fsx.InjectFS, string) {
	t.Helper()
	seedVM, _ := buildWorld(t, "seed", 1).ranVM(t, 10)
	dir := t.TempDir()
	inj := fsx.NewInject(nil)
	mgr, err := core.NewManager(dir, core.WithFS(inj))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		d := core.NewDelta(seedVM)
		d.Keys.App[0], d.Keys.App[1] = byte(i), byte(i>>8)
		if _, err := mgr.CommitFile(d); err != nil {
			t.Fatal(err)
		}
	}
	return mgr, inj, dir
}

// TestNewReadsNothing: a daemon over a database of 100 entries starts
// without a filesystem operation. It keeps no catalogue of its own; each
// request reads the directory as it stands.
func TestNewReadsNothing(t *testing.T) {
	mgr, inj, _ := seededDB(t, 100)
	inj.StartRecording()
	srv, err := cacheserver.New(mgr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if ops := inj.Ops(); len(ops) != 0 {
		t.Fatalf("New made %d filesystem operations, the first %s %s", len(ops), ops[0].Op, ops[0].Path)
	}
}

// TestCommitOpsIndependentOfEntryCount: writing one entry costs the same
// filesystem operations whether the database already holds 1 or 100 other
// entries, through a local commit and through a daemon publish alike. Both
// touch the entry's own files, the lock and the store, nothing else, and a
// commit that writes a pack syncs exactly twice: the pack and the manifest.
// An exact FETCHMANIFESTS of the entry — a fleet-warm launch's read —
// touches its manifest alone, in the same operations at either size.
func TestCommitOpsIndependentOfEntryCount(t *testing.T) {
	freshVM, _ := buildWorld(t, "fresh", 2).ranVM(t, 10)
	incoming, ks := core.BuildCacheFile(freshVM)
	stem := core.FileStem(ks.ManifestFileName())
	check := func(what string, n int, dir string, ops []fsx.Record) []string {
		t.Helper()
		var seq []string
		syncs := 0
		for _, op := range ops {
			rel, _ := filepath.Rel(dir, op.Path)
			switch {
			case strings.HasPrefix(rel, "store"+string(filepath.Separator)):
				rel = "store/*" + filepath.Ext(rel)
			case rel == ".lock", strings.HasPrefix(rel, stem+"."):
			default:
				t.Errorf("%s over %d entries touched %s (%s)", what, n, rel, op.Op)
			}
			if op.Op == fsx.OpSync {
				syncs++
			}
			seq = append(seq, fmt.Sprintf("%s %s", op.Op, rel))
		}
		if syncs != 2 {
			t.Errorf("%s over %d entries synced %d times, want 2 (pack, manifest):\n%s", what, n, syncs, strings.Join(seq, "\n"))
		}
		return seq
	}

	var commits, publishes, fetches [][]string
	for _, n := range []int{1, 100} {
		mgr, inj, dir := seededDB(t, n)
		inj.StartRecording()
		if _, err := mgr.CommitFile(core.NewDelta(freshVM)); err != nil {
			t.Fatal(err)
		}
		commits = append(commits, check("commit", n, dir, inj.Ops()))

		mgr, inj, dir = seededDB(t, n)
		srv, err := cacheserver.New(mgr)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := cacheserver.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		c := newClient(ln.Addr().String())
		inj.StartRecording()
		if _, err := c.Publish(incoming); err != nil {
			t.Fatal(err)
		}
		publishes = append(publishes, check("publish", n, dir, inj.Ops()))

		inj.StartRecording()
		if _, err := c.FetchManifests(ks, false); err != nil {
			t.Fatal(err)
		}
		var seq []string
		for _, op := range inj.Ops() {
			rel, _ := filepath.Rel(dir, op.Path)
			if rel != ks.ManifestFileName() {
				t.Errorf("exact FETCHMANIFESTS over %d entries touched %s (%s)", n, rel, op.Op)
			}
			seq = append(seq, fmt.Sprintf("%s %s", op.Op, rel))
		}
		fetches = append(fetches, seq)
		c.Close()
		srv.Close()
	}
	if !reflect.DeepEqual(commits[0], commits[1]) {
		t.Errorf("commit ops over 1 and 100 entries differ:\n%s\n---\n%s", strings.Join(commits[0], "\n"), strings.Join(commits[1], "\n"))
	}
	if !reflect.DeepEqual(publishes[0], publishes[1]) {
		t.Errorf("publish ops over 1 and 100 entries differ:\n%s\n---\n%s", strings.Join(publishes[0], "\n"), strings.Join(publishes[1], "\n"))
	}
	if len(fetches[0]) == 0 || !reflect.DeepEqual(fetches[0], fetches[1]) {
		t.Errorf("exact FETCHMANIFESTS ops over 1 and 100 entries:\n%s\n---\n%s", strings.Join(fetches[0], "\n"), strings.Join(fetches[1], "\n"))
	}
}
