package cacheserver_test

import (
	"errors"
	"reflect"
	"testing"

	"persistcc/internal/cacheserver"
	"persistcc/internal/core"
	"persistcc/internal/store"
)

// TestPeerCommitsAreServed: the daemon serves its database directory as it
// stands. An entry a second manager commits into it after the daemon
// started is seen by every op — FETCHMANIFESTS in exact and inter-app
// scope, LOOKUP, STATS (Manager.Stats itself) and UTILITY — the peer's
// accumulation into it shows in LOOKUP, and the peer's removal of it
// leaves UTILITY and STATS.
func TestPeerCommitsAreServed(t *testing.T) {
	_, addr, mgr := startServer(t)
	peer, err := core.NewManager(mgr.Dir())
	if err != nil {
		t.Fatal(err)
	}
	va, _ := buildWorld(t, "peera", 1).ranVM(t, 30)
	cf, ks := core.BuildCacheFile(va)
	ksb := core.KeysFor(buildWorld(t, "peerb", 2).freshVM(t, 30))
	if ksb.App == ks.App || ksb.VM != ks.VM || ksb.Tool != ks.Tool {
		t.Fatal("the worlds are not two applications of one key class; the inter-app checks are vacuous")
	}
	stem := core.FileStem(ks.ManifestFileName())
	c := newClient(addr)
	defer c.Close()

	stats := func(what string) *core.DBStats {
		t.Helper()
		remote, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		local, err := peer.Stats()
		if err != nil {
			t.Fatal(err)
		}
		local.Store.Packs, local.Store.LooseBlobs = 0, 0 // not carried by the wire
		if !reflect.DeepEqual(remote, local) {
			t.Errorf("%s: STATS diverges from Manager.Stats:\nserver: %+v\nlocal:  %+v", what, remote, local)
		}
		return remote
	}
	utility := func() []cacheserver.UtilityEntry {
		t.Helper()
		u, err := c.UtilitySummary()
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	lookupTraces := func(what string) int {
		t.Helper()
		info, err := c.Lookup(ks, false)
		if err != nil {
			t.Fatalf("%s: LOOKUP: %v", what, err)
		}
		return info.Traces
	}

	partial := *cf
	partial.Traces = cf.Traces[1:]
	commitFile(t, peer, &partial)
	items, err := c.FetchManifests(ks, false)
	if err != nil || len(items) != 1 {
		t.Fatalf("exact FETCHMANIFESTS of the peer's entry: %d items, %v", len(items), err)
	}
	if man, err := store.DecodeManifest(items[0].Data); err != nil || len(man.Traces) != len(partial.Traces) {
		t.Fatalf("exact FETCHMANIFESTS served a manifest that does not hold the peer's %d traces (%v)", len(partial.Traces), err)
	}
	if items, err = c.FetchManifests(ksb, true); err != nil || len(items) != 1 {
		t.Fatalf("inter-app FETCHMANIFESTS for another application: %d items, %v", len(items), err)
	}
	if info, err := c.Lookup(ksb, true); err != nil || info.File != ks.ManifestFileName() {
		t.Fatalf("inter-app LOOKUP: %+v, %v", info, err)
	}
	if got := lookupTraces("after the peer's commit"); got != len(partial.Traces) {
		t.Errorf("LOOKUP after the peer's commit: %d traces, want %d", got, len(partial.Traces))
	}
	if st := stats("after the peer's commit"); st.Files != 1 || st.Traces != len(partial.Traces) {
		t.Errorf("STATS after the peer's commit: files=%d traces=%d, want 1 and %d", st.Files, st.Traces, len(partial.Traces))
	}
	want := []cacheserver.UtilityEntry{{Stem: stem, Hits: 2, Traces: len(partial.Traces)}}
	if u := utility(); len(u) != 1 || u[0].Stem != want[0].Stem || u[0].Hits != want[0].Hits || u[0].Traces != want[0].Traces {
		t.Errorf("UTILITY after the peer's commit: %+v, want %+v (both FETCHMANIFESTS counted)", u, want)
	}

	commitFile(t, peer, cf)
	if got := lookupTraces("after the peer's accumulation"); got != len(cf.Traces) {
		t.Errorf("LOOKUP after the peer's accumulation: %d traces, want %d", got, len(cf.Traces))
	}

	if err := peer.RemoveEntry(ks.ManifestFileName()); err != nil {
		t.Fatal(err)
	}
	if u := utility(); len(u) != 0 {
		t.Errorf("UTILITY after the peer's removal: %+v, want nothing", u)
	}
	if st := stats("after the peer's removal"); st.Files != 0 || st.Traces != 0 {
		t.Errorf("STATS after the peer's removal: files=%d traces=%d, want 0", st.Files, st.Traces)
	}
	if _, err := c.Lookup(ks, false); !errors.Is(err, core.ErrNoCache) {
		t.Errorf("LOOKUP after the peer's removal: %v, want ErrNoCache", err)
	}
}

// commitFile commits cf into mgr as a daemon commits a publish of it.
func commitFile(t testing.TB, mgr *core.Manager, cf *core.CacheFile) {
	t.Helper()
	pub, err := core.NewPublication(cf, false)
	if err == nil {
		_, err = mgr.CommitPublication(pub)
	}
	if err != nil {
		t.Fatal(err)
	}
}
