package cacheserver_test

import (
	"bytes"
	"errors"
	"io/fs"
	"net"
	"path/filepath"
	"reflect"
	"testing"

	"persistcc/internal/cacheserver"
	"persistcc/internal/core"
	"persistcc/internal/loader"
	"persistcc/internal/store"
	"persistcc/internal/workload"
)

// Tests for the store-aware wire ops (FETCHMANIFESTS / FETCHPACKS) and the
// PrimeStoreBulk warm path that rides on them: manifests cross the wire in
// compact form, blobs cross once per machine inside the daemon's packs, and
// a daemon over an unmigrated database serves none of its legacy images.

func TestFetchManifestsAndBlobsRoundTrip(t *testing.T) {
	_, addr, _ := startServer(t)
	w := buildWorld(t, "storeprog", 0)
	v, _ := w.ranVM(t, 50)
	cf, ks := core.BuildCacheFile(v)
	if len(cf.Traces) == 0 {
		t.Fatal("cold run produced no traces")
	}
	c := newClient(addr)
	defer c.Close()
	if _, err := c.Publish(cf); err != nil {
		t.Fatalf("publish: %v", err)
	}

	items, err := c.FetchManifests(ks, false)
	if err != nil {
		t.Fatalf("FetchManifests: %v", err)
	}
	if len(items) != 1 {
		t.Fatalf("got %d manifest items, want 1", len(items))
	}
	if items[0].Kind != cacheserver.ItemKindManifest {
		t.Fatalf("item kind = %d, want manifest (%d)", items[0].Kind, cacheserver.ItemKindManifest)
	}
	man, err := store.DecodeManifest(items[0].Data)
	if err != nil {
		t.Fatalf("decode fetched manifest: %v", err)
	}
	hashes := man.BlobHashes()
	if len(hashes) == 0 {
		t.Fatal("fetched manifest references no blobs")
	}

	// Every referenced blob is servable and content-verified.
	blobs, err := c.FetchBlobs(hashes)
	if err != nil {
		t.Fatalf("FetchBlobs: %v", err)
	}
	for _, h := range hashes {
		enc, ok := blobs[h]
		if !ok {
			t.Fatalf("blob %s missing from response", h)
		}
		if store.Sum(enc) != h {
			t.Errorf("blob %s: returned bytes hash to %s", h, store.Sum(enc))
		}
		if _, err := store.DecodeBlob(enc); err != nil {
			t.Errorf("blob %s: undecodable: %v", h, err)
		}
	}

	// Hashes the server does not hold are absent, not errors.
	var bogus store.Hash
	copy(bogus[:], bytes.Repeat([]byte{0xAB}, len(bogus)))
	got, err := c.FetchBlobs([]store.Hash{bogus, hashes[0]})
	if err != nil {
		t.Fatalf("FetchBlobs with unknown hash: %v", err)
	}
	if _, ok := got[bogus]; ok {
		t.Error("server invented bytes for an unknown hash")
	}
	if _, ok := got[hashes[0]]; !ok {
		t.Error("known hash dropped when batched with an unknown one")
	}
}

func TestFetchManifestsFromLegacyServer(t *testing.T) {
	// A daemon over an unmigrated database indexes none of its legacy
	// images: LOOKUP and FETCHMANIFESTS miss, STATS counts no entry, and
	// FETCHPACKS has nothing to send — its clients run cold until the
	// database is migrated.
	w := buildWorld(t, "legacysrv", 1)
	v, _ := w.ranVM(t, 50)
	cf, ks := core.BuildCacheFile(v)
	_, addr, _ := startLegacyServer(t, cf)
	c := newClient(addr)
	defer c.Close()

	if items, err := c.FetchManifests(ks, true); !errors.Is(err, core.ErrNoCache) {
		t.Fatalf("FetchManifests: %d items, %v; want ErrNoCache", len(items), err)
	}
	if info, err := c.Lookup(ks, false); !errors.Is(err, core.ErrNoCache) {
		t.Fatalf("Lookup: %+v, %v; want ErrNoCache", info, err)
	}
	if st, err := c.Stats(); err != nil || st.Files != 0 {
		t.Fatalf("Stats: %+v, %v; want no entry", st, err)
	}

	var h store.Hash
	blobs, err := c.FetchBlobs([]store.Hash{h})
	if err != nil {
		t.Fatalf("FetchBlobs on legacy server: %v", err)
	}
	if len(blobs) != 0 {
		t.Errorf("legacy server returned %d blobs, want 0", len(blobs))
	}
}

func TestPrimeFromStoreServer(t *testing.T) {
	// A client's plain Prime takes the one read path: the manifest crosses
	// the wire, the client materializes it, and only the packs holding the
	// blobs it is missing follow — adopted into <CacheDir>/store, which the
	// prime creates.
	srv, addr, _ := startServer(t)
	w := buildWorld(t, "oldclient", 2)
	v, res := w.ranVM(t, 50)
	cf, ks := core.BuildCacheFile(v)
	c := newClient(addr)
	defer c.Close()
	if _, err := c.Publish(cf); err != nil {
		t.Fatalf("publish: %v", err)
	}
	items, err := c.FetchManifests(ks, false)
	if err != nil || len(items) != 1 || items[0].Kind != cacheserver.ItemKindManifest {
		t.Fatalf("FetchManifests against store server: %d items, %v", len(items), err)
	}
	man, err := store.DecodeManifest(items[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Metrics().Snapshot()

	f := newFallback(t, addr)
	warm := w.freshVM(t, 50)
	prep, err := f.Prime(warm)
	if err != nil {
		t.Fatalf("Prime: %v", err)
	}
	if !prep.Found || prep.Installed != len(cf.Traces) {
		t.Fatalf("prime installed %+v, want all %d traces", prep, len(cf.Traces))
	}
	wres, err := warm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wres.Output, res.Output) {
		t.Errorf("warmed output %v, want %v", wres.Output, res.Output)
	}

	st, err := f.Local().Store()
	if err != nil {
		t.Fatalf("no local store after priming from manifests: %v", err)
	}
	if missing := st.Missing(man, nil); len(missing) != 0 {
		t.Errorf("%d blobs not written through to the local store", len(missing))
	}

	// The daemon saw manifest and blob reads, and nothing else.
	reads := map[string]float64{}
	for _, fam := range srv.Metrics().Snapshot().Sub(before).Families {
		if fam.Name != "pcc_server_requests_total" {
			continue
		}
		for _, s := range fam.Series {
			if s.Value > 0 {
				reads[s.Labels[0]] += s.Value
			}
		}
	}
	if len(reads) != 2 || reads["fetchmanifests"] == 0 || reads["fetchpacks"] == 0 {
		t.Errorf("daemon requests during the prime: %v, want only fetchmanifests and fetchpacks", reads)
	}
}

func TestPrimeStoreBulkWritesThroughLocalStore(t *testing.T) {
	_, addr, _ := startServer(t)
	w := buildWorld(t, "storewarm", 3)
	v, res := w.ranVM(t, 50)
	cf, _ := core.BuildCacheFile(v)
	c := newClient(addr)
	if _, err := c.Publish(cf); err != nil {
		t.Fatalf("publish: %v", err)
	}
	c.Close()

	f := newFallback(t, addr)
	warm := w.freshVM(t, 50)
	prep, err := f.PrimeStoreBulk(warm, false)
	if err != nil {
		t.Fatalf("PrimeStoreBulk: %v", err)
	}
	if !prep.Found || prep.Installed == 0 {
		t.Fatalf("store bulk prime installed nothing: %+v", prep)
	}
	wres, err := warm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wres.Output, res.Output) {
		t.Errorf("warmed output %v, want %v", wres.Output, res.Output)
	}
	if warm.Stats().RemoteHits == 0 {
		t.Error("warm run recorded no remote hit")
	}

	// The fetched blobs were written through to the machine-local store,
	// so the next run on this machine resolves them without the wire.
	st, err := f.Local().Store()
	if err != nil {
		t.Fatalf("local store missing after store prime: %v", err)
	}
	if got := st.Stats().Blobs; got == 0 {
		t.Fatal("no blobs written through to the local store")
	}
}

func TestPrimeStoreBulkDegradesToLocal(t *testing.T) {
	// Server unreachable: PrimeStoreBulk falls back to the local database,
	// which already holds the entry from an earlier commit.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	f := newFallback(t, addr)
	w := buildWorld(t, "storedown", 4)
	v, res := w.ranVM(t, 50)
	if _, err := f.Local().Commit(v); err != nil {
		t.Fatalf("local commit: %v", err)
	}

	warm := w.freshVM(t, 50)
	prep, err := f.PrimeStoreBulk(warm, false)
	if err != nil && !errors.Is(err, core.ErrNoCache) {
		t.Fatalf("degraded prime surfaced error: %v", err)
	}
	if prep == nil || !prep.Found || prep.Installed == 0 {
		t.Fatalf("degraded prime installed nothing: %+v", prep)
	}
	wres, err := warm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wres.Output, res.Output) {
		t.Errorf("degraded-warm output %v, want %v", wres.Output, res.Output)
	}
}

// TestGUIStoreSavesDiskAndWire: the five GUI startups share most of their
// library code (the paper's Table 4). Committed into one daemon's
// database, they take at least 30 % less disk than their five images; and
// one fresh machine priming all five from the daemon receives fewer bytes
// than those images, because each shared trace is stored once and crosses
// the wire once.
func TestGUIStoreSavesDiskAndWire(t *testing.T) {
	const minDiskSaved = 0.30
	gui, err := workload.BuildGUISuite()
	if err != nil {
		t.Fatal(err)
	}
	cfg := loader.Config{Placement: loader.PlaceHashed}
	dir := t.TempDir()
	mgr, err := core.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	var imageBytes uint64
	for _, app := range gui.Apps {
		v, err := app.Prog.NewVM(cfg, app.Startup)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Run(); err != nil {
			t.Fatal(err)
		}
		d := core.NewDelta(v)
		image, err := d.CacheFile().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		imageBytes += uint64(len(image))
		if _, err := mgr.CommitFile(d); err != nil {
			t.Fatal(err)
		}
	}
	var diskBytes uint64
	err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		if ext := filepath.Ext(path); ext == ".pcm" || ext == ".pck" {
			info, err := e.Info()
			if err != nil {
				return err
			}
			diskBytes += uint64(info.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if saved := 1 - float64(diskBytes)/float64(imageBytes); saved < minDiskSaved {
		t.Errorf("the store holds %d bytes against %d in images: %.1f%% saved, want >= %.0f%%",
			diskBytes, imageBytes, 100*saved, 100*minDiskSaved)
	}

	srv, addr, _ := serve(t, dir)
	sent := func() float64 {
		v, _ := srv.Metrics().Snapshot().Value("pcc_server_frame_bytes_total", "out")
		return v
	}
	f := newFallback(t, addr)
	for _, app := range gui.Apps {
		v, err := app.Prog.NewVM(cfg, app.Startup)
		if err != nil {
			t.Fatal(err)
		}
		if prep, err := f.Prime(v); err != nil || prep.Installed == 0 {
			t.Fatalf("%s: prime from the daemon: %+v, %v", app.Name, prep, err)
		}
	}
	if wire := sent(); wire >= float64(imageBytes) {
		t.Errorf("priming the five apps moved %.0f bytes from the daemon, their images %d; want fewer", wire, imageBytes)
	}
}
