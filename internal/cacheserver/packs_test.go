package cacheserver_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"persistcc/internal/cacheserver"
	"persistcc/internal/core"
	"persistcc/internal/loader"
	"persistcc/internal/store"
	"persistcc/internal/workload"
)

// Tests for FETCHPACKS from the untrusted side of the wire: packs a daemon
// sends are verified whole before the client's store takes any of them,
// a daemon never serves a pack its own disk corrupted, a daemon that does
// not speak the op still leaves the client a working prime, and one that
// holds only loose blobs serves them once repair has folded them.

// proxyDaemon fronts the daemon at upstream: requests of op are answered
// by answer, every other request is relayed over a connection of its own.
func proxyDaemon(t *testing.T, upstream string, op uint8, answer func(payload []byte) (status uint8, resp []byte)) string {
	t.Helper()
	return fakeServer(t, func(conn net.Conn, reqOp uint8, payload []byte) {
		if reqOp == op {
			status, resp := answer(payload)
			cacheserver.WriteFrameForTest(conn, status, resp)
			return
		}
		up, err := net.Dial("tcp", upstream)
		if err != nil {
			return
		}
		defer up.Close()
		if cacheserver.WriteFrameForTest(up, reqOp, payload) != nil {
			return
		}
		if status, resp, err := cacheserver.ReadFrameForTest(up); err == nil {
			cacheserver.WriteFrameForTest(conn, status, resp)
		}
	})
}

// packFile writes the pack format by hand — header, index, its crc, one
// flate stream of body — so a test can send packs no store would write.
func packFile(hashes []store.Hash, lens []uint32, body []byte) []byte {
	b := []byte("PCK1")
	b = binary.LittleEndian.AppendUint32(b, uint32(len(hashes)))
	raw := uint32(0)
	for _, n := range lens {
		raw += n
	}
	b = binary.LittleEndian.AppendUint32(b, raw)
	for i, h := range hashes {
		b = append(b, h[:]...)
		b = binary.LittleEndian.AppendUint32(b, lens[i])
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	var z bytes.Buffer
	zw, _ := flate.NewWriter(&z, flate.BestSpeed)
	zw.Write(body)
	zw.Close()
	return append(b, z.Bytes()...)
}

// publishEntry publishes one run to a store-format daemon and returns the
// run's cache file and the blob hashes its manifest references.
func publishEntry(t *testing.T, addr string, w *world) (*core.CacheFile, []store.Hash) {
	t.Helper()
	v, _ := w.ranVM(t, 50)
	cf, ks := core.BuildCacheFile(v)
	c := newClient(addr)
	defer c.Close()
	if _, err := c.Publish(cf); err != nil {
		t.Fatal(err)
	}
	items, err := c.FetchManifests(ks, false)
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.DecodeManifest(items[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	return cf, man.BlobHashes()
}

// storeEntry is publishEntry plus the encodings of the entry's blobs, as
// the daemon serves them.
func storeEntry(t *testing.T, addr string, w *world) (*core.CacheFile, []store.Hash, [][]byte) {
	t.Helper()
	cf, hashes := publishEntry(t, addr, w)
	c := newClient(addr)
	defer c.Close()
	blobs, err := c.FetchBlobs(hashes)
	if err != nil || len(blobs) != len(hashes) {
		t.Fatalf("FetchBlobs: %d of %d, %v", len(blobs), len(hashes), err)
	}
	encs := make([][]byte, len(hashes))
	for i, h := range hashes {
		encs[i] = blobs[h]
	}
	if len(hashes) < 2 {
		t.Fatalf("entry references %d blobs, the hostile packs need 2", len(hashes))
	}
	return cf, hashes, encs
}

// localMachine is a fresh machine whose database holds w's run on input 0,
// which never enters the loop: its store lacks the blobs of the loop's
// traces, so a prime on input 50 asks the daemon for the packs holding
// them, and one that cannot use what the daemon sends degrades to the local
// entry and installs every trace of it. It returns that entry's cache file.
func localMachine(t *testing.T, addr string, w *world) (*cacheserver.Fallback, *cacheserver.Client, *core.CacheFile) {
	t.Helper()
	local, err := core.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v, _ := w.ranVM(t, 0)
	cf, _ := core.BuildCacheFile(v)
	if _, err := local.CommitFile(core.NewDelta(v)); err != nil {
		t.Fatal(err)
	}
	c := newClient(addr)
	t.Cleanup(func() { c.Close() })
	return cacheserver.NewFallback(c, local), c, cf
}

// assertDegraded primes a fresh VM and checks the prime came from the local
// database, whose entry is cf, counted as one fallback, with nothing
// written to the local store's generations.
func assertDegraded(t *testing.T, f *cacheserver.Fallback, c *cacheserver.Client, w *world, cf *core.CacheFile) {
	t.Helper()
	fallbacks := func() float64 {
		v, _ := c.Metrics().Snapshot().Value("pcc_client_fallbacks_total", "prime")
		return v
	}
	storeFiles := func() []string {
		files, _ := filepath.Glob(filepath.Join(f.Local().Dir(), "store", "gen*", "*"))
		return files
	}
	before, filesBefore := fallbacks(), storeFiles()
	rep, err := f.Prime(w.freshVM(t, 50))
	if err != nil || rep.Installed != len(cf.Traces) {
		t.Fatalf("degraded prime installed %+v, %v; want all %d traces from the local database", rep, err, len(cf.Traces))
	}
	if got := fallbacks() - before; got != 1 {
		t.Errorf("fallbacks_total{prime} rose by %v, want 1", got)
	}
	if files := storeFiles(); !reflect.DeepEqual(files, filesBefore) {
		t.Errorf("the client wrote into its store: %v, was %v", files, filesBefore)
	}
}

// TestHostilePacksRefused: whatever a daemon sends in place of a good pack
// — or in place of the manifest, as a daemon older than the one-format
// database served an unmigrated entry: its legacy image — the client's
// store takes none of it and the prime degrades to the local database.
func TestHostilePacksRefused(t *testing.T) {
	_, upstream, _ := startServer(t)
	w := buildWorld(t, "hostile", 70)
	cf, hashes, encs := storeEntry(t, upstream, w)
	lens := make([]uint32, len(encs))
	for i, e := range encs {
		lens[i] = uint32(len(e))
	}
	body := bytes.Join(encs, nil)
	valid := packFile(hashes, lens, body)
	if _, err := store.DecodePack(valid); err != nil {
		t.Fatalf("the hand-written pack is not a pack: %v", err)
	}
	indexEnd := 12 + 36*len(hashes) + 4

	flipped := append([]byte(nil), body...)
	flipped[len(encs[0])/2] ^= 0x01
	badCRC := append([]byte(nil), valid...)
	badCRC[indexEnd-1] ^= 0xff
	twice := append([]store.Hash(nil), hashes...)
	twice[1] = twice[0]
	type answer struct {
		op   uint8
		resp []byte
	}
	answers := make(map[string]answer)
	for name, pack := range map[string][]byte{
		"flipped member byte": packFile(hashes, lens, flipped),
		"bad index crc":       badCRC,
		"hash listed twice":   packFile(twice, lens, body),
		"rawLen past limit":   packFile(hashes[:1], []uint32{3 << 20}, body),
		"truncated stream":    valid[:len(valid)-5],
	} {
		if _, err := store.DecodePack(pack); err == nil {
			t.Fatalf("%s: the hostile pack decodes", name)
		}
		answers[name] = answer{cacheserver.OpFetchPacks, cacheserver.EncodePackFilesForTest([][]byte{pack})}
	}
	image, err := cf.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Kind 0 was a legacy image's; it is now an unknown kind.
	answers["legacy item"] = answer{cacheserver.OpFetchManifests, cacheserver.EncodeManifestItemsForTest(
		[]cacheserver.ManifestItem{{Kind: 0, Data: image}})}
	for name, a := range answers {
		t.Run(name, func(t *testing.T) {
			addr := proxyDaemon(t, upstream, a.op, func([]byte) (uint8, []byte) {
				return cacheserver.StatusOK, a.resp
			})
			f, c, local := localMachine(t, addr, w)
			assertDegraded(t, f, c, w, local)
		})
	}
}

// TestFetchPacksRefusedDegrades: a daemon that answers FETCHPACKS with
// StatusError — one that predates the op — leaves a new client a prime from
// its local database.
func TestFetchPacksRefusedDegrades(t *testing.T) {
	_, upstream, _ := startServer(t)
	w := buildWorld(t, "oldaemon", 71)
	publishEntry(t, upstream, w)
	addr := proxyDaemon(t, upstream, cacheserver.OpFetchPacks, func([]byte) (uint8, []byte) {
		return cacheserver.StatusError, cacheserver.EncodeErrorForTest("unknown op 13")
	})
	f, c, local := localMachine(t, addr, w)
	assertDegraded(t, f, c, w, local)
}

// TestCorruptDaemonPackQuarantined: a pack the daemon's own disk corrupted
// is caught the first time it would be served, moved to the daemon's
// quarantine, and never sent.
func TestCorruptDaemonPackQuarantined(t *testing.T) {
	_, addr, mgr := startServer(t)
	w := buildWorld(t, "rotten", 72)
	_, hashes := publishEntry(t, addr, w)
	packs, _ := filepath.Glob(filepath.Join(mgr.Dir(), "store", "gen*", "*.pck"))
	if len(packs) != 1 {
		t.Fatalf("daemon holds %d packs, want 1", len(packs))
	}
	data, err := os.ReadFile(packs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x5a // the stream's tail: the index still reads
	if err := os.WriteFile(packs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, c, local := localMachine(t, addr, w)
	assertDegraded(t, f, c, w, local)
	if _, err := os.Stat(packs[0]); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the corrupt pack is still addressable: %v", err)
	}
	if q, _ := filepath.Glob(filepath.Join(mgr.Dir(), "store", "quarantine", "*.pck")); len(q) != 1 {
		t.Errorf("daemon quarantine holds %d packs, want 1", len(q))
	}
	got, err := c.FetchPacks(core.KeySet{}, hashes)
	if err != nil || len(got) != 0 {
		t.Errorf("after quarantine the daemon served %d packs (%v), want none", len(got), err)
	}
}

// TestLooseBlobsServedOnceFolded: a daemon whose store holds its blobs as
// the loose .pcb files of an earlier version serves no pack for them; once
// repair (RecoverIndex) has folded them, it sends the one pack that holds
// them all, and a fresh client primes warm from it.
func TestLooseBlobsServedOnceFolded(t *testing.T) {
	srv, addr, mgr := startServer(t)
	w := buildWorld(t, "loose", 73)
	cf, hashes, encs := storeEntry(t, addr, w)
	srv.Close()
	gen := filepath.Join(mgr.Dir(), "store", "gen0000")
	packs, _ := filepath.Glob(filepath.Join(gen, "*.pck"))
	for _, p := range packs {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range hashes {
		if err := os.WriteFile(filepath.Join(gen, h.Hex()+".pcb"), encs[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := core.NewManager(mgr.Dir())
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := cacheserver.New(reopened)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := cacheserver.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln)
	t.Cleanup(func() { srv2.Close() })
	addr = ln.Addr().String()

	c := newClient(addr)
	defer c.Close()
	if got, err := c.FetchPacks(core.KeySet{}, hashes); err != nil || len(got) != 0 {
		t.Fatalf("unfolded loose store served %d packs (%v), want none", len(got), err)
	}
	if rep, err := reopened.RecoverIndex(); err != nil || rep.FilesQuarantined != 0 {
		t.Fatalf("repair: %+v, %v", rep, err)
	}
	got, err := c.FetchPacks(core.KeySet{}, hashes)
	if err != nil || len(got) != 1 {
		t.Fatalf("folded store served %d packs (%v), want 1", len(got), err)
	}
	p, err := store.DecodePack(got[0])
	if err != nil || len(p.Hashes) != len(hashes) {
		t.Fatalf("folded pack: %v, holds %d blobs; want all %d", err, len(p.Hashes), len(hashes))
	}

	f := newFallback(t, addr)
	warm := w.freshVM(t, 50)
	rep, err := f.Prime(warm)
	if err != nil || rep.Installed != len(cf.Traces) {
		t.Fatalf("prime from loose blobs installed %+v, %v; want all %d traces", rep, err, len(cf.Traces))
	}
	res, err := warm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TracesTranslated != 0 {
		t.Errorf("warm run translated %d traces", res.Stats.TracesTranslated)
	}
}

// countingTransport counts the FETCHPACKS round trips a Fallback makes and
// the pack files they bring.
type countingTransport struct {
	cacheserver.Transport
	fetches, packs int
}

func (c *countingTransport) FetchPacks(ks core.KeySet, hashes []store.Hash) ([][]byte, error) {
	c.fetches++
	packs, err := c.Transport.FetchPacks(ks, hashes)
	c.packs += len(packs)
	return packs, err
}

// TestInterAppPrimeFetchesOnlyKeptPacks: a remote prime judges a served
// manifest against the VM before it fetches anything, and asks only for the
// packs of the traces that install. A GUI app whose inter-application
// candidate is 176.gcc's entry, none of whose traces can install in it,
// fetches no pack at all and reports every trace exactly; gcc's own launch
// fetches its entry's packs.
func TestInterAppPrimeFetchesOnlyKeptPacks(t *testing.T) {
	gui, err := workload.BuildGUISuite()
	if err != nil {
		t.Fatal(err)
	}
	gcc, err := workload.BuildSpecBenchmark("176.gcc")
	if err != nil {
		t.Fatal(err)
	}
	_, addr, _ := startServer(t)
	c := newClient(addr)
	defer c.Close()
	ran, err := gcc.Prog.NewVM(loader.Config{}, gcc.Ref[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ran.Run(); err != nil {
		t.Fatal(err)
	}
	cf, _ := core.BuildCacheFile(ran)
	if _, err := c.Publish(cf); err != nil {
		t.Fatal(err)
	}

	fresh := func() (*cacheserver.Fallback, *countingTransport) {
		local, err := core.NewManager(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ct := &countingTransport{Transport: c}
		return cacheserver.NewFallback(ct, local), ct
	}

	fb, ct := fresh()
	app := gui.Apps[0]
	v, err := app.Prog.NewVM(loader.Config{Placement: loader.PlaceHashed}, app.Startup)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fb.PrimeInterApp(v)
	if err != nil || !rep.Found || rep.Installed != 0 || rep.CacheTraces != len(cf.Traces) || rep.Invalidated() != rep.CacheTraces {
		t.Fatalf("%s over gcc's entry: %+v, %v; want found, all %d traces invalid", app.Name, rep, err, len(cf.Traces))
	}
	if ct.fetches != 0 || ct.packs != 0 {
		t.Errorf("%s's inter-app prime fetched %d packs in %d round trips; it installs nothing", app.Name, ct.packs, ct.fetches)
	}

	fb, ct = fresh()
	own, err := gcc.Prog.NewVM(loader.Config{}, gcc.Ref[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := fb.Prime(own); err != nil || rep.Installed != len(cf.Traces) {
		t.Fatalf("gcc over its own entry: %+v, %v", rep, err)
	}
	if ct.fetches != 1 || ct.packs == 0 {
		t.Errorf("gcc's prime fetched %d packs in %d round trips, want its entry's in one", ct.packs, ct.fetches)
	}
}
