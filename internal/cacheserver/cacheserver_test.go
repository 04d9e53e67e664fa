package cacheserver_test

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"persistcc/internal/cacheserver"
	"persistcc/internal/core"
	"persistcc/internal/loader"
	"persistcc/internal/obj"
	"persistcc/internal/store"
	"persistcc/internal/testprog"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
)

const libWork = `
.text
.global compute
compute:            ; a0 = a0*2 + 1
	add  t0, a0, a0
	addi a0, t0, 1
	ret
.global coldf
coldf:
	movi a0, 99
	ret
`

const mainTmpl = `
.text
.global _start
_start:
	movi t1, 0x08000000
	ld   s0, 0(t1)      ; n iterations
	movi s1, %d
loop:
	beqz s0, done
	mv   a0, s1
	call compute
	mv   s1, a0
	addi s0, s0, -1
	j    loop
done:
	mv   a1, s1
	movi a0, 1
	sys
	halt
`

type world struct {
	exe  *obj.File
	libs []*obj.File
}

// buildWorld builds one guest application; the seed varies the program text
// so different worlds get different application keys.
func buildWorld(t testing.TB, name string, seed int) *world {
	t.Helper()
	exe, libs, err := testprog.Build(name, fmt.Sprintf(mainTmpl, seed), map[string]string{"libwork.so": libWork})
	if err != nil {
		t.Fatal(err)
	}
	return &world{exe: exe, libs: libs}
}

func (w *world) freshVM(t testing.TB, input uint64) *vm.VM {
	t.Helper()
	p, err := testprog.Load(w.exe, w.libs, loader.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return vm.New(p, vm.WithInput([]uint64{input}))
}

// ranVM runs a fresh VM to completion (cold) and returns it with its result.
func (w *world) ranVM(t testing.TB, input uint64) (*vm.VM, *vm.Result) {
	t.Helper()
	v := w.freshVM(t, input)
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	return v, res
}

// startServer launches a server over a fresh database on a loopback TCP
// port and returns it with its address and manager.
func startServer(t testing.TB, opts ...cacheserver.Option) (*cacheserver.Server, string, *core.Manager) {
	t.Helper()
	return serve(t, t.TempDir(), opts...)
}

// startLegacyServer is startServer over a database that holds cfs as legacy
// images, unmigrated: what no commit writes, and a daemon does not serve.
func startLegacyServer(t testing.TB, cfs ...*core.CacheFile) (*cacheserver.Server, string, *core.Manager) {
	t.Helper()
	dir := t.TempDir()
	for _, cf := range cfs {
		testutil.WriteLegacy(t, dir, cf)
	}
	return serve(t, dir)
}

// serve launches a server over the database at dir.
func serve(t testing.TB, dir string, opts ...cacheserver.Option) (*cacheserver.Server, string, *core.Manager) {
	t.Helper()
	mgr, err := core.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cacheserver.New(mgr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := cacheserver.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String(), mgr
}

func newClient(addr string) *cacheserver.Client {
	return cacheserver.NewClient(addr, cacheserver.WithRetry(1, time.Millisecond), cacheserver.WithDialTimeout(time.Second))
}

// fetchEntry fetches the exact entry for ks — its manifest — and reads it
// into a cache file through a fresh database in dir, adopting the daemon's
// packs as a remote prime does; every blob is verified on the way.
func fetchEntry(c *cacheserver.Client, ks core.KeySet, dir string) (*core.CacheFile, error) {
	items, err := c.FetchManifests(ks, false)
	if err != nil {
		return nil, err
	}
	if len(items) != 1 {
		return nil, fmt.Errorf("exact fetch: %d items, want 1", len(items))
	}
	if items[0].Kind != cacheserver.ItemKindManifest {
		return nil, fmt.Errorf("exact fetch: item of kind %d, want a manifest", items[0].Kind)
	}
	man, err := store.DecodeManifest(items[0].Data)
	if err != nil {
		return nil, err
	}
	local, err := core.NewManager(dir)
	if err != nil {
		return nil, err
	}
	return local.MaterializeFrom(man, func(missing []store.Hash) ([][]byte, error) {
		return c.FetchPacks(ks, missing)
	})
}

func TestPublishLookupFetchRoundTrip(t *testing.T) {
	_, addr, _ := startServer(t)
	w := buildWorld(t, "prog", 0)
	v, _ := w.ranVM(t, 50)
	cf, ks := core.BuildCacheFile(v)
	if len(cf.Traces) == 0 {
		t.Fatal("cold run produced no traces")
	}

	c := newClient(addr)
	defer c.Close()
	if _, err := c.Lookup(ks, false); !errors.Is(err, core.ErrNoCache) {
		t.Fatalf("lookup before publish: want ErrNoCache, got %v", err)
	}
	rep, err := c.Publish(cf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Traces != len(cf.Traces) || rep.File != ks.ManifestFileName() {
		t.Fatalf("publish report %+v, want %d traces in %s", rep, len(cf.Traces), ks.ManifestFileName())
	}

	li, err := c.Lookup(ks, false)
	if err != nil {
		t.Fatal(err)
	}
	if li.Traces != len(cf.Traces) || li.File != ks.ManifestFileName() {
		t.Fatalf("lookup info %+v", li)
	}

	fetched, err := fetchEntry(c, ks, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(fetched.Traces) != len(cf.Traces) {
		t.Fatalf("fetched %d traces, want %d", len(fetched.Traces), len(cf.Traces))
	}

	// The fetched file primes a fresh run end to end.
	local, err := core.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v2 := w.freshVM(t, 50)
	prep, err := local.PrimeFrom(v2, fetched)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Installed != len(cf.Traces) || prep.Invalidated() != 0 {
		t.Fatalf("prime report %+v", prep)
	}
	res, err := v2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TracesTranslated != 0 {
		t.Errorf("primed run still translated %d traces", res.Stats.TracesTranslated)
	}
}

// TestConcurrentMixedClients drives ≥8 clients doing mixed
// LOOKUP/FETCHMANIFESTS/PUBLISH against one server; every published trace must be
// observable by a subsequent fetch and no publish may be lost.
func TestConcurrentMixedClients(t *testing.T) {
	_, addr, _ := startServer(t)

	// Four applications; each run's cache file is split into per-client
	// slices published concurrently, so the server must merge without
	// losing any.
	type appState struct {
		ks     core.KeySet
		slices []*core.CacheFile
		want   int
	}
	var apps []*appState
	for i := 0; i < 4; i++ {
		w := buildWorld(t, fmt.Sprintf("prog%d", i), i)
		v, _ := w.ranVM(t, 50)
		cf, ks := core.BuildCacheFile(v)
		if len(cf.Traces) < 2 {
			t.Fatalf("app %d: need ≥2 traces, got %d", i, len(cf.Traces))
		}
		st := &appState{ks: ks, want: len(cf.Traces)}
		// Overlapping halves plus the full set: concurrent publishes with
		// partially duplicate content exercise the merge, the dedup, and
		// the accumulate paths at once.
		mid := len(cf.Traces) / 2
		for _, traces := range [][]int{{0, mid + 1}, {mid, len(cf.Traces)}, {0, len(cf.Traces)}} {
			st.slices = append(st.slices, &core.CacheFile{
				AppKey: cf.AppKey, VMKey: cf.VMKey, ToolKey: cf.ToolKey,
				AppPath: cf.AppPath, Modules: cf.Modules,
				Traces: cf.Traces[traces[0]:traces[1]],
			})
		}
		apps = append(apps, st)
	}

	const clients = 12
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(addr)
			defer c.Close()
			app := apps[ci%len(apps)]
			slice := app.slices[ci%len(app.slices)]
			if _, err := c.Publish(slice); err != nil {
				errc <- fmt.Errorf("client %d publish: %w", ci, err)
				return
			}
			// Mixed traffic: interleave lookups and fetches of every app.
			for _, other := range apps {
				if _, err := c.Lookup(other.ks, false); err != nil && !errors.Is(err, core.ErrNoCache) {
					errc <- fmt.Errorf("client %d lookup: %w", ci, err)
					return
				}
			}
			cf, err := fetchEntry(c, app.ks, t.TempDir())
			if err != nil {
				errc <- fmt.Errorf("client %d fetch: %w", ci, err)
				return
			}
			// Immediate read-your-writes: everything this client just
			// published must already be served.
			if len(cf.Traces) < len(slice.Traces) {
				errc <- fmt.Errorf("client %d: fetched %d traces after publishing %d", ci, len(cf.Traces), len(slice.Traces))
			}
		}(ci)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// No publish lost: each app's file converged to the full trace set.
	c := newClient(addr)
	defer c.Close()
	for i, app := range apps {
		cf, err := fetchEntry(c, app.ks, t.TempDir())
		if err != nil {
			t.Fatalf("app %d final fetch: %v", i, err)
		}
		if len(cf.Traces) != app.want {
			t.Errorf("app %d: %d traces after concurrent publishes, want %d", i, len(cf.Traces), app.want)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != len(apps) {
		t.Errorf("server stats: %d files, want %d", st.Files, len(apps))
	}
}

func TestInterAppLookup(t *testing.T) {
	_, addr, _ := startServer(t)
	wa := buildWorld(t, "appa", 1)
	va, _ := wa.ranVM(t, 50)
	cfa, ksa := core.BuildCacheFile(va)

	c := newClient(addr)
	defer c.Close()
	if _, err := c.Publish(cfa); err != nil {
		t.Fatal(err)
	}

	wb := buildWorld(t, "appb", 2)
	vb := wb.freshVM(t, 50)
	ksb := core.KeysFor(vb)
	if ksb.App == ksa.App {
		t.Fatal("worlds share an application key; test is vacuous")
	}
	if _, err := c.FetchManifests(ksb, false); !errors.Is(err, core.ErrNoCache) {
		t.Fatalf("exact fetch for app b: want ErrNoCache, got %v", err)
	}
	li, err := c.Lookup(ksb, true)
	if err != nil {
		t.Fatalf("inter-app lookup: %v", err)
	}
	if li.File != ksa.ManifestFileName() {
		t.Errorf("inter-app lookup found %s, want %s", li.File, ksa.ManifestFileName())
	}
}

func TestStatsParityWithLocalManager(t *testing.T) {
	_, addr, mgr := startServer(t)
	w := buildWorld(t, "prog", 3)
	v, _ := w.ranVM(t, 30)
	cf, _ := core.BuildCacheFile(v)
	c := newClient(addr)
	defer c.Close()
	if _, err := c.Publish(cf); err != nil {
		t.Fatal(err)
	}
	remote, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	local, err := mgr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	local.Store.Packs, local.Store.LooseBlobs = 0, 0 // not carried by the wire
	if !reflect.DeepEqual(remote, local) {
		t.Errorf("stats diverge:\nserver: %+v\nlocal:  %+v", remote, local)
	}
	// A database the daemon wrote is clean: repair finds nothing to do.
	rrep, err := mgr.RecoverIndex()
	if err != nil {
		t.Fatal(err)
	}
	if rrep.FilesQuarantined != 0 || rrep.TmpFilesRemoved != 0 || rrep.EntriesVerified != remote.Files {
		t.Errorf("repair of the daemon's database: %+v", rrep)
	}
}

// --- fallback paths -------------------------------------------------------

// runWithFallback executes one full persistent run through a Fallback
// manager, failing the test on any surfaced error.
func runWithFallback(t testing.TB, f *cacheserver.Fallback, w *world, input uint64) (*vm.Result, *core.PrimeReport, *core.CommitReport) {
	t.Helper()
	v := w.freshVM(t, input)
	prep, err := f.Prime(v)
	if err != nil && !errors.Is(err, core.ErrNoCache) {
		t.Fatalf("prime surfaced error: %v", err)
	}
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	crep, err := f.Commit(v)
	if err != nil {
		t.Fatalf("commit surfaced error: %v", err)
	}
	return res, prep, crep
}

func newFallback(t testing.TB, addr string) *cacheserver.Fallback {
	t.Helper()
	local, err := core.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return cacheserver.NewFallback(newClient(addr), local)
}

func TestFallbackServerUnreachable(t *testing.T) {
	// A listener that was closed immediately: connection refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	f := newFallback(t, addr)
	w := buildWorld(t, "prog", 4)
	first, _, crep := runWithFallback(t, f, w, 40)
	if crep.Traces == 0 {
		t.Fatal("fallback commit stored nothing")
	}
	// Second run must reuse the locally committed cache.
	second, prep, _ := runWithFallback(t, f, w, 40)
	if prep == nil || prep.Installed == 0 {
		t.Fatalf("second run did not prime from the local fallback: %+v", prep)
	}
	if second.Stats.TracesTranslated != 0 {
		t.Errorf("second run translated %d traces despite local cache", second.Stats.TracesTranslated)
	}
	if second.Stats.RemoteFallbacks == 0 {
		t.Error("remote fallback not recorded in stats")
	}
	if first.ExitCode != second.ExitCode {
		t.Errorf("exit codes diverged: %d vs %d", first.ExitCode, second.ExitCode)
	}
}

// fakeServer speaks just enough of the protocol to inject one scripted
// response per connection, then closes the connection.
func fakeServer(t *testing.T, respond func(conn net.Conn, op uint8, payload []byte)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					op, payload, err := cacheserver.ReadFrameForTest(conn)
					if err != nil {
						return
					}
					respond(conn, op, payload)
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func TestFallbackCorruptCacheFileFrame(t *testing.T) {
	garbage := []byte("this is not a cache file at all, not even close......")
	addr := fakeServer(t, func(conn net.Conn, op uint8, payload []byte) {
		// Well-formed frame, corrupt content: the integrity trailer check
		// must reject it client-side.
		cacheserver.WriteFrameForTest(conn, cacheserver.StatusOK, garbage)
	})
	f := newFallback(t, addr)
	w := buildWorld(t, "prog", 5)
	_, _, crep := runWithFallback(t, f, w, 40)
	if crep.Traces == 0 {
		t.Fatal("fallback commit stored nothing")
	}
	second, prep, _ := runWithFallback(t, f, w, 40)
	if prep.Installed == 0 || second.Stats.TracesTranslated != 0 {
		t.Fatalf("local fallback did not serve the second run: prime=%+v translated=%d", prep, second.Stats.TracesTranslated)
	}
}

func TestFallbackMidStreamDisconnect(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn, op uint8, payload []byte) {
		// Claim a large response, send a sliver, sever the connection.
		conn.Write([]byte{0xff, 0xff, 0x00, 0x00, cacheserver.StatusOK, 1, 2, 3})
		conn.Close()
	})
	f := newFallback(t, addr)
	w := buildWorld(t, "prog", 6)
	_, _, crep := runWithFallback(t, f, w, 40)
	if crep.Traces == 0 {
		t.Fatal("fallback commit stored nothing")
	}
	second, prep, _ := runWithFallback(t, f, w, 40)
	if prep.Installed == 0 || second.Stats.TracesTranslated != 0 {
		t.Fatalf("local fallback did not serve the second run: prime=%+v translated=%d", prep, second.Stats.TracesTranslated)
	}
}

// TestDaemonKilledMidRun kills the server between a run's prime and commit;
// the run must finish and commit through the local fallback, and the next
// run must stay fully functional.
func TestDaemonKilledMidRun(t *testing.T) {
	srv, addr, _ := startServer(t)
	f := newFallback(t, addr)
	w := buildWorld(t, "prog", 7)

	// Warm the server so the next prime has something to fetch.
	_, _, crep := runWithFallback(t, f, w, 40)
	if crep.Traces == 0 {
		t.Fatal("warm-up commit stored nothing")
	}

	v := w.freshVM(t, 40)
	prep, err := f.Prime(v)
	if err != nil {
		t.Fatalf("prime against live server: %v", err)
	}
	if prep.Installed == 0 {
		t.Fatalf("prime installed nothing: %+v", prep)
	}
	srv.Close() // daemon dies mid-run
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	crep, err = f.Commit(v)
	if err != nil {
		t.Fatalf("commit after daemon death surfaced error: %v", err)
	}
	if crep.Traces == 0 {
		t.Fatal("commit after daemon death stored nothing")
	}
	// The commit must have degraded to the local database.
	entries, err := f.Local().Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Error("commit after daemon death did not land in the local fallback database")
	}

	// And the whole cycle keeps working with the daemon still dead.
	second, prep2, _ := runWithFallback(t, f, w, 40)
	if prep2.Installed == 0 || second.Stats.TracesTranslated != 0 {
		t.Fatalf("post-kill run not served locally: prime=%+v translated=%d", prep2, second.Stats.TracesTranslated)
	}
}

// TestFetchManifestsOrder covers the read path's ordering contract: the
// exact entry must come first, inter-application candidates follow, and an
// empty result is ErrNoCache — on both sides of the wire.
func TestFetchManifestsOrder(t *testing.T) {
	_, addr, _ := startServer(t)
	c := newClient(addr)
	defer c.Close()
	// fetch decodes every item the daemon sends for a key request.
	fetch := func(ks core.KeySet, interApp bool) ([]*store.Manifest, error) {
		items, err := c.FetchManifests(ks, interApp)
		if err != nil {
			return nil, err
		}
		var files []*store.Manifest
		for _, it := range items {
			man, err := store.DecodeManifest(it.Data)
			if it.Kind != cacheserver.ItemKindManifest || err != nil {
				t.Fatalf("daemon sent an item of kind %d that is not a manifest", it.Kind)
			}
			files = append(files, man)
		}
		return files, nil
	}

	wa := buildWorld(t, "appa", 1)
	va, _ := wa.ranVM(t, 50)
	cfa, ksa := core.BuildCacheFile(va)
	if _, err := fetch(ksa, true); !errors.Is(err, core.ErrNoCache) {
		t.Fatalf("fetch on empty server: want ErrNoCache, got %v", err)
	}
	if _, err := c.Publish(cfa); err != nil {
		t.Fatal(err)
	}

	files, err := fetch(ksa, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || len(files[0].Traces) != len(cfa.Traces) {
		t.Fatalf("exact-only fetch: got %d files, first has %d traces, want 1 file with %d",
			len(files), len(files[0].Traces), len(cfa.Traces))
	}

	wb := buildWorld(t, "appb", 2)
	vbr, _ := wb.ranVM(t, 50)
	cfb, ksb := core.BuildCacheFile(vbr)
	if ksb.App == ksa.App {
		t.Fatal("worlds share an application key; test is vacuous")
	}
	if _, err := c.Publish(cfb); err != nil {
		t.Fatal(err)
	}

	// App A with inter-app enabled: its own entry first, B's behind it.
	files, err = fetch(ksa, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("fetch with inter-app: got %d files, want 2", len(files))
	}
	if len(files[0].Traces) != len(cfa.Traces) {
		t.Errorf("exact entry not first: %d traces, want %d", len(files[0].Traces), len(cfa.Traces))
	}
	if len(files[1].Traces) != len(cfb.Traces) {
		t.Errorf("inter-app candidate wrong: %d traces, want %d", len(files[1].Traces), len(cfb.Traces))
	}

	// An app the server has never seen: nothing exact-only, candidates via
	// the shared library with inter-app enabled.
	wc := buildWorld(t, "appc", 3)
	vc := wc.freshVM(t, 50)
	ksc := core.KeysFor(vc)
	if _, err := fetch(ksc, false); !errors.Is(err, core.ErrNoCache) {
		t.Fatalf("exact-only fetch for unknown app: want ErrNoCache, got %v", err)
	}
	files, err = fetch(ksc, true)
	if err != nil {
		t.Fatalf("inter-app fetch for unknown app: %v", err)
	}
	if len(files) == 0 {
		t.Fatal("no inter-app candidates despite shared library")
	}

	// The fetched entry primes a fresh run end to end.
	local, err := core.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v2 := wa.freshVM(t, 50)
	fetched, err := fetchEntry(c, core.KeysFor(v2), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.PrimeFrom(v2, fetched); err != nil {
		t.Fatal(err)
	}
	res, err := v2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TracesTranslated != 0 {
		t.Errorf("primed run still translated %d traces", res.Stats.TracesTranslated)
	}
}

// TestInterAppPrimeScopes pins what each prime moves and credits: a
// non-bulk inter-application prime (ScopeBest) receives only the best
// candidate and bumps only its utility hit count, so global eviction ranks
// entries as it did when that prime was a single-entry FETCH; a bulk prime
// (ScopeInterApp) receives and credits every candidate.
func TestInterAppPrimeScopes(t *testing.T) {
	_, addr, _ := startServer(t)
	c := newClient(addr)
	defer c.Close()
	traces := map[string]int{}
	for i, name := range []string{"appa", "appb"} {
		v, _ := buildWorld(t, name, i+1).ranVM(t, uint64(50+10*i))
		cf, ks := core.BuildCacheFile(v)
		if _, err := c.Publish(cf); err != nil {
			t.Fatal(err)
		}
		traces[core.FileStem(ks.CacheFileName())] = len(cf.Traces)
	}
	best := ""
	for stem, n := range traces {
		if best == "" || n > traces[best] || (n == traces[best] && stem < best) {
			best = stem
		}
	}
	hits := func() map[string]uint64 {
		t.Helper()
		entries, err := c.UtilitySummary()
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]uint64{}
		for _, e := range entries {
			out[e.Stem] = e.Hits
		}
		return out
	}

	wc := buildWorld(t, "appc", 3)
	ksc := core.KeysFor(wc.freshVM(t, 50))
	all, err := c.FetchEntries(ksc, cacheserver.ScopeInterApp)
	if err != nil || len(all) != 2 {
		t.Fatalf("ScopeInterApp for an unknown app: %d items, %v; want both candidates", len(all), err)
	}
	one, err := c.FetchEntries(ksc, cacheserver.ScopeBest)
	if err != nil || len(one) != 1 || !reflect.DeepEqual(one[0], all[0]) {
		t.Fatalf("ScopeBest: %d items, %v; want ScopeInterApp's first alone", len(one), err)
	}

	f := newFallback(t, addr)
	before := hits()
	v := wc.freshVM(t, 50)
	if _, err := f.PrimeInterApp(v); err != nil {
		t.Fatalf("non-bulk inter-app prime: %v", err)
	}
	if v.Stats().RemoteHits == 0 {
		t.Fatal("non-bulk inter-app prime installed nothing remotely; the test exercised nothing")
	}
	after := hits()
	for stem := range traces {
		want := uint64(0)
		if stem == best {
			want = 1
		}
		if got := after[stem] - before[stem]; got != want {
			t.Errorf("non-bulk inter-app prime credited %s with %d hits, want %d", stem, got, want)
		}
	}

	if _, err := f.PrimeStoreBulk(wc.freshVM(t, 50), true); err != nil {
		t.Fatalf("bulk inter-app prime: %v", err)
	}
	bulk := hits()
	for stem := range traces {
		if got := bulk[stem] - after[stem]; got != 1 {
			t.Errorf("bulk inter-app prime credited %s with %d hits, want 1", stem, got)
		}
	}
}
