package fleet_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"persistcc/internal/cacheserver"
	"persistcc/internal/cacheserver/fleet"
	"persistcc/internal/core"
	"persistcc/internal/loader"
	"persistcc/internal/metrics"
	tracelog "persistcc/internal/metrics/trace"
	"persistcc/internal/obj"
	"persistcc/internal/store"
	"persistcc/internal/testprog"
	"persistcc/internal/vm"
)

const libWork = `
.text
.global compute
compute:            ; a0 = a0*2 + 1
	add  t0, a0, a0
	addi a0, t0, 1
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
// so different worlds get different application keys (and so ring stems).
func buildWorld(t testing.TB, name string, seed int) *world {
	t.Helper()
	exe, libs, err := testprog.Build(name, fmt.Sprintf(mainTmpl, seed), map[string]string{"libwork.so": libWork})
	if err != nil {
		t.Fatal(err)
	}
	return &world{exe: exe, libs: libs}
}

func (w *world) freshVM(t testing.TB, opts ...vm.Option) *vm.VM {
	t.Helper()
	p, err := testprog.Load(w.exe, w.libs, loader.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return vm.New(p, append([]vm.Option{vm.WithInput([]uint64{25})}, opts...)...)
}

// cacheFile cold-runs the world and snapshots its traces.
func (w *world) cacheFile(t testing.TB) (*core.CacheFile, core.KeySet) {
	t.Helper()
	v := w.freshVM(t)
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	cf, ks := core.BuildCacheFile(v)
	if len(cf.Traces) == 0 {
		t.Fatal("cold run produced no traces")
	}
	return cf, ks
}

// shard is one in-process daemon the tests can kill.
type shard struct {
	srv  *cacheserver.Server
	addr string
	mgr  *core.Manager
}

func startShard(t testing.TB, sopts ...cacheserver.Option) *shard {
	t.Helper()
	mgr, err := core.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cacheserver.New(mgr, sopts...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := cacheserver.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return &shard{srv: srv, addr: ln.Addr().String(), mgr: mgr}
}

// reader is the read surface a one-shard fleet and a direct client share.
type reader interface {
	FetchEntries(ks core.KeySet, scope cacheserver.Scope) ([]cacheserver.ManifestItem, error)
}

// fetchManifest reads the exact entry for ks — its manifest — and decodes
// it.
func fetchManifest(r reader, ks core.KeySet) (*store.Manifest, error) {
	items, err := r.FetchEntries(ks, cacheserver.ScopeExact)
	if err != nil {
		return nil, err
	}
	if len(items) != 1 || items[0].Kind != cacheserver.ItemKindManifest {
		return nil, fmt.Errorf("exact read: %d items, want one manifest", len(items))
	}
	return store.DecodeManifest(items[0].Data)
}

func startFleet(t testing.TB, n int, opts ...fleet.Option) (*fleet.Client, []*shard) {
	t.Helper()
	cfg := &fleet.Config{}
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = startShard(t)
		cfg.Shards = append(cfg.Shards, fleet.Shard{ID: fmt.Sprintf("s%d", i), Addr: shards[i].addr})
	}
	opts = append([]fleet.Option{fleet.WithShardOptions(
		cacheserver.WithRetry(0, 0), cacheserver.WithDialTimeout(time.Second))}, opts...)
	fl, err := fleet.New(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	return fl, shards
}

func TestConfigParseValidateDefaults(t *testing.T) {
	cfg, err := fleet.ParseConfig([]byte(`{
		"shards": [
			{"id": "a", "addr": "127.0.0.1:1"},
			{"id": "b", "addr": "127.0.0.1:2"},
			{"id": "c", "addr": "127.0.0.1:3"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.EffectiveReplicas(); got != fleet.DefaultReplicas {
		t.Errorf("default replicas = %d, want %d", got, fleet.DefaultReplicas)
	}
	if single := fleet.Single("127.0.0.1:9"); single.Validate() != nil || len(single.Shards) != 1 ||
		single.Shards[0] != (fleet.Shard{ID: "127.0.0.1:9", Addr: "127.0.0.1:9"}) {
		t.Errorf("Single = %+v, want one shard whose ID is its address", single)
	}

	// Replicas clamp to the shard count; a single-shard fleet always has 1.
	one := &fleet.Config{Shards: []fleet.Shard{{ID: "solo", Addr: "127.0.0.1:1"}}, Replicas: 3}
	if got := one.EffectiveReplicas(); got != 1 {
		t.Errorf("one-shard replicas = %d, want 1", got)
	}

	for _, bad := range []string{
		`{}`, // no shards
		`{"shards": [{"id": "a", "addr": "x:1"}, {"id": "a", "addr": "x:2"}]}`,   // dup id
		`{"shards": [{"id": "a", "addr": "x:1"}, {"id": "b", "addr": "x:1"}]}`,   // dup addr
		`{"shards": [{"id": "", "addr": "x:1"}]}`,                                // empty id
		`{"shards": [{"id": "a", "addr": ""}]}`,                                  // empty addr
		`{"shards": [{"id": "a", "addr": "x:1"}], "replicas": -1}`,               // negative
		`{"shards": [{"id": "a", "addr": "x:1"}], "virtual_nodes": -5}`,          // negative
		`{"shards": [{"id": "a", "addr": "x:1"}], "virtual_nodes": 1, "x": "y"}`, // unknown key
	} {
		if _, err := fleet.ParseConfig([]byte(bad)); err == nil {
			t.Errorf("ParseConfig(%s): want error, got nil", bad)
		}
	}
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	cfg := func() *fleet.Config {
		c := &fleet.Config{Replicas: 2}
		for i := 0; i < 4; i++ {
			c.Shards = append(c.Shards, fleet.Shard{ID: fmt.Sprintf("s%d", i), Addr: fmt.Sprintf("127.0.0.1:%d", 9000+i)})
		}
		return c
	}
	// Two independently built clients must route every key identically:
	// the ring is a pure function of the membership config.
	a, err := fleet.New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := fleet.New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	primaries := make(map[string]int)
	for i := 0; i < 512; i++ {
		key := fmt.Sprintf("app%04d_aabbccdd", i)
		oa, ob := a.Owners(key), b.Owners(key)
		if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("key %s routes to %v on one client, %v on another", key, oa, ob)
		}
		if len(oa) != 2 || oa[0] == oa[1] {
			t.Fatalf("key %s owners %v: want 2 distinct shards", key, oa)
		}
		primaries[oa[0]]++
	}
	// Virtual nodes must spread primary ownership: no shard may be
	// starved or own more than half the key space.
	for id, n := range primaries {
		if n < 512/16 || n > 512/2 {
			t.Errorf("shard %s owns %d/512 primaries; distribution is too lumpy", id, n)
		}
	}
	if len(primaries) != 4 {
		t.Errorf("only %d shards own keys, want 4", len(primaries))
	}
}

// TestBreakerOpenFanOut is the degraded-read path end to end: the key's
// primary owner dies, its circuit breaker opens, and reads keep succeeding
// from the replica; when every shard is dead, the Fallback still serves
// the run from the local tier — the fleet never surfaces a failure.
func TestBreakerOpenFanOut(t *testing.T) {
	fl, shards := startFleet(t, 2,
		fleet.WithShardOptions(
			cacheserver.WithRetry(0, 0),
			cacheserver.WithDialTimeout(250*time.Millisecond),
			cacheserver.WithBreaker(1, time.Hour), // first failure opens; never re-probes
		))
	w := buildWorld(t, "breaker", 7)
	cf, ks := w.cacheFile(t)
	if _, err := fl.Publish(cf); err != nil {
		t.Fatal(err)
	}

	stem := fleet.StemFor(ks)
	owners := fl.Owners(stem)
	if len(owners) != 2 {
		t.Fatalf("owners = %v, want 2", owners)
	}
	primary := 0
	if owners[0] == "s1" {
		primary = 1
	}
	shards[primary].srv.Close()

	// First read finds the primary dead (opening its breaker) and fans out
	// to the replica; the second takes the breaker fast-path. Both succeed.
	for i := 0; i < 2; i++ {
		got, err := fetchManifest(fl, ks)
		if err != nil {
			t.Fatalf("fetch %d with dead primary: %v", i, err)
		}
		if len(got.Traces) != len(cf.Traces) {
			t.Fatalf("fetch %d: %d traces, want %d", i, len(got.Traces), len(cf.Traces))
		}
	}
	snap := fl.Metrics().Snapshot()
	if v, ok := snap.Value("pcc_fleet_redirects_total", "fetchmanifests"); !ok || v < 2 {
		t.Errorf("redirects_total{fetchmanifests} = %v, want >= 2", v)
	}

	// Writes during the outage land on the surviving owner only.
	w2 := buildWorld(t, "breaker2", 8)
	cf2, ks2 := w2.cacheFile(t)
	if _, err := fl.Publish(cf2); err != nil {
		t.Fatalf("publish with one shard dead: %v", err)
	}
	if _, err := fetchManifest(fl, ks2); err != nil {
		t.Fatalf("read-back of degraded write: %v", err)
	}

	// Full fleet outage: the local tier still serves the run.
	shards[1-primary].srv.Close()
	local, err := core.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pub, err := core.NewPublication(cf, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.CommitPublication(pub); err != nil {
		t.Fatal(err)
	}
	fb := cacheserver.NewFallback(fl, local)
	v := w.freshVM(t)
	rep, err := fb.Prime(v)
	if err != nil {
		t.Fatalf("prime with whole fleet dead: %v", err)
	}
	if rep.Installed == 0 {
		t.Fatal("local tier installed nothing with the fleet dead")
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := fb.Commit(v); err != nil {
		t.Fatalf("commit with whole fleet dead: %v", err)
	}
}

// TestSingleShardParity pins the degenerate fleet to the single-daemon
// path: a one-shard fleet and a direct client against identically seeded
// daemons, each holding two same-class apps, must agree on every read
// surface and on aggregate stats — and, on every scope, send the daemon
// the same number of FETCHMANIFESTS requests and credit it the same
// utility hits.
func TestSingleShardParity(t *testing.T) {
	fl, shards := startFleet(t, 1)
	direct := startShard(t)
	dreg := metrics.NewRegistry()
	dc := cacheserver.NewClient(direct.addr, cacheserver.WithClientMetrics(dreg),
		cacheserver.WithRetry(0, 0), cacheserver.WithDialTimeout(time.Second))
	defer dc.Close()

	w := buildWorld(t, "parity", 3)
	cf, ks := w.cacheFile(t)
	frep, err := fl.Publish(cf)
	if err != nil {
		t.Fatal(err)
	}
	drep, err := dc.Publish(cf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(frep, drep) {
		t.Errorf("publish reports differ: fleet %+v, direct %+v", frep, drep)
	}
	other, _ := buildWorld(t, "parity-other", 5).cacheFile(t)
	for _, p := range []interface {
		Publish(*core.CacheFile) (*core.CommitReport, error)
	}{fl, dc} {
		if _, err := p.Publish(other); err != nil {
			t.Fatal(err)
		}
	}

	fcf, err := fetchManifest(fl, ks)
	if err != nil {
		t.Fatal(err)
	}
	dcf, err := fetchManifest(dc, ks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fcf, dcf) {
		t.Error("fetched manifests differ between one-shard fleet and direct client")
	}

	// requests reads the fetchmanifests requests a client registry counted;
	// hits sums the utility hits a daemon credited.
	requests := func(reg *metrics.Registry) float64 {
		v, _ := reg.Snapshot().Value("pcc_client_requests_total", "fetchmanifests")
		return v
	}
	hits := func(addr string) (total uint64) {
		t.Helper()
		c := cacheserver.NewClient(addr)
		defer c.Close()
		entries, err := c.UtilitySummary()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			total += e.Hits
		}
		return total
	}
	for _, scope := range []cacheserver.Scope{cacheserver.ScopeExact, cacheserver.ScopeInterApp, cacheserver.ScopeBest} {
		freq, fhits := requests(fl.Metrics()), hits(shards[0].addr)
		fman, err := fl.FetchEntries(ks, scope)
		if err != nil {
			t.Fatal(err)
		}
		freq, fhits = requests(fl.Metrics())-freq, hits(shards[0].addr)-fhits
		dreq, dhits := requests(dreg), hits(direct.addr)
		dman, err := dc.FetchEntries(ks, scope)
		if err != nil {
			t.Fatal(err)
		}
		dreq, dhits = requests(dreg)-dreq, hits(direct.addr)-dhits
		if !reflect.DeepEqual(fman, dman) {
			t.Errorf("manifest fetches (scope %d) differ between one-shard fleet and direct client", scope)
		}
		if freq != dreq || freq != 1 {
			t.Errorf("scope %d: fleet sent %v FETCHMANIFESTS, direct client %v; want 1 each", scope, freq, dreq)
		}
		if fhits != dhits || fhits != uint64(len(dman)) {
			t.Errorf("scope %d: fleet credited %d utility hits, direct client %d; want %d each", scope, fhits, dhits, len(dman))
		}
	}

	fst, err := fl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := dc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fst, dst) {
		t.Errorf("stats differ: fleet %+v, direct %+v", fst, dst)
	}

	// A miss is a miss, not an error, on both paths.
	w2 := buildWorld(t, "parity-miss", 4)
	_, ksMiss := w2.cacheFile(t)
	if _, err := fl.FetchEntries(ksMiss, cacheserver.ScopeExact); !errors.Is(err, core.ErrNoCache) {
		t.Errorf("fleet miss: want ErrNoCache, got %v", err)
	}
	if _, err := dc.FetchEntries(ksMiss, cacheserver.ScopeExact); !errors.Is(err, core.ErrNoCache) {
		t.Errorf("direct miss: want ErrNoCache, got %v", err)
	}
}

// TestBulkPrimeInstallsExactFirst: on a two-shard, R=2 fleet where the
// run's own entry was published while its primary owner was down, the
// primary answers the inter-application scatter without that entry, so it
// arrives after another app's. The bulk prime still installs it first.
func TestBulkPrimeInstallsExactFirst(t *testing.T) {
	fl, shards := startFleet(t, 2)
	w := buildWorld(t, "exactfirst", 50)
	cf, ks := w.cacheFile(t)
	other, _ := buildWorld(t, "exactfirst-other", 51).cacheFile(t)
	if _, err := fl.Publish(other); err != nil {
		t.Fatal(err)
	}
	owners := fl.Owners(fleet.StemFor(ks))
	replica := shards[0]
	if owners[1] == "s1" {
		replica = shards[1]
	}
	rc := cacheserver.NewClient(replica.addr)
	defer rc.Close()
	if _, err := rc.Publish(cf); err != nil {
		t.Fatal(err)
	}

	items, err := fl.FetchEntries(ks, cacheserver.ScopeInterApp)
	if err != nil || len(items) != 2 {
		t.Fatalf("inter-app scatter: %d items, %v; want 2", len(items), err)
	}
	first, err := store.DecodeManifest(items[0].Data)
	if err != nil || core.Key(first.AppKey) == ks.App {
		t.Fatalf("the scatter put the exact entry first (%v); the test exercises nothing", err)
	}

	local, err := core.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	log := tracelog.NewLog(0)
	v := w.freshVM(t, vm.WithEventLog(log))
	rep, err := cacheserver.NewFallback(fl, local).PrimeStoreBulk(v, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Installed < len(cf.Traces) {
		t.Fatalf("bulk prime installed %d traces, want at least the exact entry's %d", rep.Installed, len(cf.Traces))
	}
	for _, e := range log.Events() {
		if e.Kind != tracelog.KindPrime {
			continue
		}
		if e.Traces != len(cf.Traces) {
			t.Errorf("first prime installed %d traces (%s), want the exact entry's %d", e.Traces, e.Detail, len(cf.Traces))
		}
		return
	}
	t.Fatal("no prime event recorded")
}

// TestFleetScopeBest pins the non-bulk inter-application read to one
// answer: the key's owners are asked in ring order and the first that
// answers ends the walk, so one shard sends, and credits a utility hit to,
// one entry. The bulk scatter reaches every shard and credits every
// candidate each one holds.
func TestFleetScopeBest(t *testing.T) {
	fl, shards := startFleet(t, 2) // R=2: every shard holds every entry
	for i := 0; i < 2; i++ {
		cf, _ := buildWorld(t, fmt.Sprintf("best%d", i), 30+i).cacheFile(t)
		if _, err := fl.Publish(cf); err != nil {
			t.Fatal(err)
		}
	}
	hits := func() (total uint64) {
		t.Helper()
		for _, s := range shards {
			c := cacheserver.NewClient(s.addr)
			entries, err := c.UtilitySummary()
			c.Close()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				total += e.Hits
			}
		}
		return total
	}
	ks := core.KeysFor(buildWorld(t, "best-new", 40).freshVM(t))

	before := hits()
	items, err := fl.FetchEntries(ks, cacheserver.ScopeBest)
	if err != nil || len(items) != 1 {
		t.Fatalf("ScopeBest over the fleet: %d items, %v; want one", len(items), err)
	}
	if got := hits() - before; got != 1 {
		t.Errorf("ScopeBest credited %d hits fleet-wide, want 1", got)
	}
	all, err := fl.FetchEntries(ks, cacheserver.ScopeInterApp)
	if err != nil || len(all) != 2 || !reflect.DeepEqual(all[0], items[0]) {
		t.Fatalf("ScopeInterApp over the fleet: %d items, %v; want both, ScopeBest's first", len(all), err)
	}
	if got := hits() - before - 1; got != 4 {
		t.Errorf("ScopeInterApp credited %d hits fleet-wide, want 4 (2 candidates × 2 shards)", got)
	}
}

// TestGlobalCompactEvicts runs the ShareJIT-style policy end to end: three
// entries with different hit counts, keep the top two fleet-wide, and the
// coldest entry disappears from every shard that held it.
func TestGlobalCompactEvicts(t *testing.T) {
	fl, _ := startFleet(t, 2)
	apps := []struct {
		seed int
		hits int
	}{{11, 3}, {12, 1}, {13, 0}}
	var keys []core.KeySet
	for _, a := range apps {
		w := buildWorld(t, fmt.Sprintf("compact%d", a.seed), a.seed)
		cf, ks := w.cacheFile(t)
		if _, err := fl.Publish(cf); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, ks)
		for h := 0; h < a.hits; h++ {
			if _, err := fl.FetchEntries(ks, cacheserver.ScopeExact); err != nil {
				t.Fatal(err)
			}
		}
	}

	rep, err := fl.GlobalCompact(2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 3 || rep.Kept != 2 {
		t.Fatalf("compact report %+v: want 3 entries, 2 kept", rep)
	}
	// Both replicas of the zero-hit entry are gone (R=2 on 2 shards).
	if rep.Evicted != 2 {
		t.Errorf("evicted %d shard copies, want 2", rep.Evicted)
	}
	if rep.FloorUtility == 0 {
		t.Error("admission floor is zero; kept entries should have nonzero utility")
	}
	if _, err := fl.FetchEntries(keys[2], cacheserver.ScopeExact); !errors.Is(err, core.ErrNoCache) {
		t.Errorf("evicted entry still served: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := fl.FetchEntries(keys[i], cacheserver.ScopeExact); err != nil {
			t.Errorf("kept entry %d lost by compaction: %v", i, err)
		}
	}

	// keep <= 0 is report-only: nothing further is evicted.
	rep2, err := fl.GlobalCompact(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Entries != 2 || rep2.Evicted != 0 {
		t.Errorf("report-only compact %+v: want 2 entries, 0 evicted", rep2)
	}
}

// TestGlobalCompactNamesFailedShards: a shard whose summary, evict or
// compact fails does not stop the round, and the report names it — whether the
// shard is down before the round or fails after answering UtilitySummary
// (its store compaction aborts on a manifest it cannot read).
func TestGlobalCompactNamesFailedShards(t *testing.T) {
	t.Run("down", func(t *testing.T) {
		fl, shards := startFleet(t, 2)
		cf, _ := buildWorld(t, "compactdown", 70).cacheFile(t)
		if _, err := fl.Publish(cf); err != nil {
			t.Fatal(err)
		}
		shards[1].srv.Close()
		rep, err := fl.GlobalCompact(0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Failed, []string{"s1"}) {
			t.Errorf("failed shards %q, want [s1]", rep.Failed)
		}
	})
	t.Run("compact-aborts", func(t *testing.T) {
		cfg := &fleet.Config{}
		shards := make([]*shard, 2)
		for i := range shards {
			shards[i] = startShard(t)
			cfg.Shards = append(cfg.Shards, fleet.Shard{ID: fmt.Sprintf("s%d", i), Addr: shards[i].addr})
		}
		fl, err := fleet.New(cfg, fleet.WithShardOptions(cacheserver.WithRetry(0, 0)))
		if err != nil {
			t.Fatal(err)
		}
		defer fl.Close()
		cf, _ := buildWorld(t, "compactabort", 71).cacheFile(t)
		if _, err := fl.Publish(cf); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(shards[0].mgr.Dir(), "unreadable.pcm"), 0o755); err != nil {
			t.Fatal(err)
		}
		rep, err := fl.GlobalCompact(0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Entries != 1 {
			t.Errorf("%d entries fleet-wide, want 1: UtilitySummary should reach both shards", rep.Entries)
		}
		if !reflect.DeepEqual(rep.Failed, []string{"s0"}) {
			t.Errorf("failed shards %q, want [s0]", rep.Failed)
		}
	})
}

// TestFleetStatsAggregation checks the merged view against per-shard truth.
func TestFleetStatsAggregation(t *testing.T) {
	fl, _ := startFleet(t, 3)
	var files int
	for i := 0; i < 4; i++ {
		w := buildWorld(t, fmt.Sprintf("stats%d", i), 20+i)
		cf, _ := w.cacheFile(t)
		if _, err := fl.Publish(cf); err != nil {
			t.Fatal(err)
		}
	}
	views := fl.StatsByShard()
	for _, v := range views {
		if v.Err != nil {
			t.Fatalf("shard %s: %v", v.ID, v.Err)
		}
		files += v.Stats.Files
	}
	agg, err := fl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if agg.Files != files {
		t.Errorf("aggregate files = %d, per-shard sum = %d", agg.Files, files)
	}
	// 4 entries, 2-way replication on 3 shards: 8 copies fleet-wide.
	if files != 8 {
		t.Errorf("fleet holds %d copies, want 8 (4 entries x 2 replicas)", files)
	}
}

// TestFleetStatsDedupRatio: a fleet's store dedup ratio is the one core
// defines per database, 1 − physical/logical, combined over shards as the
// LogicalBytes-weighted mean.
func TestFleetStatsDedupRatio(t *testing.T) {
	front := startShard(t)
	peer := startShard(t)
	cfg := &fleet.Config{Replicas: 1, Shards: []fleet.Shard{{ID: "front", Addr: front.addr}, {ID: "peer", Addr: peer.addr}}}
	fl, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	for i := 0; i < 6; i++ {
		cf, _ := buildWorld(t, fmt.Sprintf("dedup%d", i), 40+i).cacheFile(t)
		if _, err := fl.Publish(cf); err != nil {
			t.Fatal(err)
		}
	}

	var logical uint64
	var weighted float64
	for _, v := range fl.StatsByShard() {
		if v.Err != nil || v.Stats.Store == nil || v.Stats.Store.LogicalBytes == 0 {
			t.Fatalf("shard %s holds no store entries (%v); the mean is vacuous", v.ID, v.Err)
		}
		ss := v.Stats.Store
		logical += ss.LogicalBytes
		weighted += ss.DedupRatio * float64(ss.LogicalBytes)
		// Merging one shard into an empty total is that shard.
		one := &core.DBStats{}
		fleet.MergeDBStatsForTest(one, v.Stats)
		if one.Store.DedupRatio != ss.DedupRatio {
			t.Errorf("shard %s merged alone: ratio %v, want its own %v", v.ID, one.Store.DedupRatio, ss.DedupRatio)
		}
	}
	want := weighted / float64(logical)
	if want <= 0 || want >= 1 {
		t.Fatalf("weighted dedup ratio %v outside (0, 1): the shards share nothing, or the test is wrong", want)
	}

	st, err := fl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Store.DedupRatio; math.Abs(got-want) > 1e-12 {
		t.Errorf("dedup ratio %v, want the weighted mean %v", got, want)
	}
	if st.Store.LogicalBytes != logical {
		t.Errorf("logical bytes %d, want %d", st.Store.LogicalBytes, logical)
	}
}

// TestStoreFleetPrimesEveryApp: on store-format fleets with more shards
// than replicas, one fresh machine primes each of six apps whole — nothing
// translated, nothing degraded — because the blobs a manifest lacks are
// asked of the entry's owners, the shards Publish stored them on. With an
// entry's primary owner killed, its replica serves both the manifest and
// the packs.
func TestStoreFleetPrimesEveryApp(t *testing.T) {
	worlds := make([]*world, 6)
	for i := range worlds {
		worlds[i] = buildWorld(t, fmt.Sprintf("storefleet%d", i), 60+i)
	}
	for _, n := range []int{4, 5, 8} {
		t.Run(fmt.Sprintf("%d-shards", n), func(t *testing.T) {
			cfg := &fleet.Config{Replicas: 2}
			shards := make([]*shard, n)
			for i := range shards {
				shards[i] = startShard(t)
				cfg.Shards = append(cfg.Shards, fleet.Shard{ID: fmt.Sprintf("s%d", i), Addr: shards[i].addr})
			}
			fl, err := fleet.New(cfg, fleet.WithShardOptions(
				cacheserver.WithRetry(0, 0), cacheserver.WithDialTimeout(time.Second)))
			if err != nil {
				t.Fatal(err)
			}
			defer fl.Close()
			want := make(map[store.Hash]bool)
			for _, w := range worlds {
				cf, ks := w.cacheFile(t)
				if _, err := fl.Publish(cf); err != nil {
					t.Fatal(err)
				}
				items, err := fl.FetchEntries(ks, cacheserver.ScopeExact)
				if err != nil {
					t.Fatal(err)
				}
				man, err := store.DecodeManifest(items[0].Data)
				if err != nil {
					t.Fatal(err)
				}
				for _, h := range man.BlobHashes() {
					want[h] = true
				}
			}
			// Bare hashes, no entry to route by: every shard may be asked.
			var all []store.Hash
			for h := range want {
				all = append(all, h)
			}
			if got, err := fl.FetchBlobs(all); err != nil || len(got) != len(all) {
				t.Errorf("FetchBlobs served %d of %d manifest blobs: %v", len(got), len(all), err)
			}
			primeAll := func(worlds []*world) {
				t.Helper()
				local, err := core.NewManager(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				fb := cacheserver.NewFallback(fl, local)
				for i, w := range worlds {
					v := w.freshVM(t)
					if _, err := fb.Prime(v); err != nil {
						t.Fatalf("app %d: prime: %v", i, err)
					}
					res, err := v.Run()
					if err != nil {
						t.Fatal(err)
					}
					if res.Stats.InstsTranslated != 0 {
						t.Errorf("app %d: translated %d instructions after a fleet prime", i, res.Stats.InstsTranslated)
					}
				}
				if v, _ := fl.Metrics().Snapshot().Value("pcc_client_fallbacks_total", "prime"); v != 0 {
					t.Errorf("%v primes fell back to the local database", v)
				}
			}
			primeAll(worlds)

			_, ks := worlds[0].cacheFile(t)
			primary := fl.Owners(fleet.StemFor(ks))[0]
			for i, s := range cfg.Shards {
				if s.ID == primary {
					shards[i].srv.Close()
				}
			}
			primeAll(worlds[:1])
			if v, _ := fl.Metrics().Snapshot().Value("pcc_fleet_redirects_total", "fetchpacks"); v < 1 {
				t.Errorf("redirects_total{fetchpacks} = %v with the primary owner dead, want >= 1", v)
			}
		})
	}
}
