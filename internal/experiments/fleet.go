package experiments

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"persistcc/internal/cacheserver"
	"persistcc/internal/cacheserver/fleet"
	"persistcc/internal/core"
	"persistcc/internal/loader"
	"persistcc/internal/replay"
	"persistcc/internal/stats"
	"persistcc/internal/store"
	"persistcc/internal/workload"
)

// Fleet experiment shape. Four shards and sixteen applications give the
// consistent-hash ring enough keys to demonstrate balance while keeping
// the run CI-sized; the kill wave exercises the degraded-read and
// degraded-write paths for the second half of the run.
const (
	fleetShardCount = 4
	fleetAppCount   = 16
	fleetWaves      = 24
	fleetWaveSize   = 8
	fleetKillWave   = 12 // shard s0 dies at this wave barrier
	fleetKeep       = 10 // GlobalCompact retention for the eviction stage

	// CI gates (make gate-smoke).
	fleetMaxImbalance = 1.5 // max shard copies / mean shard copies
	fleetMinAvoided   = 0.5 // fraction of translation work avoided
)

// fleetRNG is a xorshift64 step. The experiment seeds its own generator
// instead of math/rand so the client schedule is identical across Go
// versions and platforms — the fleet smoke gates CI on exact counts.
func fleetRNG(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// fleetZipf samples application indices from a harmonic (s=1) Zipf
// distribution by inverting a precomputed CDF: app 0 is the hot desktop
// application everyone launches, the tail apps are rarely run.
type fleetZipf struct {
	rng uint64
	cdf []float64
}

func newFleetZipf(seed uint64, n int) *fleetZipf {
	z := &fleetZipf{rng: seed, cdf: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / float64(i+1)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *fleetZipf) next() int {
	z.rng = fleetRNG(z.rng)
	u := float64(z.rng>>11) / float64(1<<53)
	return sort.SearchFloat64s(z.cdf, u)
}

// wave samples n distinct applications. Distinctness within a wave keeps
// the run deterministic under concurrency: clients in one wave touch
// disjoint keys, so goroutine interleaving cannot change who translates.
func (z *fleetZipf) wave(n int) []int {
	picked := make(map[int]bool, n)
	var out []int
	for len(out) < n {
		a := z.next()
		if picked[a] {
			continue
		}
		picked[a] = true
		out = append(out, a)
	}
	return out
}

// buildFleetApps generates the application population: sixteen distinct
// programs with varying code-region sizes, so translation cost (the
// utility weight) differs across the popularity ranks.
func buildFleetApps() ([]*workload.Program, error) {
	progs := make([]*workload.Program, fleetAppCount)
	for i := range progs {
		p, err := workload.BuildProgram(workload.ProgSpec{
			Name:    fmt.Sprintf("fapp%02d", i),
			Seed:    0x0F1EE7 + uint64(i)*0x9E3779B9,
			Regions: []workload.RegionSpec{{Funcs: 4 + (i*3)%9, Module: 0}},
		})
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	return progs, nil
}

// fleetShard is one in-process daemon: its own database directory served
// by its own cacheserver.Server on a loopback listener.
type fleetShard struct {
	id    string
	dir   string
	srv   *cacheserver.Server
	addr  string
	done  chan struct{}
	alive bool
}

func (s *fleetShard) kill() {
	if !s.alive {
		return
	}
	s.srv.Close()
	<-s.done
	s.alive = false
}

func startFleetShards(n int) ([]*fleetShard, func(), error) {
	var shards []*fleetShard
	cleanup := func() {
		for _, s := range shards {
			s.kill()
			os.RemoveAll(s.dir)
		}
	}
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp("", "pcc-fleet-shard-*")
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		mgr, err := core.NewManager(dir)
		if err != nil {
			os.RemoveAll(dir)
			cleanup()
			return nil, nil, err
		}
		srv, err := cacheserver.New(mgr)
		if err != nil {
			os.RemoveAll(dir)
			cleanup()
			return nil, nil, err
		}
		ln, err := cacheserver.Listen("127.0.0.1:0")
		if err != nil {
			os.RemoveAll(dir)
			cleanup()
			return nil, nil, err
		}
		sh := &fleetShard{
			id:    fmt.Sprintf("s%d", i),
			dir:   dir,
			srv:   srv,
			addr:  ln.Addr().String(),
			done:  make(chan struct{}),
			alive: true,
		}
		go func() { defer close(sh.done); srv.Serve(ln) }()
		shards = append(shards, sh)
	}
	return shards, cleanup, nil
}

// fleetClientOut is one simulated client process's outcome.
type fleetClientOut struct {
	ticks      uint64
	translated uint64 // instructions this process translated itself
	remote     uint64 // traces it installed from the fleet
}

// Fleet is the sharded cache-server fleet experiment: a 4-shard fleet
// (consistent-hash routing, 2-way replication) serves waves of simulated
// client processes whose application choice follows a Zipf popularity
// distribution — the desktop described in the paper's §6 deployment
// discussion, scaled out. Halfway through, shard s0 is killed and never
// restarted; the remaining waves and the final audit prove the failure
// semantics: reads fan out to replicas, writes land on surviving owners,
// and no client ever sees an error. The schedule, routing, and virtual
// ticks are all deterministic, so the imbalance, lost-write, and
// translation-avoided gates below are exact — CI runs this as its fleet
// smoke and fails on any violation. A final stage runs the fleet's
// utility-based global eviction (hit frequency × translation cost,
// ShareJIT-style) and reports the admission floor it establishes.
func Fleet() (*Report, error) {
	progs, err := buildFleetApps()
	if err != nil {
		return nil, err
	}
	input := workload.Input{Name: "session", Units: []workload.Unit{{Entry: 0, Iters: 2}}}

	shards, cleanup, err := startFleetShards(fleetShardCount)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	cfg := &fleet.Config{Replicas: 2}
	for _, s := range shards {
		cfg.Shards = append(cfg.Shards, fleet.Shard{ID: s.id, Addr: s.addr})
	}
	fl, err := fleet.New(cfg, fleet.WithShardOptions(
		cacheserver.WithDialTimeout(time.Second),
		cacheserver.WithRetry(0, 0),
	))
	if err != nil {
		return nil, err
	}
	defer fl.Close()

	// Key sets (and so ring placement) are known up front: build one VM
	// per application without running it.
	keys := make([]core.KeySet, fleetAppCount)
	stems := make([]string, fleetAppCount)
	for i, p := range progs {
		v, err := p.NewVM(loader.Config{}, input)
		if err != nil {
			return nil, err
		}
		keys[i] = core.KeysFor(v)
		stems[i] = fleet.StemFor(keys[i])
	}

	// launchOne simulates one client process: fresh private fallback
	// database, the shared fleet transport, prime → run → commit.
	launchOne := func(app int) (*fleetClientOut, error) {
		dir, err := os.MkdirTemp("", "pcc-fleet-proc-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		local, err := core.NewManager(dir)
		if err != nil {
			return nil, err
		}
		mgr := cacheserver.NewFallback(fl, local)
		v, err := progs[app].NewVM(loader.Config{}, input)
		if err != nil {
			return nil, err
		}
		if _, err := mgr.Prime(v); err != nil && !errors.Is(err, core.ErrNoCache) {
			return nil, err
		}
		res, err := v.Run()
		if err != nil {
			return nil, err
		}
		crep, err := mgr.Commit(v)
		if err != nil {
			return nil, err
		}
		res.Stats.Ticks += crep.Ticks
		return &fleetClientOut{
			ticks:      res.Stats.Ticks,
			translated: res.Stats.InstsTranslated,
			remote:     res.Stats.RemoteHits,
		}, nil
	}

	// The client schedule: waves of concurrent launches with a barrier
	// between waves (cache state only changes at barriers).
	zipf := newFleetZipf(0xF1EE7C11E27, fleetAppCount)
	committed := make([]bool, fleetAppCount)
	coldInsts := make([]uint64, fleetAppCount)
	runsPerApp := make([]int, fleetAppCount)
	var allTicks []uint64
	var totalTranslated, coldEquivalent, remoteTraces uint64
	clients := 0
	for w := 0; w < fleetWaves; w++ {
		if w == fleetKillWave {
			shards[0].kill()
		}
		wave := zipf.wave(fleetWaveSize)
		outs := make([]*fleetClientOut, len(wave))
		errs := make([]error, len(wave))
		var wg sync.WaitGroup
		for i, app := range wave {
			wg.Add(1)
			go func(i, app int) {
				defer wg.Done()
				outs[i], errs[i] = launchOne(app)
			}(i, app)
		}
		wg.Wait()
		for i, app := range wave {
			if errs[i] != nil {
				return nil, fmt.Errorf("fleet: wave %d client %s: %w", w, progs[app].Name, errs[i])
			}
			if runsPerApp[app] == 0 {
				coldInsts[app] = outs[i].translated
			}
			runsPerApp[app]++
			committed[app] = true
			clients++
			totalTranslated += outs[i].translated
			coldEquivalent += coldInsts[app]
			remoteTraces += outs[i].remote
			allTicks = append(allTicks, outs[i].ticks)
		}
	}

	// Gate 1: consistent-hash balance. Count the replica copies the ring
	// assigns each shard over the application population; the max may not
	// exceed 1.5x the mean.
	copies := make(map[string]int, fleetShardCount)
	for _, stem := range stems {
		for _, id := range fl.Owners(stem) {
			copies[id]++
		}
	}
	maxCopies, totCopies := 0, 0
	for _, s := range shards {
		totCopies += copies[s.id]
		if copies[s.id] > maxCopies {
			maxCopies = copies[s.id]
		}
	}
	meanCopies := float64(totCopies) / float64(len(shards))
	imbalance := float64(maxCopies) / meanCopies

	// Gate 2: zero lost writes under the single-shard kill. Every
	// application that any client committed must still be fetchable from
	// the fleet — including the ones whose primary owner is the dead s0 —
	// as exactly one manifest that decodes: it re-verifies its integrity
	// trailer, so a truncated or corrupt replica counts as lost.
	lost := 0
	for i := range progs {
		if !committed[i] {
			continue
		}
		items, err := fl.FetchEntries(keys[i], cacheserver.ScopeExact)
		if err == nil && len(items) != 1 {
			err = fmt.Errorf("%d entries for one key", len(items))
		}
		if err == nil {
			_, err = store.DecodeManifest(items[0].Data)
		}
		if err != nil {
			lost++
		}
	}

	// Gate 3: translation avoided. Each run's cost without the fleet is
	// its application's cold translation cost; the fleet's value is the
	// fraction of that work the clients never did.
	avoided := 1 - float64(totalTranslated)/float64(coldEquivalent)

	sort.Slice(allTicks, func(i, j int) bool { return allTicks[i] < allTicks[j] })
	p50 := allTicks[len(allTicks)/2]
	p99 := allTicks[len(allTicks)*99/100]

	// Read fan-out: how many reads a replica served after the primary
	// owner failed or missed.
	snap := fl.Metrics().Snapshot()
	redirects, _ := snap.Value("pcc_fleet_redirects_total", "fetchmanifests")
	var reads float64
	for _, s := range shards {
		if v, ok := snap.Value("pcc_fleet_requests_total", "fetchmanifests", s.id); ok {
			reads += v
		}
	}

	tb := stats.NewTable(
		fmt.Sprintf("%d clients over %d waves, %d apps (Zipf), shard s0 killed at wave %d",
			clients, fleetWaves, fleetAppCount, fleetKillWave),
		"shard", "ring copies", "files held", "status")
	views := fl.StatsByShard()
	for i, s := range shards {
		files, status := "-", "down (killed)"
		if views[i].Err == nil {
			files, status = fmt.Sprintf("%d", views[i].Stats.Files), "up"
		}
		tb.AddRow(s.id, fmt.Sprintf("%d", copies[s.id]), files, status)
	}

	rep := &Report{ID: "fleet", Title: "Sharded cache-server fleet under Zipfian load with a mid-run shard kill", Body: tb.Render()}
	rep.AddMetric("clients", float64(clients))
	rep.AddMetric("apps", float64(fleetAppCount))
	rep.AddMetric("shard_imbalance_x", imbalance)
	rep.AddMetric("lost_writes", float64(lost))
	rep.AddMetric("translation_avoided_pct", 100*avoided)
	rep.AddMetric("remote_traces", float64(remoteTraces))
	rep.AddMetric("replica_redirect_reads", redirects)
	rep.AddMetric("client_p50_ticks", float64(p50))
	rep.AddMetric("client_p99_ticks", float64(p99))
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("ring balance: max %d copies vs %.1f mean (%.2fx; gate <= %.1fx)",
			maxCopies, meanCopies, imbalance, fleetMaxImbalance),
		fmt.Sprintf("translation avoided: %s of the no-fleet cost (%d of %d instructions; gate >= %s)",
			stats.Pct(avoided), coldEquivalent-totalTranslated, coldEquivalent, stats.Pct(fleetMinAvoided)),
		fmt.Sprintf("degraded reads: %.0f of %.0f reads served by a replica after s0 died; no client saw an error",
			redirects, reads),
		fmt.Sprintf("client latency: p50 %s, p99 %s (virtual ticks; cold translations dominate the tail)",
			stats.Ms(p50), stats.Ms(p99)))

	// CI gates: any violation fails the fleet smoke — and self-packages a
	// crasher with a snapshot of a surviving shard's database, so the
	// population the gate judged is preserved for triage.
	gateFail := func(name, note string) {
		bundleCrasher(&replay.Crasher{Name: name, Kind: "crash", Note: note}, nil, shards[1].dir)
	}
	if imbalance > fleetMaxImbalance {
		note := fmt.Sprintf("shard imbalance %.2fx exceeds %.1fx mean", imbalance, fleetMaxImbalance)
		gateFail("fleet-imbalance", note)
		return rep, fmt.Errorf("fleet: %s", note)
	}
	if lost > 0 {
		note := fmt.Sprintf("%d committed entries unreachable after single-shard kill", lost)
		gateFail("fleet-lost-writes", note)
		return rep, fmt.Errorf("fleet: %s", note)
	}
	if avoided < fleetMinAvoided {
		note := fmt.Sprintf("only %s of translation avoided, want >= %s",
			stats.Pct(avoided), stats.Pct(fleetMinAvoided))
		gateFail("fleet-avoided", note)
		return rep, fmt.Errorf("fleet: %s", note)
	}

	// Eviction stage (after the gates audit the full population): global
	// utility-based cache management across the surviving shards.
	crep, err := fl.GlobalCompact(fleetKeep)
	if err != nil {
		return rep, fmt.Errorf("fleet: global compact: %w", err)
	}
	rep.AddMetric("evicted_entries", float64(crep.Evicted))
	rep.AddMetric("admission_floor_utility", float64(crep.FloorUtility))
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"global eviction: kept top %d of %d entries by hit x translation-cost utility, evicted %d shard copies (%d traces), admission floor %d",
		crep.Kept, crep.Entries, crep.Evicted, crep.EvictedTraces, crep.FloorUtility))
	return rep, nil
}

func init() {
	Registry = append(Registry, Entry{
		ID: "fleet", Title: "Sharded cache-server fleet under Zipfian load with a mid-run shard kill", Run: Fleet,
	})
}
