package fleet_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"persistcc/internal/cacheserver"
	"persistcc/internal/cacheserver/fleet"
	"persistcc/internal/core"
	"persistcc/internal/loader"
	"persistcc/internal/replay"
	"persistcc/internal/workload"
)

// The Zipf fleet's shape. Four shards and sixteen applications give the
// ring enough keys to show balance at a test's size; the kill wave runs the
// degraded-read and degraded-write paths for the second half.
const (
	zipfShards   = 4
	zipfApps     = 16
	zipfWaves    = 24
	zipfWaveSize = 8
	zipfKillWave = 12 // shard s0 dies at this wave barrier
	zipfKeep     = 10 // GlobalCompact retention for the eviction stage

	maxImbalance = 1.5 // max shard copies / mean shard copies
	minAvoided   = 0.5 // share of the no-fleet translation work avoided

	// Client latency percentiles in virtual ticks when this test was
	// written. Ticks are deterministic on every machine; a percentile may
	// be at most tickSlack times as high.
	clientP50Ticks = 1_028_872
	clientP99Ticks = 1_034_656
	tickSlack      = 1.25
)

// xorshift64 steps the schedule's generator. It is not math/rand, so the
// schedule is the same on every Go version and platform.
func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// zipfWave samples n distinct application indices from a harmonic (s=1)
// Zipf distribution: app 0 is the application everyone launches, the tail
// is rarely run. Distinct apps within a wave keep the run deterministic
// under concurrency: no two clients of a wave touch one key, so goroutine
// interleaving cannot change who translates.
func zipfWave(rng *uint64, cdf []float64, n int) []int {
	picked := make(map[int]bool, n)
	var out []int
	for len(out) < n {
		*rng = xorshift64(*rng)
		a := sort.SearchFloat64s(cdf, float64(*rng>>11)/float64(1<<53))
		if !picked[a] {
			picked[a] = true
			out = append(out, a)
		}
	}
	return out
}

// TestZipfFleetSurvivesShardKill is ShareJIT's global-cache property on the
// fleet: a 4-shard fleet (R = 2) serves 24 waves of 8 concurrent client
// processes, each a fresh local database launching an application drawn
// from a Zipf popularity over 16, and shard s0 is killed at wave 12 and
// never restarted. The ring spreads the population's copies within 1.5x the
// mean, every committed entry is still served whole after the kill, no
// client sees an error, the clients avoid at least half of the translation
// work they would do alone, and a utility-based GlobalCompact over the
// survivors keeps the top 10. A failed gate leaves a crasher with a snapshot
// of shard s1's database in replay.DefaultDir().
func TestZipfFleetSurvivesShardKill(t *testing.T) {
	input := workload.Input{Name: "session", Units: []workload.Unit{{Entry: 0, Iters: 2}}}
	progs := make([]*workload.Program, zipfApps)
	keys := make([]core.KeySet, zipfApps)
	for i := range progs {
		// Code regions of varying size, so translation cost (the utility
		// weight) differs across the popularity ranks.
		p, err := workload.BuildProgram(workload.ProgSpec{
			Name:    fmt.Sprintf("fapp%02d", i),
			Seed:    0x0F1EE7 + uint64(i)*0x9E3779B9,
			Regions: []workload.RegionSpec{{Funcs: 4 + (i*3)%9, Module: 0}},
		})
		if err != nil {
			t.Fatal(err)
		}
		v, err := p.NewVM(loader.Config{}, input)
		if err != nil {
			t.Fatal(err)
		}
		progs[i], keys[i] = p, core.KeysFor(v)
	}

	fl, shards := startFleet(t, zipfShards) // R = fleet.DefaultReplicas = 2

	var crasher *replay.Crasher
	gate := func(name, format string, args ...any) {
		t.Helper()
		note := fmt.Sprintf(format, args...)
		t.Error(note)
		if crasher == nil {
			crasher = &replay.Crasher{Name: "fleet-" + name, Kind: "crash", Note: note}
		}
	}
	t.Cleanup(func() {
		if crasher == nil {
			return
		}
		dir := replay.DefaultDir()
		if err := shards[1].mgr.SnapshotTo(filepath.Join(dir, crasher.Name+".db")); err != nil {
			t.Logf("crasher bundle: snapshot: %v", err)
		} else {
			crasher.Snapshot = crasher.Name + ".db"
		}
		path, err := replay.WriteCrasher(nil, dir, crasher, nil)
		if err != nil {
			t.Logf("crasher bundle: %v", err)
			return
		}
		t.Logf("crasher bundled: %s", path)
	})

	// One client process: a fresh private database behind the shared fleet
	// transport, prime → run → commit. It returns the run's ticks, commit
	// included, and the instructions it translated itself.
	launch := func(app int) (ticks, translated uint64, err error) {
		local, err := core.NewManager(t.TempDir())
		if err != nil {
			return 0, 0, err
		}
		mgr := cacheserver.NewFallback(fl, local)
		v, err := progs[app].NewVM(loader.Config{}, input)
		if err != nil {
			return 0, 0, err
		}
		if _, err := mgr.Prime(v); err != nil && !errors.Is(err, core.ErrNoCache) {
			return 0, 0, err
		}
		res, err := v.Run()
		if err != nil {
			return 0, 0, err
		}
		crep, err := mgr.Commit(v)
		if err != nil {
			return 0, 0, err
		}
		return res.Stats.Ticks + crep.Ticks, res.Stats.InstsTranslated, nil
	}

	// Waves of concurrent launches with a barrier between them: the cache
	// only changes at barriers. Each run's cost without the fleet is its
	// application's cold translation, the first launch's.
	cdf := make([]float64, zipfApps)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	rng := uint64(0xF1EE7C11E27)
	coldInsts := make(map[int]uint64, zipfApps)
	var allTicks []uint64
	var translated, coldEquivalent uint64
	for w := 0; w < zipfWaves; w++ {
		if w == zipfKillWave {
			shards[0].srv.Close()
		}
		wave := zipfWave(&rng, cdf, zipfWaveSize)
		ticks := make([]uint64, len(wave))
		insts := make([]uint64, len(wave))
		errs := make([]error, len(wave))
		var wg sync.WaitGroup
		for i, app := range wave {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ticks[i], insts[i], errs[i] = launch(app)
			}()
		}
		wg.Wait()
		for i, app := range wave {
			if errs[i] != nil {
				t.Fatalf("wave %d client %s: %v", w, progs[app].Name, errs[i])
			}
			if _, ok := coldInsts[app]; !ok {
				coldInsts[app] = insts[i]
			}
			translated += insts[i]
			coldEquivalent += coldInsts[app]
			allTicks = append(allTicks, ticks[i])
		}
	}

	// Ring balance: the replica copies the ring assigns each shard over the
	// population.
	copies := make(map[string]int, zipfShards)
	for _, ks := range keys {
		for _, id := range fl.Owners(fleet.StemFor(ks)) {
			copies[id]++
		}
	}
	maxCopies := 0
	for _, n := range copies {
		maxCopies = max(maxCopies, n)
	}
	mean := float64(2*zipfApps) / zipfShards
	if imbalance := float64(maxCopies) / mean; imbalance > maxImbalance {
		gate("imbalance", "shard imbalance %.2fx (copies %v) exceeds %.1fx the mean", imbalance, copies, maxImbalance)
	}

	// No lost writes: every committed application, the ones whose primary
	// owner is the dead s0 included, is still one manifest that decodes —
	// which re-verifies its integrity trailer, so a torn replica is lost.
	lost := 0
	for app := range coldInsts {
		if _, err := fetchManifest(fl, keys[app]); err != nil {
			t.Logf("%s: %v", progs[app].Name, err)
			lost++
		}
	}
	if lost > 0 {
		gate("lost-writes", "%d committed entries unreachable after the single-shard kill", lost)
	}

	avoided := 1 - float64(translated)/float64(coldEquivalent)
	if avoided < minAvoided {
		gate("avoided", "only %.1f%% of translation avoided (%d of %d instructions), want >= %.0f%%",
			100*avoided, coldEquivalent-translated, coldEquivalent, 100*minAvoided)
	}

	sort.Slice(allTicks, func(i, j int) bool { return allTicks[i] < allTicks[j] })
	p50, p99 := allTicks[len(allTicks)/2], allTicks[len(allTicks)*99/100]
	t.Logf("%d clients: ring copies %v, %.1f%% of translation avoided, p50 %d ticks, p99 %d ticks",
		len(allTicks), copies, 100*avoided, p50, p99)
	for _, p := range []struct {
		name       string
		got, bound uint64
	}{{"p50", p50, clientP50Ticks}, {"p99", p99, clientP99Ticks}} {
		if float64(p.got) > tickSlack*float64(p.bound) {
			gate("latency", "client %s %d ticks, want <= %.2fx %d", p.name, p.got, tickSlack, p.bound)
		}
	}
	if t.Failed() {
		return
	}

	// Global utility-based eviction across the survivors: the top zipfKeep
	// entries stay, and s0 is named as the shard the round could not reach.
	rep, err := fl.GlobalCompact(zipfKeep)
	if err != nil {
		t.Fatalf("global compact: %v", err)
	}
	if rep.Entries != len(coldInsts) || rep.Kept != zipfKeep || rep.Evicted == 0 || rep.FloorUtility == 0 {
		t.Errorf("global compact %+v: want %d entries, %d kept, some evicted above a floor", rep, len(coldInsts), zipfKeep)
	}
	t.Logf("global compact: %+v", rep)
	if len(rep.Failed) != 1 || rep.Failed[0] != "s0" {
		t.Errorf("global compact failed shards %q, want [s0]", rep.Failed)
	}
}
