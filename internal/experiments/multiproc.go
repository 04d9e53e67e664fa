package experiments

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"persistcc/internal/cacheserver"
	"persistcc/internal/cacheserver/fleet"
	"persistcc/internal/core"
	"persistcc/internal/stats"
)

// Multiproc measures multi-process code-cache sharing over the wire
// protocol: the five GUI applications launch as concurrent "processes",
// each with its own private fallback database, all pointed at one shared
// cache daemon (internal/cacheserver). Launches are staggered in waves —
// the realistic desktop-login shape — so later processes find the shared
// libraries their predecessors already published and install them over the
// wire instead of translating.
//
// The control arm is the status quo the paper's §6 deployment discussion
// argues against: the same staggered launches, each process accumulating
// into its own independent local database, where nothing is ever shared
// and every process pays full translation.
func Multiproc() (*Report, error) {
	gui, err := guiSuite()
	if err != nil {
		return nil, err
	}
	apps := gui.Apps
	// Wave 1 seeds the server; later waves launch two processes at a time,
	// concurrently, so the server sees overlapping fetches and publishes.
	var waves [][]int
	waves = append(waves, []int{0})
	for i := 1; i < len(apps); i += 2 {
		w := []int{i}
		if i+1 < len(apps) {
			w = append(w, i+1)
		}
		waves = append(waves, w)
	}

	type procOut struct {
		ticks      uint64
		translated uint64 // instructions translated by this process
		reused     int    // traces installed from a cache
		remote     uint64 // traces served by the daemon
	}

	// launchOne simulates one OS process: fresh VM, fresh private database,
	// fresh client connection.
	launchOne := func(appIdx int, addr string) (*procOut, error) {
		app := apps[appIdx]
		dir, err := os.MkdirTemp("", "pcc-mp-proc-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		local, err := core.NewManager(dir)
		if err != nil {
			return nil, err
		}
		var mgr cacheserver.Manager = local
		if addr != "" {
			fl, err := fleet.New(fleet.Single(addr))
			if err != nil {
				return nil, err
			}
			defer fl.Close()
			mgr = cacheserver.NewFallback(fl, local)
		}
		v, err := app.Prog.NewVM(guiCfg(), app.Startup)
		if err != nil {
			return nil, err
		}
		rep, err := mgr.Prime(v)
		if errors.Is(err, core.ErrNoCache) {
			rep, err = mgr.PrimeInterApp(v)
		}
		if err != nil && !errors.Is(err, core.ErrNoCache) {
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
		return &procOut{
			ticks:      res.Stats.Ticks,
			translated: res.Stats.InstsTranslated,
			reused:     rep.Installed,
			remote:     res.Stats.RemoteHits,
		}, nil
	}

	// runScenario launches every wave; processes within a wave run
	// concurrently and the next wave starts only after the previous one has
	// committed (the stagger that lets sharing kick in).
	runScenario := func(addr string) ([]*procOut, error) {
		outs := make([]*procOut, len(apps))
		errs := make([]error, len(apps))
		for _, wave := range waves {
			var wg sync.WaitGroup
			for _, idx := range wave {
				wg.Add(1)
				go func(idx int) {
					defer wg.Done()
					outs[idx], errs[idx] = launchOne(idx, addr)
				}(idx)
			}
			wg.Wait()
			for _, idx := range wave {
				if errs[idx] != nil {
					return nil, fmt.Errorf("%s: %w", apps[idx].Name, errs[idx])
				}
			}
		}
		return outs, nil
	}

	// Shared arm: one daemon serving one database to every process.
	serverDir, err := os.MkdirTemp("", "pcc-mp-server-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(serverDir)
	serverMgr, err := core.NewManager(serverDir)
	if err != nil {
		return nil, err
	}
	srv, err := cacheserver.New(serverMgr)
	if err != nil {
		return nil, err
	}
	ln, err := cacheserver.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(ln) }()
	shared, err := runScenario(ln.Addr().String())
	srv.Close()
	<-serveDone
	if err != nil {
		return nil, err
	}

	// Independent arm: no daemon, one private database per process.
	indep, err := runScenario("")
	if err != nil {
		return nil, err
	}

	tb := stats.NewTable("staggered concurrent launches, shared daemon vs private databases",
		"wave", "application", "shared time", "shared transl", "remote traces", "indep time", "indep transl")
	var sharedTransl, indepTransl, sharedTicks, indepTicks uint64
	for w, wave := range waves {
		for _, idx := range wave {
			s, n := shared[idx], indep[idx]
			tb.AddRow(fmt.Sprintf("%d", w+1), apps[idx].Name,
				stats.Ms(s.ticks), fmt.Sprintf("%d", s.translated), fmt.Sprintf("%d", s.remote),
				stats.Ms(n.ticks), fmt.Sprintf("%d", n.translated))
			sharedTransl += s.translated
			indepTransl += n.translated
			sharedTicks += s.ticks
			indepTicks += n.ticks
		}
	}

	rep := &Report{ID: "multiproc", Title: "Multi-process sharing through the cache daemon", Body: tb.Render()}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("total translated instructions: %d shared vs %d independent (%s less translation work)",
			sharedTransl, indepTransl, stats.Pct(stats.Improvement(indepTransl, sharedTransl))),
		fmt.Sprintf("total startup time: %s shared vs %s independent (%s)",
			stats.Ms(sharedTicks), stats.Ms(indepTicks), stats.Pct(stats.Improvement(indepTicks, sharedTicks))))
	if sharedTransl >= indepTransl {
		rep.Notes = append(rep.Notes, "WARNING: shared daemon did not reduce total translation")
	}
	return rep, nil
}

func init() {
	Registry = append(Registry, Entry{
		ID: "multiproc", Title: "Multi-process sharing through the cache daemon", Run: Multiproc,
	})
}
