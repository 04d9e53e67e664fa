package cacheserver_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"persistcc/internal/cacheserver"
	"persistcc/internal/cacheserver/fleet"
	"persistcc/internal/core"
)

// Tests for the commit rule of a remote-primed run: a run that adds nothing
// to the entry it launched from publishes nothing and keeps a local copy of
// it; every other run publishes, and degrades, exactly as before. Each test
// runs against one store-format daemon, reached as a run reaches it (a
// fleet of one), and against a two-shard fleet of them (R=2, so every shard
// owns every entry).

// remote is the serving side of one test: its daemons and the transport a
// machine reaches them through.
type remote struct {
	transport cacheserver.Transport
	servers   []*cacheserver.Server
	addrs     []string // the servers'
}

func newRemote(t *testing.T, shards int) *remote {
	t.Helper()
	r := &remote{}
	cfg := &fleet.Config{Replicas: 2}
	for i := 0; i < shards; i++ {
		srv, addr, _ := startServer(t)
		r.servers, r.addrs = append(r.servers, srv), append(r.addrs, addr)
		cfg.Shards = append(cfg.Shards, fleet.Shard{ID: fmt.Sprintf("s%d", i), Addr: addr})
	}
	fl, err := fleet.New(cfg, fleet.WithShardOptions(
		cacheserver.WithRetry(0, 0), cacheserver.WithDialTimeout(time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	r.transport = fl
	return r
}

// forEachRemote runs body against a daemon and against a two-shard fleet.
func forEachRemote(t *testing.T, body func(t *testing.T, r *remote)) {
	for _, shards := range []int{1, 2} {
		name := "daemon"
		if shards > 1 {
			name = "fleet"
		}
		t.Run(name, func(t *testing.T) { body(t, newRemote(t, shards)) })
	}
}

// publishes counts the PUBLISH requests the daemons have answered with one
// of statuses (ok or error when none is given). One Publish reaches every
// owner, so it counts once per daemon here.
func (r *remote) publishes(statuses ...string) (n int) {
	if len(statuses) == 0 {
		statuses = []string{"ok", "error"}
	}
	for _, srv := range r.servers {
		snap := srv.Metrics().Snapshot()
		for _, status := range statuses {
			v, _ := snap.Value("pcc_server_requests_total", "publish", status)
			n += int(v)
		}
	}
	return n
}

// commitFallbacks reads pcc_client_fallbacks_total{op="commit"}.
func (r *remote) commitFallbacks() float64 {
	v, _ := r.transport.Metrics().Snapshot().Value("pcc_client_fallbacks_total", "commit")
	return v
}

func (r *remote) kill() {
	for _, srv := range r.servers {
		srv.Close()
	}
}

// machine is a fresh machine: an empty local database in front of the
// remote.
func (r *remote) machine(t *testing.T) *cacheserver.Fallback {
	t.Helper()
	local, err := core.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return cacheserver.NewFallback(r.transport, local)
}

// publishAllButOne seeds the remote with w's cold-run entry less its last
// trace, so a warm launch from it has that one to translate, and returns
// the whole entry.
func (r *remote) publishAllButOne(t *testing.T, w *world) *core.CacheFile {
	t.Helper()
	v, _ := w.ranVM(t, 50)
	cf, _ := core.BuildCacheFile(v)
	if len(cf.Traces) < 2 {
		t.Fatalf("cold run produced %d traces, want at least 2", len(cf.Traces))
	}
	partial := &core.CacheFile{
		AppKey: cf.AppKey, VMKey: cf.VMKey, ToolKey: cf.ToolKey,
		AppPath: cf.AppPath, Modules: cf.Modules, Traces: cf.Traces[:len(cf.Traces)-1],
	}
	if _, err := r.transport.Publish(partial); err != nil {
		t.Fatal(err)
	}
	return cf
}

// TestRemotePrimedRunThatAddsNothingDoesNotPublish: a fresh machine launched
// warm from the remote entry translates nothing, so its commit sends no
// PUBLISH — every owner already holds what it would send — and writes the
// entry to the local database instead. With every daemon then gone, the
// machine's next launch primes from that copy and translates nothing.
func TestRemotePrimedRunThatAddsNothingDoesNotPublish(t *testing.T) {
	forEachRemote(t, func(t *testing.T, r *remote) {
		w := buildWorld(t, "addsnothing", 21)
		v, _ := w.ranVM(t, 50)
		cf, _ := core.BuildCacheFile(v)
		if _, err := r.transport.Publish(cf); err != nil {
			t.Fatal(err)
		}
		before := r.publishes()

		f := r.machine(t)
		res, prep, crep := runWithFallback(t, f, w, 50)
		if prep.Installed != len(cf.Traces) || res.Stats.InstsTranslated != 0 || res.Stats.RemoteHits == 0 {
			t.Fatalf("launch: prime %+v, %d instructions translated, %d remote hits; want every trace from the remote",
				prep, res.Stats.InstsTranslated, res.Stats.RemoteHits)
		}
		if n := r.publishes() - before; n != 0 {
			t.Errorf("a run that added nothing sent %d PUBLISH requests, want 0", n)
		}
		if crep.Skipped || crep.Traces != len(cf.Traces) || crep.Ticks == 0 {
			t.Errorf("commit %+v, want the %d traces written to the local database and charged", crep, len(cf.Traces))
		}
		if entries, err := f.Local().Entries(); err != nil || len(entries) != 1 {
			t.Fatalf("local database holds %d entries (%v), want the launched one", len(entries), err)
		}

		r.kill()
		again, prep, _ := runWithFallback(t, f, w, 50)
		if prep.Installed != len(cf.Traces) || again.Stats.InstsTranslated != 0 {
			t.Fatalf("launch with every daemon gone: prime %+v, %d instructions translated; want warm from the local copy",
				prep, again.Stats.InstsTranslated)
		}
	})
}

// TestRemotePrimedRunThatTranslatesPublishes: a run that had to translate a
// trace the remote entry lacked publishes, once, and the owners merge it.
func TestRemotePrimedRunThatTranslatesPublishes(t *testing.T) {
	forEachRemote(t, func(t *testing.T, r *remote) {
		w := buildWorld(t, "addsone", 22)
		cf := r.publishAllButOne(t, w)
		before := r.publishes()
		res, prep, crep := runWithFallback(t, r.machine(t), w, 50)
		if prep.Installed != len(cf.Traces)-1 || res.Stats.TracesTranslated == 0 {
			t.Fatalf("launch: prime %+v, %d traces translated; want all but one primed and the rest translated",
				prep, res.Stats.TracesTranslated)
		}
		if n := r.publishes() - before; n != len(r.servers) {
			t.Errorf("%d PUBLISH requests, want one Publish, which reaches %d owners", n, len(r.servers))
		}
		if crep.Traces != len(cf.Traces) {
			t.Errorf("publish report %+v, want the merged %d traces", crep, len(cf.Traces))
		}
	})
}

// TestCompactionBetweenPrimeAndPublish: the remote entry a run was primed
// from is evicted, and its blobs compacted away, before the run commits.
// The run's publication names the blobs it reused by address, so each
// owner answers its first PUBLISH not found; the resend with every blob
// commits, no commit degrades to the local database, and the next launch
// primes warm from what the resend wrote.
func TestCompactionBetweenPrimeAndPublish(t *testing.T) {
	forEachRemote(t, func(t *testing.T, r *remote) {
		w := buildWorld(t, "compacted", 23)
		cf := r.publishAllButOne(t, w)
		f, v := r.machine(t), w.freshVM(t, 50)
		if prep, err := f.Prime(v); err != nil || prep.Installed != len(cf.Traces)-1 {
			t.Fatalf("prime %+v, %v; want all but one trace from the remote", prep, err)
		}
		if _, err := v.Run(); err != nil {
			t.Fatal(err)
		}
		stem := core.FileStem(core.KeysFor(v).ManifestFileName())
		for _, addr := range r.addrs {
			c := newClient(addr)
			ev, err := c.Evict([]string{stem})
			if err != nil || ev.Evicted != 1 {
				t.Fatalf("EVICT: %+v, %v", ev, err)
			}
			if cr, err := c.CompactStore(); err != nil || cr.PrunedOrphans == 0 {
				t.Fatalf("COMPACT: %+v, %v; want the entry's blobs pruned", cr, err)
			}
			c.Close()
		}

		notFound, ok := r.publishes("notfound"), r.publishes("ok")
		crep, err := f.Commit(v)
		if err != nil || crep.Skipped || crep.Traces != len(cf.Traces) {
			t.Fatalf("commit %+v, %v; want the %d traces published", crep, err, len(cf.Traces))
		}
		if n := r.publishes("notfound") - notFound; n != len(r.servers) {
			t.Errorf("%d PUBLISH requests answered not found, want the first try on each of %d owners", n, len(r.servers))
		}
		if n := r.publishes("ok") - ok; n != len(r.servers) {
			t.Errorf("%d PUBLISH requests committed, want the resend on each of %d owners", n, len(r.servers))
		}
		if n := r.commitFallbacks(); n != 0 {
			t.Errorf("pcc_client_fallbacks_total{op=\"commit\"} = %v, want 0", n)
		}
		res, prep, _ := runWithFallback(t, r.machine(t), w, 50)
		if prep.Installed != len(cf.Traces) || res.Stats.TracesTranslated != 0 {
			t.Errorf("next launch: prime %+v, %d traces translated; want warm from the resent entry", prep, res.Stats.TracesTranslated)
		}
	})
}

// TestInterAppPrimedRunPublishes: a run primed from another application's
// entry publishes its own, however much of it came from the other one.
func TestInterAppPrimedRunPublishes(t *testing.T) {
	forEachRemote(t, func(t *testing.T, r *remote) {
		donor, _ := buildWorld(t, "donor", 23).ranVM(t, 50)
		cf, _ := core.BuildCacheFile(donor)
		if _, err := r.transport.Publish(cf); err != nil {
			t.Fatal(err)
		}
		before := r.publishes()
		f := r.machine(t)
		v := buildWorld(t, "borrower", 24).freshVM(t, 50)
		if _, err := f.Prime(v); !errors.Is(err, core.ErrNoCache) {
			t.Fatalf("exact prime of an application nobody published: %v, want ErrNoCache", err)
		}
		prep, err := f.PrimeInterApp(v)
		if err != nil || prep.Installed == 0 {
			t.Fatalf("inter-application prime: %+v, %v; want the donor's shared-library traces", prep, err)
		}
		if _, err := v.Run(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Commit(v); err != nil {
			t.Fatal(err)
		}
		if n := r.publishes() - before; n != len(r.servers) {
			t.Errorf("%d PUBLISH requests after an inter-application prime, want one Publish to %d owners", n, len(r.servers))
		}
	})
}

// TestRunThatAddsAfterDaemonDiesDegradesToLocal: the remote dies between the
// prime and the commit of a run that translated something. The publish
// fails, is counted as a fallback, and the commit lands in the local
// database.
func TestRunThatAddsAfterDaemonDiesDegradesToLocal(t *testing.T) {
	forEachRemote(t, func(t *testing.T, r *remote) {
		w := buildWorld(t, "addsthendies", 25)
		cf := r.publishAllButOne(t, w)
		f := r.machine(t)
		v := w.freshVM(t, 50)
		if prep, err := f.Prime(v); err != nil || prep.Installed != len(cf.Traces)-1 {
			t.Fatalf("prime: %+v, %v", prep, err)
		}
		r.kill()
		res, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.TracesTranslated == 0 {
			t.Fatal("the run translated nothing; the test exercised nothing")
		}
		before := r.commitFallbacks()
		crep, err := f.Commit(v)
		if err != nil {
			t.Fatalf("commit after the remote died: %v", err)
		}
		if n := r.commitFallbacks() - before; n != 1 {
			t.Errorf(`pcc_client_fallbacks_total{op="commit"} moved by %v, want 1`, n)
		}
		if crep.Traces != len(cf.Traces) {
			t.Errorf("local commit %+v, want all %d traces", crep, len(cf.Traces))
		}
		if entries, err := f.Local().Entries(); err != nil || len(entries) != 1 {
			t.Errorf("local database holds %d entries (%v), want the degraded commit", len(entries), err)
		}
	})
}
