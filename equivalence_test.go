package persistcc_test

// Differential-equivalence suite for the translation system: every workload
// runs under each mode in equivalenceModes — cold-interpreted,
// cold-translated, cold-pipelined, warm-from-disk, store-warmed,
// server-warmed, fleet-warmed (sharded daemons, consistent-hash routing),
// pipelined (4 workers, prefetch, batched commits), and recorded-replayed
// (a recorded warm run re-executed from its replay log) — and all
// executions must agree bit for bit on the final architectural state — registers,
// memory image, output — and on every execution-behavior invariant of
// Stats. The pipeline's determinism contract is stronger still: at equal
// cache warmth it must match the synchronous dispatcher on the cache-
// behavior counters too, so a speculative install that perturbed execution
// order (or tool observation order) fails this suite immediately.
//
// Adding a mode is one table row: a name, the invariant group it joins
// (arch / translated / warm), and a run function over the shared eqCtx.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"persistcc/internal/cacheserver"
	"persistcc/internal/cacheserver/fleet"
	"persistcc/internal/core"
	"persistcc/internal/guestopt"
	"persistcc/internal/instr"
	"persistcc/internal/isa"
	"persistcc/internal/loader"
	"persistcc/internal/replay"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

// snap is everything one execution mode is compared on.
type snap struct {
	mode    string
	res     *vm.Result
	regs    [isa.NumRegs]uint64
	memSum  [sha256.Size]byte
	markIDs []uint64
}

func takeSnap(mode string, v *vm.VM, res *vm.Result) *snap {
	s := &snap{mode: mode, res: res}
	for r := 0; r < isa.NumRegs; r++ {
		s.regs[r] = v.Reg(uint8(r))
	}
	s.memSum = replay.MemSum(v)
	for _, mk := range res.Stats.Marks {
		s.markIDs = append(s.markIDs, mk.ID)
	}
	return s
}

// eqRow is one workload of the suite. newVM returns a fresh VM with the
// input attached and the given extra options applied; the build itself is
// cached across modes so all executions load identical binaries.
type eqRow struct {
	name  string
	tool  func() vm.Tool // fresh tool instance per mode; nil = uninstrumented
	newVM func(t *testing.T, opts ...vm.Option) *vm.VM
}

func worldRow(name, src string, libs map[string]string, input []uint64, tool func() vm.Tool) eqRow {
	var w *testutil.World
	return eqRow{
		name: name,
		tool: tool,
		newVM: func(t *testing.T, opts ...vm.Option) *vm.VM {
			if w == nil {
				w = testutil.BuildWorld(t, name, src, libs)
			}
			return w.NewVM(t, testutil.RunOpts{Input: input, Options: opts})
		},
	}
}

func genRow(name string, seed uint64, tool func() vm.Tool) eqRow {
	var prog *workload.Program
	in := workload.Input{Name: "eq", Units: []workload.Unit{{Entry: 0, Iters: 9}, {Entry: 1, Iters: 5}, {Entry: 0, Iters: 3}}}
	return eqRow{
		name: name,
		tool: tool,
		newVM: func(t *testing.T, opts ...vm.Option) *vm.VM {
			if prog == nil {
				p, err := workload.BuildProgram(workload.ProgSpec{
					Name: name, Seed: seed,
					PrivateLibs: []string{"libpriv.so"},
					Regions:     []workload.RegionSpec{{Funcs: 12, Module: 0}, {Funcs: 8, Module: 1}},
				})
				if err != nil {
					t.Fatal(err)
				}
				prog = p
			}
			v, err := prog.NewVM(loader.Config{Placement: loader.PlaceHashed}, in, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return v
		},
	}
}

func equivalenceRows() []eqRow {
	return []eqRow{
		worldRow("eq-loop", testutil.MainSrc, map[string]string{"libwork.so": testutil.LibWork},
			[]uint64{50}, nil),
		worldRow("eq-loop-bbcount", testutil.MainSrc, map[string]string{"libwork.so": testutil.LibWork},
			[]uint64{37}, func() vm.Tool { return &instr.BBCount{} }),
		worldRow("eq-loop-memtrace", testutil.MainSrc, map[string]string{"libwork.so": testutil.LibWork},
			[]uint64{23}, func() vm.Tool { return &instr.MemTrace{} }),
		genRow("eq-gen", 77, nil),
		genRow("eq-gen-opmix", 1234, func() vm.Tool { return &instr.OpcodeMix{} }),
	}
}

// eqGroup selects which invariant sets a mode participates in; each group
// includes the checks of the ones before it.
type eqGroup int

const (
	// groupArch: architectural state only — the interpreter's contract.
	groupArch eqGroup = iota
	// groupTranslated: + translated-behavior invariants (what the program
	// and its tool observed), regardless of cache warmth.
	groupTranslated
	// groupWarm: + cache-behavior counters — modes at equal warmth must
	// match the synchronous warm dispatcher event for event.
	groupWarm
	// groupOptimized: runs under the guestopt translation-time optimizer.
	// Optimized code executes fewer instructions, so these modes are held
	// to a looser contract against the interpreter (architectural state,
	// output, syscalls, marks — but not InstsExecuted) and to the full
	// translated-behavior contract against each other.
	groupOptimized
)

// eqCtx is the state one workload's modes share. Modes run in table order:
// cold-translated commits the database (mgr) and retains its VM (coldVM) as
// the cache source every warm mode reuses.
type eqCtx struct {
	t         *testing.T
	row       eqRow
	mgr       *core.Manager
	freshVM   func(extra ...vm.Option) *vm.VM
	coldVM    *vm.VM
	optVM     *vm.VM // the optimized-cold VM, cache source for optimized-warm
	adopted   uint64 // speculative adoptions observed (pipelined modes)
	optimized uint64 // traces installed in optimized form (optimized modes)
}

func (c *eqCtx) mustRun(v *vm.VM) *vm.Result {
	c.t.Helper()
	res, err := v.Run()
	if err != nil {
		c.t.Fatal(err)
	}
	return res
}

// eqMode is one execution mode — one table row.
type eqMode struct {
	name  string
	group eqGroup
	run   func(c *eqCtx) *snap
}

func equivalenceModes() []eqMode {
	return []eqMode{
		// Cold, interpreted — the reference semantics.
		{"interpreted", groupArch, func(c *eqCtx) *snap {
			v := c.freshVM()
			res, err := v.RunNative()
			if err != nil {
				c.t.Fatal(err)
			}
			return takeSnap("interpreted", v, res)
		}},
		// Cold, synchronously translated; commits the database every warm
		// mode reuses.
		{"cold-translated", groupTranslated, func(c *eqCtx) *snap {
			v := c.freshVM()
			res := c.mustRun(v)
			if _, err := c.mgr.Commit(v); err != nil {
				c.t.Fatal(err)
			}
			c.coldVM = v
			return takeSnap("cold-translated", v, res)
		}},
		// Cold, pipelined — nothing primed, so every miss goes through the
		// speculative decode/adopt path, and batched commits land in a
		// throwaway database. This is the mode that catches a speculative
		// install corrupting execution order.
		{"cold-pipelined", groupTranslated, func(c *eqCtx) *snap {
			pipe := vm.NewPipeline(4)
			defer pipe.Shutdown()
			v := c.freshVM(vm.WithPipeline(pipe))
			pipe.SetCommit(testutil.NewMgr(c.t).BatchCommitter(v))
			res := c.mustRun(v)
			c.adopted += res.Stats.SpecTranslated
			return takeSnap("cold-pipelined", v, res)
		}},
		// Warm from disk, synchronous dispatch — the warm-group reference.
		{"warm-disk", groupWarm, func(c *eqCtx) *snap {
			v := c.freshVM()
			rep, err := c.mgr.Prime(v)
			if err != nil {
				c.t.Fatal(err)
			}
			if rep.Installed == 0 {
				c.t.Fatal("warm mode installed nothing; equivalence would be vacuous")
			}
			return takeSnap("warm-disk", v, c.mustRun(v))
		}},
		// Warm from the content-addressed store — the cold run's entry is
		// committed through a store-format manager (manifest + shared
		// blobs) and primed back. The store round trip must be invisible.
		{"store-warmed", groupWarm, func(c *eqCtx) *snap {
			smgr := testutil.NewMgr(c.t, core.WithStore())
			if _, err := smgr.Commit(c.coldVM); err != nil {
				c.t.Fatal(err)
			}
			v := c.freshVM()
			rep, err := smgr.Prime(v)
			if err != nil {
				c.t.Fatal(err)
			}
			if rep.Installed == 0 {
				c.t.Fatal("store-warm mode installed nothing; equivalence would be vacuous")
			}
			return takeSnap("store-warmed", v, c.mustRun(v))
		}},
		// Server-warmed — the cache arrives over the wire and installs
		// through the fallback's validation path.
		{"server-warmed", groupWarm, func(c *eqCtx) *snap {
			return serverSnap(c.t, c.freshVM, c.coldVM)
		}},
		// Fleet-warmed — the cache arrives through a sharded fleet with
		// consistent-hash routing and replication. Routing must be
		// invisible: identical state and counters to every other warm mode.
		{"fleet-warmed", groupWarm, func(c *eqCtx) *snap {
			return fleetSnap(c.t, c.freshVM, c.coldVM)
		}},
		// Pipelined — prefetch bulk install, speculative workers, batched
		// commits, against the same database.
		{"pipelined", groupWarm, func(c *eqCtx) *snap {
			pipe := vm.NewPipeline(4, vm.PipelinePrefetch())
			defer pipe.Shutdown()
			v := c.freshVM(vm.WithPipeline(pipe))
			pipe.SetCommit(c.mgr.BatchCommitter(v))
			rep, err := c.mgr.Prime(v)
			if err != nil {
				c.t.Fatal(err)
			}
			res := c.mustRun(v)
			if res.Stats.PrefetchInstalls != uint64(rep.Installed) {
				c.t.Errorf("prefetch installed %d of %d primed traces", res.Stats.PrefetchInstalls, rep.Installed)
			}
			c.adopted += res.Stats.SpecTranslated
			return takeSnap("pipelined", v, res)
		}},
		// Recorded-replayed — a warm run is recorded through the VM
		// boundary, then re-executed from its log: every boundary value
		// pinned, final state verified bit-exactly by the replayer itself,
		// and the replayed snapshot held to the warm group's invariants.
		{"recorded-replayed", groupWarm, recordedReplayedSnap},
		// Optimized, cold — every trace goes through the guestopt passes
		// and equivalence checker before install; commits to the shared
		// database under the optimizer's distinct VM key.
		{"optimized-cold", groupOptimized, func(c *eqCtx) *snap {
			v := c.freshVM(vm.WithOptimizer(guestopt.New(guestopt.All())))
			res := c.mustRun(v)
			if res.Stats.OptRejects != 0 {
				c.t.Errorf("optimized-cold: checker rejected %d engine rewrites", res.Stats.OptRejects)
			}
			c.optimized += res.Stats.TracesOptimized
			if _, err := c.mgr.Commit(v); err != nil {
				c.t.Fatal(err)
			}
			c.optVM = v
			return takeSnap("optimized-cold", v, res)
		}},
		// Optimized, warm through the content-addressed store — the
		// optimized traces round-trip as PCB2 blobs and prime back
		// pre-optimized: the warm run must not re-run the passes.
		{"optimized-warm", groupOptimized, func(c *eqCtx) *snap {
			smgr := testutil.NewMgr(c.t, core.WithStore())
			if _, err := smgr.Commit(c.optVM); err != nil {
				c.t.Fatal(err)
			}
			v := c.freshVM(vm.WithOptimizer(guestopt.New(guestopt.All())))
			rep, err := smgr.Prime(v)
			if err != nil {
				c.t.Fatal(err)
			}
			if rep.Installed == 0 {
				c.t.Fatal("optimized-warm mode installed nothing; equivalence would be vacuous")
			}
			res := c.mustRun(v)
			if res.Stats.TracesOptimized != 0 {
				c.t.Errorf("optimized-warm: re-optimized %d persisted traces", res.Stats.TracesOptimized)
			}
			return takeSnap("optimized-warm", v, res)
		}},
	}
}

func TestDifferentialEquivalence(t *testing.T) {
	var adoptedTotal, optimizedTotal uint64
	for _, row := range equivalenceRows() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			c := &eqCtx{t: t, row: row, mgr: testutil.NewMgr(t)}
			c.freshVM = func(extra ...vm.Option) *vm.VM {
				if row.tool != nil {
					extra = append([]vm.Option{vm.WithTool(row.tool())}, extra...)
				}
				return row.newVM(t, extra...)
			}
			var all, translated, warm, optimized []*snap
			for _, m := range equivalenceModes() {
				s := m.run(c)
				if m.group == groupOptimized {
					optimized = append(optimized, s)
					continue
				}
				all = append(all, s)
				if m.group >= groupTranslated {
					translated = append(translated, s)
				}
				if m.group >= groupWarm {
					warm = append(warm, s)
				}
			}
			checkArchitectural(t, all)
			checkBehavior(t, translated)
			checkCacheBehavior(t, warm)
			// Optimized modes: loose architectural agreement with the
			// interpreter, full architectural + behavior agreement with
			// each other (both execute the same optimized code).
			checkArchLoose(t, all[0], optimized)
			checkArchitectural(t, optimized)
			checkBehavior(t, optimized)
			adoptedTotal += c.adopted
			optimizedTotal += c.optimized
		})
	}
	if adoptedTotal == 0 {
		t.Error("no speculative translation was adopted in any workload; the pipelined modes never exercised the speculative-install path")
	}
	if optimizedTotal == 0 {
		t.Error("no trace was installed in optimized form in any workload; the optimized modes never exercised the optimizer")
	}
}

// recordedReplayedSnap implements the ninth mode: record one warm run, then
// replay the log against an identically built VM primed from the same
// database (equal warmth, so cache-behavior counters must match too). The
// replayer verifies the run bit-exactly against the recording; the returned
// snapshot is the replayed execution's, so the suite also holds it to every
// cross-mode invariant.
func recordedReplayedSnap(c *eqCtx) *snap {
	t := c.t
	t.Helper()
	logPath := filepath.Join(t.TempDir(), "run.rec")
	rec, err := replay.NewRecorder(nil, logPath)
	if err != nil {
		t.Fatal(err)
	}
	vR := c.freshVM(vm.WithBoundary(rec))
	if err := rec.Start(replay.StartInfo{Program: c.row.name, PID: 1, Proc: vR.Process()}); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.mgr.Prime(vR); err != nil {
		t.Fatal(err)
	} else if rep.Installed == 0 {
		t.Fatal("recorded run installed nothing; equivalence would be vacuous")
	}
	resR := c.mustRun(vR)
	if err := rec.Finish(vR, resR); err != nil {
		t.Fatal(err)
	}

	rp, err := replay.Open(nil, logPath)
	if err != nil {
		t.Fatal(err)
	}
	v := c.freshVM(vm.WithBoundary(rp), vm.WithPID(rp.PID()))
	if err := rp.VerifyLayout(v.Process()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.mgr.Prime(v); err != nil {
		t.Fatal(err)
	}
	res := c.mustRun(v)
	if err := rp.Finish(v, res); err != nil {
		t.Fatalf("replay diverged from its own recording: %v", err)
	}
	return takeSnap("recorded-replayed", v, res)
}

// serverSnap runs the server-warmed mode: an in-process daemon is seeded
// with the cold run's cache file, and the run primes through a Fallback
// whose local database is empty — every installed trace travelled the wire.
func serverSnap(t *testing.T, freshVM func(...vm.Option) *vm.VM, committed *vm.VM) *snap {
	t.Helper()
	smgr, err := core.NewManager(testutil.TempDB(t))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cacheserver.New(smgr)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := cacheserver.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	client := cacheserver.NewClient(ln.Addr().String(),
		cacheserver.WithRetry(1, time.Millisecond), cacheserver.WithDialTimeout(time.Second))
	t.Cleanup(func() { client.Close() })
	cf, _ := core.BuildCacheFile(committed)
	if _, err := client.Publish(cf); err != nil {
		t.Fatal(err)
	}

	local, err := core.NewManager(testutil.TempDB(t))
	if err != nil {
		t.Fatal(err)
	}
	fb := cacheserver.NewFallback(client, local)
	v := freshVM()
	rep, err := fb.Prime(v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Installed == 0 || v.Stats().RemoteHits == 0 {
		t.Fatalf("server mode installed nothing remotely: %+v", rep)
	}
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	return takeSnap("server-warmed", v, res)
}

// fleetSnap runs the fleet-warmed mode: a two-shard in-process fleet is
// seeded with the cold run's cache file through the routing client (so the
// entry lands on its consistent-hash owners, replicated), and the run
// primes through a Fallback whose local database is empty — the installed
// traces travelled the wire via whichever shard the ring picked.
func fleetSnap(t *testing.T, freshVM func(...vm.Option) *vm.VM, committed *vm.VM) *snap {
	t.Helper()
	var cfg fleet.Config
	for i := 0; i < 2; i++ {
		smgr, err := core.NewManager(testutil.TempDB(t))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := cacheserver.New(smgr)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := cacheserver.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		cfg.Shards = append(cfg.Shards, fleet.Shard{ID: fmt.Sprintf("eq%d", i), Addr: ln.Addr().String()})
	}
	fl, err := fleet.New(&cfg, fleet.WithShardOptions(
		cacheserver.WithRetry(1, time.Millisecond), cacheserver.WithDialTimeout(time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	cf, _ := core.BuildCacheFile(committed)
	if _, err := fl.Publish(cf); err != nil {
		t.Fatal(err)
	}

	local, err := core.NewManager(testutil.TempDB(t))
	if err != nil {
		t.Fatal(err)
	}
	fb := cacheserver.NewFallback(fl, local)
	v := freshVM()
	rep, err := fb.Prime(v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Installed == 0 || v.Stats().RemoteHits == 0 {
		t.Fatalf("fleet mode installed nothing remotely: %+v", rep)
	}
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	return takeSnap("fleet-warmed", v, res)
}

// checkArchitectural asserts the invariants every mode — including the
// interpreter — must agree on: final architectural state and the
// execution-behavior facts of the program itself.
func checkArchitectural(t *testing.T, snaps []*snap) {
	t.Helper()
	ref := snaps[0]
	for _, s := range snaps[1:] {
		if s.res.ExitCode != ref.res.ExitCode {
			t.Errorf("%s: exit %d, %s has %d", s.mode, s.res.ExitCode, ref.mode, ref.res.ExitCode)
		}
		if !reflect.DeepEqual(s.res.Output, ref.res.Output) {
			t.Errorf("%s: output differs from %s (%d vs %d bytes)", s.mode, ref.mode, len(s.res.Output), len(ref.res.Output))
		}
		if s.regs != ref.regs {
			t.Errorf("%s: final registers differ from %s", s.mode, ref.mode)
		}
		if s.memSum != ref.memSum {
			t.Errorf("%s: final memory image differs from %s", s.mode, ref.mode)
		}
		if s.res.Stats.InstsExecuted != ref.res.Stats.InstsExecuted {
			t.Errorf("%s: executed %d insts, %s executed %d", s.mode, s.res.Stats.InstsExecuted, ref.mode, ref.res.Stats.InstsExecuted)
		}
		if !reflect.DeepEqual(s.res.Stats.Syscalls, ref.res.Stats.Syscalls) {
			t.Errorf("%s: syscall profile differs from %s", s.mode, ref.mode)
		}
		if !reflect.DeepEqual(s.markIDs, ref.markIDs) {
			t.Errorf("%s: mark sequence %v differs from %s %v", s.mode, s.markIDs, ref.mode, ref.markIDs)
		}
	}
}

// checkArchLoose holds optimized modes to the interpreter's observable
// contract — everything in checkArchitectural except InstsExecuted, which
// optimization legitimately reduces.
func checkArchLoose(t *testing.T, ref *snap, snaps []*snap) {
	t.Helper()
	for _, s := range snaps {
		if s.res.ExitCode != ref.res.ExitCode {
			t.Errorf("%s: exit %d, %s has %d", s.mode, s.res.ExitCode, ref.mode, ref.res.ExitCode)
		}
		if !reflect.DeepEqual(s.res.Output, ref.res.Output) {
			t.Errorf("%s: output differs from %s (%d vs %d bytes)", s.mode, ref.mode, len(s.res.Output), len(ref.res.Output))
		}
		if s.regs != ref.regs {
			t.Errorf("%s: final registers differ from %s", s.mode, ref.mode)
		}
		if s.memSum != ref.memSum {
			t.Errorf("%s: final memory image differs from %s", s.mode, ref.mode)
		}
		if s.res.Stats.InstsExecuted > ref.res.Stats.InstsExecuted {
			t.Errorf("%s: executed %d insts, more than %s's %d", s.mode, s.res.Stats.InstsExecuted, ref.mode, ref.res.Stats.InstsExecuted)
		}
		if !reflect.DeepEqual(s.res.Stats.Syscalls, ref.res.Stats.Syscalls) {
			t.Errorf("%s: syscall profile differs from %s", s.mode, ref.mode)
		}
		if !reflect.DeepEqual(s.markIDs, ref.markIDs) {
			t.Errorf("%s: mark sequence %v differs from %s %v", s.mode, s.markIDs, ref.mode, ref.markIDs)
		}
	}
}

// checkBehavior asserts the invariants shared by every translated mode
// regardless of cache warmth: what the program (and its tool) observed.
func checkBehavior(t *testing.T, snaps []*snap) {
	t.Helper()
	ref := snaps[0]
	for _, s := range snaps[1:] {
		rs, ss := &ref.res.Stats, &s.res.Stats
		if ss.TraceExecs != rs.TraceExecs {
			t.Errorf("%s: %d trace execs, %s has %d", s.mode, ss.TraceExecs, ref.mode, rs.TraceExecs)
		}
		if !reflect.DeepEqual(ss.Counters, rs.Counters) {
			t.Errorf("%s: tool counters differ from %s", s.mode, ref.mode)
		}
		if ss.MemRefs != rs.MemRefs || ss.MemRefHash != rs.MemRefHash {
			t.Errorf("%s: memory-trace profile differs from %s", s.mode, ref.mode)
		}
		if ss.OpcodeMix != rs.OpcodeMix {
			t.Errorf("%s: opcode mix differs from %s", s.mode, ref.mode)
		}
	}
}

// checkCacheBehavior asserts the pipeline determinism contract: at equal
// warmth, speculative installs and bulk prefetch must leave the cache-
// behavior counters exactly where the synchronous dispatcher leaves them.
func checkCacheBehavior(t *testing.T, snaps []*snap) {
	t.Helper()
	ref := snaps[0]
	for _, s := range snaps[1:] {
		rs, ss := &ref.res.Stats, &s.res.Stats
		if ss.TracesTranslated != rs.TracesTranslated || ss.InstsTranslated != rs.InstsTranslated {
			t.Errorf("%s: translated %d traces/%d insts, %s has %d/%d",
				s.mode, ss.TracesTranslated, ss.InstsTranslated, ref.mode, rs.TracesTranslated, rs.InstsTranslated)
		}
		if ss.TracesReused != rs.TracesReused {
			t.Errorf("%s: reused %d traces, %s has %d", s.mode, ss.TracesReused, ref.mode, rs.TracesReused)
		}
		if ss.Dispatches != rs.Dispatches {
			t.Errorf("%s: %d dispatches, %s has %d", s.mode, ss.Dispatches, ref.mode, rs.Dispatches)
		}
		if ss.IndirectHits != rs.IndirectHits || ss.IndirectMisses != rs.IndirectMisses {
			t.Errorf("%s: indirect %d/%d, %s has %d/%d",
				s.mode, ss.IndirectHits, ss.IndirectMisses, ref.mode, rs.IndirectHits, rs.IndirectMisses)
		}
		if ss.LinksPatched != rs.LinksPatched {
			t.Errorf("%s: %d links patched, %s has %d", s.mode, ss.LinksPatched, ref.mode, rs.LinksPatched)
		}
		if ss.Flushes != rs.Flushes {
			t.Errorf("%s: %d flushes, %s has %d", s.mode, ss.Flushes, ref.mode, rs.Flushes)
		}
	}
}

var _ = errors.Is // keep errors imported if assertions above change
