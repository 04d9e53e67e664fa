package persistcc_test

// Differential-equivalence suite for the translation system: every workload
// row runs under every mode in the internal/diffexec registry (interpreted,
// translated, warm from disk / store / fleet, recorded-replayed, optimized)
// and all executions must agree bit for bit on the final architectural state
// and on every execution-behavior invariant their levels share; at equal
// cache warmth that includes the cache-behavior counters. How a mode is run
// and what "agree" means live in internal/diffexec; a new mode is one row
// there.

import (
	"testing"

	"persistcc/internal/diffexec"
	"persistcc/internal/instr"
	"persistcc/internal/loader"
	"persistcc/internal/testprog"
	"persistcc/internal/testutil"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

// noOpts is the own-options constructor of a case that has none. (Own options
// are built per VM: a tool instance must not be shared between executions.)
func noOpts() []vm.Option { return nil }

// worldCase adapts a hand-assembled application to a diffexec.Case; the
// build is shared, so all executions load identical binaries.
func worldCase(t *testing.T, name, src string, libs map[string]string, placement loader.Placement, input []uint64, own func() []vm.Option) diffexec.Case {
	w := testutil.BuildWorld(t, name, src, libs)
	return diffexec.Case{Name: name, Placement: placement, Input: input,
		NewVM: func(seed uint64, opts ...vm.Option) (*vm.VM, error) {
			p, err := testprog.Load(w.Exe, w.Libs, loader.Config{Placement: placement, ASLRSeed: seed})
			if err != nil {
				return nil, err
			}
			return vm.New(p, append(append([]vm.Option{vm.WithInput(input)}, own()...), opts...)...), nil
		}}
}

// progCase is worldCase for a generated workload.
func progCase(t *testing.T, spec workload.ProgSpec, in workload.Input, placement loader.Placement, own func() []vm.Option) diffexec.Case {
	prog, err := workload.BuildProgram(spec)
	if err != nil {
		t.Fatal(err)
	}
	return diffexec.Case{Name: spec.Name, Placement: placement, Input: in.Words(),
		NewVM: func(seed uint64, opts ...vm.Option) (*vm.VM, error) {
			return prog.NewVM(loader.Config{Placement: placement, ASLRSeed: seed}, in, append(own(), opts...)...)
		}}
}

func equivalenceCases(t *testing.T) []diffexec.Case {
	tool := func(mk func() vm.Tool) func() []vm.Option {
		return func() []vm.Option { return []vm.Option{vm.WithTool(mk())} }
	}
	libs := map[string]string{"libwork.so": testutil.LibWork}
	gen := func(name string, seed uint64) workload.ProgSpec {
		return workload.ProgSpec{Name: name, Seed: seed, PrivateLibs: []string{"libpriv.so"},
			Regions: []workload.RegionSpec{{Funcs: 12, Module: 0}, {Funcs: 8, Module: 1}}}
	}
	in := workload.Input{Name: "eq", Units: []workload.Unit{{Entry: 0, Iters: 9}, {Entry: 1, Iters: 5}, {Entry: 0, Iters: 3}}}
	return []diffexec.Case{
		worldCase(t, "eq-loop", testutil.MainSrc, libs, loader.PlaceSequential, []uint64{50}, noOpts),
		worldCase(t, "eq-loop-bbcount", testutil.MainSrc, libs, loader.PlaceSequential, []uint64{37},
			tool(func() vm.Tool { return &instr.BBCount{} })),
		worldCase(t, "eq-loop-memtrace", testutil.MainSrc, libs, loader.PlaceSequential, []uint64{23},
			tool(func() vm.Tool { return &instr.MemTrace{} })),
		progCase(t, gen("eq-gen", 77), in, loader.PlaceHashed, noOpts),
		progCase(t, gen("eq-gen-opmix", 1234), in, loader.PlaceHashed, tool(func() vm.Tool { return &instr.OpcodeMix{} })),
	}
}

func TestDifferentialEquivalence(t *testing.T) {
	var optimized uint64
	for _, c := range equivalenceCases(t) {
		t.Run(c.Name, func(t *testing.T) {
			env := &diffexec.Env{Case: c, Dir: testutil.TempDB(t)}
			defer env.Close()

			// Each mode against every mode before it, at the level the pair
			// shares: a warm mode against interpreted at arch, the cold
			// translated modes at translated behaviour and the other warm
			// modes at cache behaviour; an optimized mode arch-loose against
			// the unoptimized ones and at full arch + behaviour agreement
			// against optimized-cold.
			var snaps []*diffexec.Snapshot
			for _, m := range diffexec.Modes {
				s, err := env.Run(m.Name)
				if err != nil {
					t.Fatalf("%s: %v", m.Name, err)
				}
				for i, prev := range snaps {
					for _, d := range diffexec.Diff(prev, s, diffexec.PairLevel(diffexec.Modes[i], m)) {
						t.Error(d)
					}
				}
				snaps = append(snaps, s)

				// Non-vacuity and the per-mode contracts a snapshot carries.
				st := &s.Stats
				optimized += st.TracesOptimized
				if st.OptRejects != 0 {
					t.Errorf("%s: checker rejected %d engine rewrites", m.Name, st.OptRejects)
				}
				if m.Name == "optimized-warm" && st.TracesOptimized != 0 {
					t.Errorf("optimized-warm: re-optimized %d persisted traces", st.TracesOptimized)
				}
			}
		})
	}
	if optimized == 0 {
		t.Error("no trace was installed in optimized form in any workload; the optimized modes never exercised the optimizer")
	}
}
