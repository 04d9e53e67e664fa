package guestopt_test

import (
	"testing"

	"persistcc/internal/diffexec"
	"persistcc/internal/guestopt"
	"persistcc/internal/isa"
	"persistcc/internal/loader"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

// mutantOpt optimizes each trace through one shared Optimizer, then shows
// the prover one single-edit mutant of the result — through the shared
// Optimizer, whose scratch has seen every earlier trace, and through a fresh
// one. A mutant both accept is installed in place of the engine's output:
// the run it is part of must still match the interpreter.
type mutantOpt struct {
	t         *testing.T
	shared    *guestopt.Optimizer
	kind      mutKind
	pos       int
	installed int
}

func (m *mutantOpt) Optimize(t *vm.Trace) vm.OptOutcome {
	orig := append([]isa.Inst(nil), t.Insts...)
	notes := append([]vm.RelocNote(nil), t.Notes...)
	pinned := pinnedOf(t)
	out := m.shared.Optimize(t)
	if out.Level == 0 {
		return out
	}
	insts, srcIdx, ok := mutate(m.kind, m.pos%len(t.Insts), t.Insts, t.SrcIdx, pinned)
	if !ok {
		return out
	}
	got := m.shared.CheckEquivalent(orig, insts, srcIdx, pinned)
	want := guestopt.New(guestopt.All()).CheckEquivalent(orig, insts, srcIdx, pinned)
	if (got == nil) != (want == nil) {
		m.t.Errorf("trace %#x: reused optimizer says %v, a fresh one %v\norig: %v\nmutant: %v %v", t.Start, got, want, orig, insts, srcIdx)
	}
	if got != nil {
		return out
	}
	m.installed++
	t.Insts, t.SrcIdx = insts, srcIdx
	for i, n := range notes { // an accepted mutant kept every pinned index
		for k, s := range srcIdx {
			if s == n.InstIdx {
				t.Notes[i].InstIdx = uint16(k)
			}
		}
	}
	out.Removed = len(orig) - len(insts)
	return out
}

// FuzzCheckEquivalent: a generated program's traces → engine → one mutation
// each (the golden test's edit kinds) → the reused prover's verdict must be
// a fresh prover's, and a program running the accepted mutants must be
// indistinguishable from the interpreter's run of it.
func FuzzCheckEquivalent(f *testing.F) {
	for kind := mutKind(0); kind < nMutKinds; kind++ {
		f.Add(uint64(77), uint8(kind), uint16(kind))
		f.Add(uint64(1234), uint8(kind), uint16(3*kind+1))
	}
	in := workload.Input{Name: "fz", Units: []workload.Unit{{Entry: 0, Iters: 3}, {Entry: 1, Iters: 2}}}
	f.Fuzz(func(t *testing.T, progSeed uint64, kind uint8, pos uint16) {
		prog, err := workload.BuildProgram(workload.ProgSpec{Name: "fz", Seed: progSeed, PrivateLibs: []string{"libpriv.so"},
			Regions: []workload.RegionSpec{{Funcs: 6, Module: 0}, {Funcs: 4, Module: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		m := &mutantOpt{t: t, shared: guestopt.New(guestopt.All()), kind: mutKind(kind % uint8(nMutKinds)), pos: int(pos)}
		env := &diffexec.Env{Dir: t.TempDir(), Case: diffexec.Case{Name: "fz", Placement: loader.PlaceHashed, Input: in.Words(),
			NewVM: func(seed uint64, opts ...vm.Option) (*vm.VM, error) {
				return prog.NewVM(loader.Config{Placement: loader.PlaceHashed, ASLRSeed: seed}, in,
					append([]vm.Option{vm.WithOptimizer(m)}, opts...)...)
			}}}
		defer env.Close()
		ref, err := env.Run("interpreted")
		if err != nil {
			t.Fatal(err)
		}
		got, err := env.Run("cold-translated")
		if err != nil {
			t.Fatalf("with %d accepted mutants installed: %v", m.installed, err)
		}
		for _, d := range diffexec.Diff(ref, got, diffexec.ArchLoose) {
			t.Errorf("an accepted mutant (%d installed) changed the program: %s", m.installed, d)
		}
	})
}
