package guestfuzz

import (
	"strings"
	"testing"

	"persistcc/internal/diffexec"
	"persistcc/internal/guestopt"
	"persistcc/internal/isa"
	"persistcc/internal/loader"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

// richCase is a case big and varied enough that every oracle's guarded
// layer is actually on the execution path: multiple regions, a private
// library under ASLR with distinct warm/cold layouts.
func richCase() *Case {
	c := &Case{
		Spec: workload.ProgSpec{
			Name:        "fz",
			Seed:        42,
			PrivateLibs: []string{"libp0.so"},
			Regions: []workload.RegionSpec{
				{Funcs: 4, Module: 0},
				{Funcs: 3, Module: 1},
			},
		},
		In: workload.Input{Units: []workload.Unit{
			{Entry: 0, Iters: 3}, {Entry: 1, Iters: 2}, {Entry: 0, Iters: 1},
		}},
		Placement:    uint8(loader.PlaceASLR),
		ASLRSeed:     22,
		WarmASLRSeed: 11,
	}
	c.Normalize()
	return c
}

// TestOraclesPassOnHealthySystem: with no injected bug, every oracle must
// stay quiet on every seed case — a fuzzer whose oracles fire spuriously
// drowns real findings.
func TestOraclesPassOnHealthySystem(t *testing.T) {
	cases := append(SeedCases(), richCase())
	for _, c := range cases {
		for _, o := range AllOracles {
			v, err := RunOracle(o, c, nil)
			if err != nil {
				t.Fatalf("oracle %s on %s: %v", o, c.Key(), err)
			}
			if v != nil {
				t.Errorf("oracle %s fired without a bug on %s: %s", o, c.Key(), v)
			}
		}
	}
}

// TestOraclesFireOnInjectedBugs: each oracle must detect the deliberate
// corruption of exactly the layer it guards. An oracle that cannot fail is
// not a test.
func TestOraclesFireOnInjectedBugs(t *testing.T) {
	tests := []struct {
		name   string
		oracle string
		hooks  *Hooks
	}{
		{
			name:   "miscompiled translation",
			oracle: OracleInterpTrans,
			hooks:  &Hooks{TamperTranslated: tamperImm},
		},
		{
			name:   "corrupted store blob",
			oracle: OracleColdWarm,
			hooks:  &Hooks{CorruptDB: corruptStoreBlobs},
		},
		{
			name:   "checker-evading optimizer miscompile",
			oracle: OracleOptPlain,
			hooks: &Hooks{MutateOptimized: func(tr *vm.Trace) {
				tamperImm(tr)
			}},
		},
		{
			name:   "truncated recording",
			oracle: OracleRecReplay,
			hooks:  &Hooks{TamperRec: truncateRec},
		},
		// A mode only the registry reaches: the same store-blob corruption
		// applied to every fleet shard's serving database between publish
		// and the warm prime, judged against the interpreter.
		{
			name:   "corrupted fleet shard store",
			oracle: "fleet-warmed",
			hooks:  &Hooks{CorruptDB: corruptStoreBlobs},
		},
	}
	c := richCase()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if v, err := RunOracle(tt.oracle, c, nil); err != nil || v != nil {
				t.Fatalf("oracle not silent without the bug: verdict %v, err %v", v, err)
			}
			v, err := RunOracle(tt.oracle, c, tt.hooks)
			if err != nil {
				t.Fatalf("oracle errored instead of judging: %v", err)
			}
			if v == nil {
				t.Fatalf("oracle %s did not fire on %s", tt.oracle, tt.name)
			}
			if v.Oracle != tt.oracle {
				t.Errorf("verdict names oracle %s, want %s", v.Oracle, tt.oracle)
			}
			t.Logf("verdict: %s", v)
		})
	}
}

// TestPreCheckerMutationIsRejectedNotDivergent: guestopt's own Config.Mutate
// hook corrupts rewrites BEFORE the independent equivalence checker — the
// checker must reject them (falling back unoptimized), so the opt-vs-plain
// oracle stays quiet and the reject counter moves. This is the defense the
// post-checker MutateOptimized hook deliberately evades.
func TestPreCheckerMutationIsRejectedNotDivergent(t *testing.T) {
	c := richCase()
	cfg := guestopt.All()
	cfg.Mutate = func(insts []isa.Inst) {
		for i := range insts {
			if insts[i].Op == isa.OpAddI && insts[i].Imm != 0 {
				insts[i].Imm++
				return
			}
		}
	}
	// The case's translated run under the mutating optimizer, held to the
	// harness's arch-loose contract against the interpreter.
	dc, err := c.diffCase()
	if err != nil {
		t.Fatal(err)
	}
	newVM := dc.NewVM
	dc.NewVM = func(seed uint64, opts ...vm.Option) (*vm.VM, error) {
		return newVM(seed, append([]vm.Option{vm.WithOptimizer(guestopt.New(cfg))}, opts...)...)
	}
	env := &diffexec.Env{Case: dc, Dir: t.TempDir()}
	defer env.Close()
	ref, err := env.Run("interpreted")
	if err != nil {
		t.Fatal(err)
	}
	got, err := env.Run("cold-translated")
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.OptRejects == 0 {
		t.Fatal("mutated rewrites were never rejected; the checker gate is dead")
	}
	for _, d := range diffexec.Diff(ref, got, diffexec.ArchLoose) {
		t.Errorf("checker let a miscompile through: %s", d)
	}
}

// TestVerdictDetailNamesDisagreement: a verdict must say what diverged, not
// just that something did — triage starts from the Detail string.
func TestVerdictDetailNamesDisagreement(t *testing.T) {
	v, err := RunOracle(OracleInterpTrans, richCase(), &Hooks{TamperTranslated: tamperImm})
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("no verdict")
	}
	for _, want := range []string{"exit", "output", "insts", "r", "errored"} {
		if strings.Contains(v.Detail, want) {
			return
		}
	}
	t.Errorf("detail %q names no compared quantity", v.Detail)
}
