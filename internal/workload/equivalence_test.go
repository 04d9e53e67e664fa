package workload

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"persistcc/internal/diffexec"
	"persistcc/internal/loader"
	"persistcc/internal/replay"
	"persistcc/internal/vm"
)

// specFromWords derives a bounded, deterministic ProgSpec plus Input from
// five fuzzer-chosen words. Every value is clamped so arbitrary inputs
// build small programs that terminate quickly; the mapping is pure, so a
// crashing corpus entry reproduces exactly.
func specFromWords(seed, funcsA, funcsB, body, units uint64) (ProgSpec, Input) {
	spec := ProgSpec{
		Name:      "fz",
		Seed:      seed,
		BodyInsts: int(body%24) + 1,
		Regions:   []RegionSpec{{Funcs: int(funcsA%10) + 1, Module: 0}},
	}
	if funcsB%3 != 0 { // two thirds of inputs get a private library region
		spec.PrivateLibs = []string{"libfz.so"}
		spec.Regions = append(spec.Regions, RegionSpec{Funcs: int(funcsB%8) + 1, Module: 1})
	}
	in := Input{Name: "fz"}
	n := int(units%4) + 1
	x := seed ^ units*0x9E3779B97F4A7C15
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		in.Units = append(in.Units, Unit{
			Entry: int(x>>33) % len(spec.Regions),
			Iters: int(x>>7)%6 + 1,
		})
	}
	return spec, in
}

// checkTranslateEquivalence builds the program and runs it twice from
// identical initial state — once through the interpreter, once through the
// trace translator — and requires bit-identical final architectural state
// (diffexec's arch level: registers, memory, output, insts, syscalls, marks).
func checkTranslateEquivalence(t *testing.T, spec ProgSpec, in Input) {
	t.Helper()
	bundleOnFailure(t, spec, in)
	prog, err := BuildProgram(spec)
	if err != nil {
		t.Fatalf("spec %+v: %v", spec, err)
	}
	env := &diffexec.Env{Dir: t.TempDir(), Case: diffexec.Case{Name: spec.Name, Input: in.Words(),
		NewVM: func(seed uint64, opts ...vm.Option) (*vm.VM, error) {
			return prog.NewVM(loader.Config{ASLRSeed: seed}, in, opts...)
		}}}
	defer env.Close()
	diffs, err := env.Judge("interpreted", "cold-translated")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		t.Error(d)
	}
}

// bundleOnFailure self-packages a failing spec into the crasher corpus
// (crashers/pending, see replay.DefaultDir): the spec and input serialize
// into a replay.Crasher that the root-level corpus test can rebuild and
// re-judge byte for byte. The generator mapping is pure, so the artifact
// alone is a complete reproducer — no recording is needed. Registered as a
// cleanup so both Errorf and Fatalf paths bundle.
func bundleOnFailure(t *testing.T, spec ProgSpec, in Input) {
	t.Helper()
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		specJS, errS := json.Marshal(spec)
		unitsJS, errU := json.Marshal(in)
		if errS != nil || errU != nil {
			t.Logf("crasher bundle: marshal: %v / %v", errS, errU)
			return
		}
		sum := sha256.Sum256(append(append([]byte{}, specJS...), unitsJS...))
		c := &replay.Crasher{
			Name:  fmt.Sprintf("workload-div-%x", sum[:6]),
			Kind:  "divergence",
			Note:  "translated execution diverged from interpreted (auto-bundled by " + t.Name() + ")",
			Spec:  specJS,
			Units: unitsJS,
		}
		path, err := replay.WriteCrasher(nil, replay.DefaultDir(), c, nil)
		if err != nil {
			t.Logf("crasher bundle: %v", err)
			return
		}
		t.Logf("crasher bundled: %s", path)
	})
}

// TestTranslateEquivalenceProperty is the deterministic property sweep: a
// fixed pseudo-random walk over the generator's parameter space, checked on
// every `go test` run (the fuzzer explores beyond it in fuzz-smoke).
func TestTranslateEquivalenceProperty(t *testing.T) {
	x := uint64(0xD1B54A32D192ED03)
	for i := 0; i < 12; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		spec, in := specFromWords(x, x>>13, x>>29, x>>41, x>>53)
		spec.Name = "prop"
		checkTranslateEquivalence(t, spec, in)
	}
}

// FuzzTranslateEquivalence lets the fuzzer drive the workload generator:
// any five words must yield a program whose translated execution matches
// its interpreted execution exactly.
func FuzzTranslateEquivalence(f *testing.F) {
	f.Add(uint64(1), uint64(4), uint64(2), uint64(8), uint64(2))
	f.Add(uint64(77), uint64(11), uint64(7), uint64(23), uint64(3))
	f.Add(uint64(0xFFFFFFFFFFFFFFFF), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1234), uint64(9), uint64(3), uint64(15), uint64(1))
	f.Fuzz(func(t *testing.T, seed, funcsA, funcsB, body, units uint64) {
		spec, in := specFromWords(seed, funcsA, funcsB, body, units)
		checkTranslateEquivalence(t, spec, in)
	})
}
