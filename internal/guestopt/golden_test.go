package guestopt_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"persistcc/internal/guestopt"
	"persistcc/internal/isa"
	"persistcc/internal/loader"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

// The golden tests pin the optimizer's observable behaviour trace for trace:
// what the engine emits (TestOptimizerOutputGolden) and what the prover
// accepts (TestCheckerVerdictsGolden) over the repo's standard workloads.
// The digests below were produced by the map-based implementation this
// package started with; any change to the engine's or the checker's working
// memory must reproduce them bit for bit.

// capture records every trace a VM hands its optimizer, in translation
// order and in its pre-optimization form, then lets the real pass run so the
// translation order is the one an optimized launch sees.
type capture struct {
	inner  vm.Optimizer
	traces []*vm.Trace
}

func (c *capture) Optimize(t *vm.Trace) vm.OptOutcome {
	c.traces = append(c.traces, cloneTrace(t))
	return c.inner.Optimize(t)
}

func cloneTrace(t *vm.Trace) *vm.Trace {
	return &vm.Trace{
		Start:  t.Start,
		Module: t.Module,
		ModOff: t.ModOff,
		Insts:  append([]isa.Inst(nil), t.Insts...),
		Notes:  append([]vm.RelocNote(nil), t.Notes...),
	}
}

func captureTraces(t testing.TB, prog *workload.Program, in workload.Input) []*vm.Trace {
	t.Helper()
	c := &capture{inner: guestopt.New(guestopt.All())}
	v, err := prog.NewVM(loader.Config{}, in, vm.WithOptimizer(c))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if len(c.traces) == 0 {
		t.Fatal("the run translated nothing")
	}
	return c.traces
}

// goldenWorkloads returns the pre-optimization traces of 176.gcc Train[0],
// the five GUI start-ups (one group) and one SPEC model.
func goldenWorkloads(t testing.TB) (names []string, traces [][]*vm.Trace) {
	t.Helper()
	gcc, err := workload.BuildSpecBenchmark("176.gcc")
	if err != nil {
		t.Fatal(err)
	}
	gui, err := workload.BuildGUISuite()
	if err != nil {
		t.Fatal(err)
	}
	gzip, err := workload.BuildSpecBenchmark("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	var guiTraces []*vm.Trace
	for _, app := range gui.Apps {
		guiTraces = append(guiTraces, captureTraces(t, app.Prog, app.Startup)...)
	}
	return []string{"gcc", "gui", "gzip"}, [][]*vm.Trace{
		captureTraces(t, gcc.Prog, gcc.Train[0]),
		guiTraces,
		captureTraces(t, gzip.Prog, gzip.Train[0]),
	}
}

var goldenConfigs = []struct {
	name string
	cfg  guestopt.Config
}{
	{"all", guestopt.All()},
	{"constfold", guestopt.Config{ConstFold: true}},
	{"deadcode", guestopt.Config{DeadCode: true}},
	{"deadflag", guestopt.Config{DeadFlag: true}},
	{"loadelim", guestopt.Config{LoadElim: true}},
}

func put(h hash.Hash, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

func putInsts(h hash.Hash, insts []isa.Inst) {
	put(h, uint64(len(insts)))
	for _, in := range insts {
		put(h, uint64(in.Op), uint64(in.Rd), uint64(in.Rs1), uint64(in.Rs2), uint64(uint32(in.Imm)))
	}
}

// hashOptimized folds one trace as Optimize left it, and the outcome.
func hashOptimized(h hash.Hash, t *vm.Trace, out vm.OptOutcome) {
	put(h, uint64(t.Start))
	putInsts(h, t.Insts)
	put(h, uint64(len(t.SrcIdx)))
	for _, s := range t.SrcIdx {
		put(h, uint64(s))
	}
	put(h, uint64(t.OrigLen), uint64(t.OptLevel), uint64(len(t.Notes)))
	for _, n := range t.Notes {
		put(h, uint64(n.InstIdx), uint64(n.Type), uint64(uint32(n.Target)), uint64(n.TargetOff))
	}
	rej := uint64(0)
	if out.Rejected {
		rej = 1
	}
	put(h, uint64(out.Level), uint64(out.Removed), rej)
}

var outputGolden = map[string]string{
	"all/gcc":        "31382da2c450204cb1ed6293979649bff2bae3b6f25c84389adbe695c42c3e68",
	"all/gui":        "b6b7bb371df11129cfe894b1b48c450404c9c2e541cc8629c532eb6aef0ca402",
	"all/gzip":       "c02c05e8f602ee5a2ecc03cb61366a8621ad0f4ecb97716ede4309869b9bd55d",
	"constfold/gcc":  "dba54e6c269ce06598e609049bc2f6224f224e28aeceff94d3123214df50f027",
	"constfold/gui":  "48a73c3445d0c8cb04109a8ccd643dc714ee5a23d790a7631f5796c8182dfc34",
	"constfold/gzip": "fc7f90270f8f687ad44a7712953a1ec2967154568033c767e000e93a9ae74966",
	"deadcode/gcc":   "6e0b5414f2ea4d6b35485c4ef58b6fff926e8f60b382e3972bf8235ff3b14205",
	"deadcode/gui":   "fd0a03c8b824fb623a32cdf2a5ebaef44faa1f72c39f66d0319edaf90b24c786",
	"deadcode/gzip":  "0ee34cf68833c27a6b91c159228b78d6849f24c8364882a07f91c73ef2b0d917",
	"deadflag/gcc":   "179dbaba13c75093dc9fd445f482a450f27e26b9f09139f630c262a73502ac2c",
	"deadflag/gui":   "64996e5559c94d0d92ca1922b74188e33b2f899956a4b32f30e8d1b92c911510",
	"deadflag/gzip":  "c11634f2ef5675079547b95ba9fb8e13374f0b1e297a8d45d5e8653419c02109",
	"loadelim/gcc":   "d0ebb1b36e20580a875ac1f559fd7f3bf52715685f264b6458cc819720b96456",
	"loadelim/gui":   "467150671ede8a13acf0a63b8ebd27512a44db3a66527d73b35683b5933ae28f",
	"loadelim/gzip":  "eb3dd59b7a8db5633892347f5465dbec5845e3f54efbf03f6b89dadaa03d9432",
}

// TestOptimizerOutputGolden: every pass configuration over every trace of
// the standard workloads, one Optimizer per (configuration, workload) as a
// VM would own it, hashed in translation order.
func TestOptimizerOutputGolden(t *testing.T) {
	names, workloads := goldenWorkloads(t)
	for _, c := range goldenConfigs {
		for w, traces := range workloads {
			key := c.name + "/" + names[w]
			o := guestopt.New(c.cfg)
			h := sha256.New()
			optimized, removed := 0, 0
			for _, src := range traces {
				tr := cloneTrace(src)
				out := o.Optimize(tr)
				if out.Rejected {
					t.Fatalf("%s: checker rejected the engine's rewrite of trace %#x", key, tr.Start)
				}
				if out.Level > 0 {
					optimized++
					removed += out.Removed
				}
				hashOptimized(h, tr, out)
			}
			got := hex.EncodeToString(h.Sum(nil))
			t.Logf("%s: %d traces, %d optimized, %d instructions removed", key, len(traces), optimized, removed)
			if got != outputGolden[key] {
				t.Errorf("%s: digest %s, golden %s", key, got, outputGolden[key])
			}
		}
	}
}

// One single-edit corruption of an optimized sequence.
type mutKind uint8

const (
	mutRd mutKind = iota
	mutRs1
	mutRs2
	mutImmUp
	mutImmDown
	mutOp
	mutDrop
	mutSwap
	mutRetarget
	nMutKinds
)

// opRings are the groups an opcode is swapped within: the next member of
// its ring, so the mutant stays in the class the checker dispatches on.
var opRings = [][2]isa.Op{
	{isa.OpMovI, isa.OpLdPC},
	{isa.OpAdd, isa.OpSltU},
	{isa.OpAddI, isa.OpSltUI},
	{isa.OpLb, isa.OpLd},
	{isa.OpSb, isa.OpSd},
	{isa.OpJal, isa.OpJalr},
	{isa.OpBeq, isa.OpBgeU},
}

// mutate applies one edit at position k to copies of the optimized form. It
// reports false when the edit does not apply there (no neighbour to swap
// with, nothing left after a drop, an opcode alone in its class, a retarget
// of an instruction that is not pinned).
func mutate(kind mutKind, k int, insts []isa.Inst, srcIdx []uint16, pinned map[uint16]bool) ([]isa.Inst, []uint16, bool) {
	insts = append([]isa.Inst(nil), insts...)
	srcIdx = append([]uint16(nil), srcIdx...)
	in := &insts[k]
	switch kind {
	case mutRd:
		in.Rd ^= 1
	case mutRs1:
		in.Rs1 ^= 1
	case mutRs2:
		in.Rs2 ^= 1
	case mutImmUp:
		in.Imm++
	case mutImmDown:
		in.Imm--
	case mutOp:
		for _, r := range opRings {
			if in.Op >= r[0] && in.Op <= r[1] {
				if in.Op++; in.Op > r[1] {
					in.Op = r[0]
				}
				return insts, srcIdx, true
			}
		}
		return nil, nil, false
	case mutDrop:
		if len(insts) == 1 {
			return nil, nil, false
		}
		insts = append(insts[:k], insts[k+1:]...)
		srcIdx = append(srcIdx[:k], srcIdx[k+1:]...)
	case mutSwap:
		if k+1 >= len(insts) {
			return nil, nil, false
		}
		insts[k], insts[k+1] = insts[k+1], insts[k]
	case mutRetarget:
		if !pinned[srcIdx[k]] {
			return nil, nil, false
		}
		in.Imm += 64
	}
	return insts, srcIdx, true
}

func pinnedOf(t *vm.Trace) map[uint16]bool {
	if len(t.Notes) == 0 {
		return nil
	}
	p := make(map[uint16]bool, len(t.Notes))
	for _, n := range t.Notes {
		p[n.InstIdx] = true
	}
	return p
}

// changedTrace is one trace the engine rewrote: what the prover is shown.
type changedTrace struct {
	orig, opt []isa.Inst
	srcIdx    []uint16
	pinned    map[uint16]bool
}

func changedTraces(t testing.TB, traces []*vm.Trace) []changedTrace {
	t.Helper()
	o := guestopt.New(guestopt.All())
	var out []changedTrace
	for _, src := range traces {
		tr := cloneTrace(src)
		if res := o.Optimize(tr); res.Level == 0 {
			continue
		}
		out = append(out, changedTrace{orig: src.Insts, opt: tr.Insts, srcIdx: tr.SrcIdx, pinned: pinnedOf(src)})
	}
	return out
}

const verdictsGolden = "85993a351f44d72d9bc8e132bd19e676640dcfc6f3b89722894a096d2ba008cb"

// TestCheckerVerdictsGolden: every single-edit mutation of every optimized
// gcc trace, the accept/reject vector hashed in order. A checker that got
// weaker flips a reject to an accept; one that got stricter, the reverse.
func TestCheckerVerdictsGolden(t *testing.T) {
	gcc, err := workload.BuildSpecBenchmark("176.gcc")
	if err != nil {
		t.Fatal(err)
	}
	gccTraces := captureTraces(t, gcc.Prog, gcc.Train[0])
	o := guestopt.New(guestopt.All())
	h := sha256.New()
	var verdicts, accepted, retargets int
	for _, c := range changedTraces(t, gccTraces) {
		if err := o.CheckEquivalent(c.orig, c.opt, c.srcIdx, c.pinned); err != nil {
			t.Fatalf("unmutated optimized trace rejected: %v", err)
		}
		for k := range c.opt {
			for kind := mutKind(0); kind < nMutKinds; kind++ {
				insts, srcIdx, ok := mutate(kind, k, c.opt, c.srcIdx, c.pinned)
				if !ok {
					continue
				}
				verdict := byte(0)
				if o.CheckEquivalent(c.orig, insts, srcIdx, c.pinned) == nil {
					verdict = 1
					accepted++
				}
				if kind == mutRetarget {
					retargets++
					if verdict == 1 {
						t.Fatalf("retargeted pinned instruction accepted: %v", insts[k])
					}
				}
				h.Write([]byte{verdict})
				verdicts++
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d verdicts, %d accepted, %d pinned retargets", verdicts, accepted, retargets)
	if retargets == 0 {
		t.Fatal("no pinned instruction survived into an optimized trace; the retarget mutation is untested")
	}
	if got != verdictsGolden {
		t.Errorf("verdict digest %s, golden %s", got, verdictsGolden)
	}
}
