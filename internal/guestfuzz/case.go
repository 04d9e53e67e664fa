// Package guestfuzz is a coverage-guided fuzzer for whole guest programs.
//
// Unlike the byte-level fuzz targets (FuzzDecodeInstr, FuzzReadCacheFile),
// which explore decoder robustness, guestfuzz explores the cross-product of
// persistence features the paper's guarantee spans: it generates and mutates
// structured workload.ProgSpec programs (service splicing, relocation-layout
// and ASLR-seed perturbation, SMC rewrites, signal storms, input variation),
// schedules its corpus by instr.CodeCov feedback (a mutant survives only if
// it reaches code no earlier case reached), and judges every surviving case
// with differential oracles — pairs of internal/diffexec execution modes:
// by default interpreted vs translated, cold vs warm-from-store, optimizer
// on vs off, recorded vs replayed. A divergence is
// delta-debugged down to a minimal spec and self-packaged as a
// replay.Crasher so TestCrasherCorpus replays it forever after.
package guestfuzz

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"persistcc/internal/diffexec"
	"persistcc/internal/loader"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

// Case is one fuzz corpus entry: a fully serializable program spec plus
// everything that shapes its execution environment — the input, the module
// placement policy, and the address-space seeds for the cold and the
// cache-warming run. Everything the mutator can vary lives here, and the
// whole struct round-trips through JSON (specs only ever use SharedSvcs,
// never in-memory SvcRef pointers).
type Case struct {
	Spec workload.ProgSpec `json:"spec"`
	In   workload.Input    `json:"input"`

	Placement    uint8  `json:"placement,omitempty"`
	ASLRSeed     uint64 `json:"aslr_seed,omitempty"`
	WarmASLRSeed uint64 `json:"warm_aslr_seed,omitempty"`
}

// Mutation bounds: cases must stay small enough that one oracle evaluation
// (up to three VM executions) is cheap, and minimized artifacts stay
// reviewable. The fuzzer explores the feature cross-product, not scale.
const (
	maxRegions  = 3
	maxFuncs    = 8
	maxBody     = 24
	maxUnits    = 6
	maxIters    = 8
	maxSignals  = 6
	maxSMC      = 4
	maxServices = 2
)

// Normalize clamps a mutated case back into the explored envelope and
// repairs structural invariants (entries in range, nonzero iteration
// counts, module indices matching the private-library list) so every
// mutation composition yields a buildable program.
func (c *Case) Normalize() {
	s := &c.Spec
	if s.Name == "" {
		s.Name = "fz"
	}
	if len(s.Regions) == 0 {
		s.Regions = []workload.RegionSpec{{Funcs: 1, Module: 0}}
	}
	if len(s.Regions) > maxRegions {
		s.Regions = s.Regions[:maxRegions]
	}
	for i := range s.Regions {
		s.Regions[i].Funcs = clamp(s.Regions[i].Funcs, 1, maxFuncs)
		if s.Regions[i].Module < 0 || s.Regions[i].Module > len(s.PrivateLibs) {
			s.Regions[i].Module = 0
		}
	}
	s.BodyInsts = clamp(s.BodyInsts, 0, maxBody)
	s.SignalCalls = clamp(s.SignalCalls, 0, maxSignals)
	s.SMCRewrites = clamp(s.SMCRewrites, 0, maxSMC)
	if len(s.SharedSvcs) > maxServices {
		s.SharedSvcs = s.SharedSvcs[:maxServices]
	}
	for i := range s.SharedSvcs {
		ss := &s.SharedSvcs[i]
		ss.LibServices = clamp(ss.LibServices, 1, 3)
		ss.FuncsPerSvc = clamp(ss.FuncsPerSvc, 1, 4)
		ss.LibBody = clamp(ss.LibBody, 0, maxBody)
		ss.Svc = clamp(ss.Svc, 0, ss.LibServices-1)
	}
	dedupSharedLibs(s)

	entries := len(s.Regions) + len(s.SharedSvcs)
	if len(c.In.Units) == 0 {
		c.In.Units = []workload.Unit{{Entry: 0, Iters: 1}}
	}
	if len(c.In.Units) > maxUnits {
		c.In.Units = c.In.Units[:maxUnits]
	}
	for i := range c.In.Units {
		u := &c.In.Units[i]
		u.Entry = clamp(u.Entry, 0, entries-1)
		u.Iters = clamp(u.Iters, 1, maxIters)
	}
	if c.Placement > 2 {
		c.Placement = 2
	}
	if c.Placement != uint8(loader.PlaceASLR) {
		// Seeds only mean anything under ASLR placement; zeroing them keeps
		// the case's JSON key canonical.
		c.ASLRSeed, c.WarmASLRSeed = 0, 0
	}
}

// dedupSharedLibs forces every ServiceSpec sharing a LibName to agree on
// the library's generation parameters (BuildProgram rejects conflicts): the
// first occurrence wins.
func dedupSharedLibs(s *workload.ProgSpec) {
	first := make(map[string]workload.ServiceSpec, len(s.SharedSvcs))
	for i := range s.SharedSvcs {
		ss := &s.SharedSvcs[i]
		if f, ok := first[ss.LibName]; ok {
			ss.LibSeed, ss.LibServices, ss.FuncsPerSvc, ss.LibBody =
				f.LibSeed, f.LibServices, f.FuncsPerSvc, f.LibBody
			if ss.Svc >= ss.LibServices {
				ss.Svc = ss.LibServices - 1
			}
			continue
		}
		first[ss.LibName] = *ss
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Key is the case's content identity: a short hash of its canonical JSON,
// used for corpus filenames and finding dedup.
func (c *Case) Key() string {
	blob, _ := json.Marshal(c)
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:6])
}

// BodySize is the generated-function instruction budget the minimizer
// drives down: body instructions across private regions and spliced shared
// services (driver and prologue overhead excluded — they are fixed costs no
// minimizer can remove).
func (c *Case) BodySize() int {
	body := c.Spec.BodyInsts
	if body == 0 {
		body = workload.DefaultBodyInsts
	}
	n := 0
	for _, r := range c.Spec.Regions {
		n += r.Funcs * body
	}
	for _, ss := range c.Spec.SharedSvcs {
		lb := ss.LibBody
		if lb == 0 {
			lb = workload.DefaultBodyInsts
		}
		n += ss.FuncsPerSvc * lb
	}
	return n
}

// Build materializes the case's program.
func (c *Case) Build() (*workload.Program, error) {
	return workload.BuildProgram(c.Spec)
}

// LoaderConfig returns the placement configuration for the case's cold run
// (warmSeed selects the cache-warming layout instead).
func (c *Case) LoaderConfig(seed uint64) loader.Config {
	return loader.Config{Placement: loader.Placement(c.Placement), ASLRSeed: seed}
}

// maxCaseInsts bounds any single execution of a fuzz case. Normalized
// cases execute well under 100k guest instructions, so the cap only ever
// fires when an injected or discovered bug sends execution into a loop —
// turning a hang into a prompt, judgeable crash.
const maxCaseInsts = 2_000_000

// VMOpts returns the vm options every execution of this case needs:
// self-modifying specs require SMC write monitoring on translated runs, as
// the interpreter is always coherent and would otherwise trivially
// diverge, and every run gets the anti-hang instruction budget.
func (c *Case) VMOpts(extra ...vm.Option) []vm.Option {
	opts := []vm.Option{vm.WithMaxInsts(maxCaseInsts)}
	if c.Spec.SMCRewrites > 0 {
		opts = append(opts, vm.WithSMCDetection())
	}
	return append(opts, extra...)
}

// diffCase adapts the case to the differential harness: the program built
// once, a fresh VM per execution.
func (c *Case) diffCase() (diffexec.Case, error) {
	prog, err := c.Build()
	if err != nil {
		return diffexec.Case{}, err
	}
	return diffexec.Case{
		Name:      prog.Name,
		Placement: loader.Placement(c.Placement),
		Input:     c.In.Words(),
		Seed:      c.ASLRSeed,
		WarmSeed:  c.WarmASLRSeed,
		NewVM: func(seed uint64, opts ...vm.Option) (*vm.VM, error) {
			return prog.NewVM(c.LoaderConfig(seed), c.In, c.VMOpts(opts...)...)
		},
	}, nil
}

// Clone deep-copies the case so mutation and minimization candidates never
// alias the parent's slices.
func (c *Case) Clone() *Case {
	out := *c
	out.Spec.PrivateLibs = append([]string(nil), c.Spec.PrivateLibs...)
	out.Spec.Regions = append([]workload.RegionSpec(nil), c.Spec.Regions...)
	out.Spec.SharedSvcs = append([]workload.ServiceSpec(nil), c.Spec.SharedSvcs...)
	out.Spec.Services = nil // never serializable; specs must not carry SvcRefs
	out.In.Units = append([]workload.Unit(nil), c.In.Units...)
	return &out
}
