package workload

import (
	"fmt"
	"strings"

	"persistcc/internal/asm"
	"persistcc/internal/isa"
	"persistcc/internal/link"
	"persistcc/internal/loader"
	"persistcc/internal/obj"
	"persistcc/internal/vm"
)

// Code generation shape constants.
const (
	// DefaultBodyInsts is the number of computation instructions per
	// generated function body.
	DefaultBodyInsts = 12
	// funcOverhead approximates the non-body instructions per function
	// (prologue, epilogue, checksum, data touch, chain call).
	funcOverhead = 15
)

// SharedLib is a generated shared library offering self-contained service
// chains. The same *SharedLib (the same bytes) is linked by every
// application using it, which is what makes its translations candidates for
// inter-application persistence.
type SharedLib struct {
	Name        string
	File        *obj.File
	Services    []string // exported head symbol per service chain
	FuncsPerSvc int
	BodyInsts   int
}

// BuildSharedLib generates a shared library with the given number of
// service chains.
func BuildSharedLib(name string, seed uint64, services, funcsPerSvc, bodyInsts int) (*SharedLib, error) {
	if bodyInsts <= 0 {
		bodyInsts = DefaultBodyInsts
	}
	g := &codegen{rng: seed ^ 0x5eed5eed}
	var sb strings.Builder
	sb.WriteString(".text\n")
	lib := &SharedLib{Name: name, FuncsPerSvc: funcsPerSvc, BodyInsts: bodyInsts}
	id := sanitize(name)
	for s := 0; s < services; s++ {
		head := fmt.Sprintf("svc_%s_%d", id, s)
		lib.Services = append(lib.Services, head)
		for f := 0; f < funcsPerSvc; f++ {
			fname := fmt.Sprintf("%s_f%d", head, f)
			export := f == 0 // only heads are part of the library interface
			var next string
			if f+1 < funcsPerSvc {
				next = fmt.Sprintf("%s_f%d", head, f+1)
			}
			g.emitFunc(&sb, fname, headAlias(export, head, f), next, id+"_dat", bodyInsts)
		}
	}
	sb.WriteString(".data\n.global " + id + "_dat\n" + id + "_dat:\n\t.word64 1\n\t.space 56\n")
	o, err := asm.Assemble(name+".o", sb.String())
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", name, err)
	}
	f, err := link.Link(link.Input{Name: name, Kind: obj.KindLib, Objects: []*obj.File{o}})
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", name, err)
	}
	lib.File = f
	return lib, nil
}

func headAlias(isHead bool, head string, f int) string {
	if isHead {
		return head
	}
	return ""
}

// RegionSpec is one private code region: a call chain of Funcs functions
// living in module Module (0 = the executable, 1.. = private libraries).
type RegionSpec struct {
	Funcs  int
	Module int
}

// SvcRef names a shared-library service used by a program.
type SvcRef struct {
	Lib *SharedLib
	Svc int
}

// ServiceSpec is the fully serializable form of a shared-service
// reference: instead of pointing at a pre-built *SharedLib it carries the
// generation parameters, and BuildProgram materializes (and memoizes by
// LibName within one build) the library itself. Because every field is
// plain data, a ProgSpec using only ServiceSpecs round-trips through JSON
// — the property crasher artifacts and the guest fuzzer's corpus rely on.
// Two specs with the same LibName and parameters produce byte-identical
// libraries, so cross-application sharing still holds.
type ServiceSpec struct {
	LibName     string // shared-library name (identity for dedup/link)
	LibSeed     uint64 // code-generation seed of the library
	LibServices int    // number of service chains the library exports
	FuncsPerSvc int    // functions per chain
	LibBody     int    // per-function body size (DefaultBodyInsts if 0)
	Svc         int    // which of the library's chains this program calls
}

// ProgSpec describes one synthetic application.
type ProgSpec struct {
	Name        string
	Seed        uint64
	PrivateLibs []string      // names for modules 1..len
	Regions     []RegionSpec  // private regions (entries 0..len-1)
	Services    []SvcRef      // shared services (entries len(Regions)..)
	SharedSvcs  []ServiceSpec // serializable shared services (after Services)
	BodyInsts   int           // per-function body size (DefaultBodyInsts if 0)
	SignalCalls int           // emulated-signal storm at startup (File-Roller)
	// SMCRewrites > 0 makes the driver emit a tiny function into the heap
	// and, after each of the first SMCRewrites input units, rewrite it in
	// place and call it, folding the result into the exit checksum. Each
	// rewrite stores fresh instruction words over translated code, so runs
	// of such programs require SMC write monitoring (vm.WithSMCDetection)
	// for translated execution to match the interpreter.
	SMCRewrites int
}

// Program is a generated application ready to load and run.
type Program struct {
	Name    string
	Exe     *obj.File
	Libs    []*obj.File // private then shared (the loader's resolution set)
	Entries int         // regions + services, indexable by Unit.Entry
	Spec    ProgSpec
}

// Unit is one work item of an input: run entry chain Entry, Iters times.
type Unit struct {
	Entry int
	Iters int
}

// Input is a program input: an ordered list of units. The first unit plays
// the role of startup/initialization (the driver emits mark(1) when it
// completes).
type Input struct {
	Name  string
	Units []Unit
}

// Words encodes the input for the VM's input block.
func (in Input) Words() []uint64 {
	w := []uint64{uint64(len(in.Units))}
	for _, u := range in.Units {
		w = append(w, uint64(u.Entry), uint64(u.Iters))
	}
	return w
}

// BuildProgram generates, assembles and links an application.
func BuildProgram(spec ProgSpec) (*Program, error) {
	if spec.BodyInsts <= 0 {
		spec.BodyInsts = DefaultBodyInsts
	}
	nmod := 1 + len(spec.PrivateLibs)
	for i, r := range spec.Regions {
		if r.Module < 0 || r.Module >= nmod {
			return nil, fmt.Errorf("workload: %s: region %d in module %d of %d", spec.Name, i, r.Module, nmod)
		}
		if r.Funcs <= 0 {
			return nil, fmt.Errorf("workload: %s: region %d has %d funcs", spec.Name, i, r.Funcs)
		}
	}

	g := &codegen{rng: spec.Seed ^ 0xABCD1234}
	id := sanitize(spec.Name)
	srcs := make([]*strings.Builder, nmod)
	for i := range srcs {
		srcs[i] = &strings.Builder{}
		srcs[i].WriteString(".text\n")
	}

	// Private region chains.
	heads := make([]string, 0, len(spec.Regions)+len(spec.Services))
	for ri, r := range spec.Regions {
		head := fmt.Sprintf("%s_r%d", id, ri)
		heads = append(heads, head)
		sb := srcs[r.Module]
		dat := fmt.Sprintf("%s_m%d_dat", id, r.Module)
		for f := 0; f < r.Funcs; f++ {
			fname := fmt.Sprintf("%s_f%d", head, f)
			var next string
			if f+1 < r.Funcs {
				next = fmt.Sprintf("%s_f%d", head, f+1)
			}
			g.emitFunc(sb, fname, headAlias(f == 0, head, f), next, dat, spec.BodyInsts)
		}
	}
	// Shared services come after private regions in the entry table.
	for _, s := range spec.Services {
		if s.Svc < 0 || s.Svc >= len(s.Lib.Services) {
			return nil, fmt.Errorf("workload: %s: service %d outside %s", spec.Name, s.Svc, s.Lib.Name)
		}
		heads = append(heads, s.Lib.Services[s.Svc])
	}
	// Spec-described shared services: materialize each referenced library
	// once (memoized by name; conflicting parameters under one name are a
	// spec error) and dispatch through its exported chain heads.
	specLibs := make(map[string]*SharedLib)
	var specLibOrder []*SharedLib
	for i, ss := range spec.SharedSvcs {
		lib, ok := specLibs[ss.LibName]
		if !ok {
			var err error
			lib, err = BuildSharedLib(ss.LibName, ss.LibSeed, ss.LibServices, ss.FuncsPerSvc, ss.LibBody)
			if err != nil {
				return nil, fmt.Errorf("workload: %s: shared svc %d: %w", spec.Name, i, err)
			}
			specLibs[ss.LibName] = lib
			specLibOrder = append(specLibOrder, lib)
		} else if lib.FuncsPerSvc != ss.FuncsPerSvc || len(lib.Services) != ss.LibServices {
			return nil, fmt.Errorf("workload: %s: shared svc %d redefines %s", spec.Name, i, ss.LibName)
		}
		if ss.Svc < 0 || ss.Svc >= len(lib.Services) {
			return nil, fmt.Errorf("workload: %s: shared svc %d outside %s", spec.Name, i, ss.LibName)
		}
		heads = append(heads, lib.Services[ss.Svc])
	}

	// Per-module data blocks.
	for i, sb := range srcs {
		sb.WriteString(".data\n")
		fmt.Fprintf(sb, ".global %s_m%d_dat\n%s_m%d_dat:\n\t.word64 1\n\t.space 56\n", id, i, id, i)
	}

	// Driver and entry table in the executable.
	emitDriver(srcs[0], heads, spec)

	// Assemble and link: private libs first (no inter-lib references),
	// then the executable against private + shared libraries.
	var libs []*obj.File
	for i, name := range spec.PrivateLibs {
		o, err := asm.Assemble(name+".o", srcs[i+1].String())
		if err != nil {
			return nil, fmt.Errorf("workload: %s/%s: %w", spec.Name, name, err)
		}
		lf, err := link.Link(link.Input{Name: name, Kind: obj.KindLib, Objects: []*obj.File{o}})
		if err != nil {
			return nil, fmt.Errorf("workload: %s/%s: %w", spec.Name, name, err)
		}
		libs = append(libs, lf)
	}
	sharedSeen := map[string]bool{}
	for _, s := range spec.Services {
		if !sharedSeen[s.Lib.Name] {
			sharedSeen[s.Lib.Name] = true
			libs = append(libs, s.Lib.File)
		}
	}
	for _, lib := range specLibOrder {
		if !sharedSeen[lib.Name] {
			sharedSeen[lib.Name] = true
			libs = append(libs, lib.File)
		}
	}
	o, err := asm.Assemble(spec.Name+".o", srcs[0].String())
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", spec.Name, err)
	}
	exe, err := link.Link(link.Input{Name: spec.Name, Kind: obj.KindExec, Objects: []*obj.File{o}, Libs: libs})
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", spec.Name, err)
	}
	return &Program{
		Name:    spec.Name,
		Exe:     exe,
		Libs:    libs,
		Entries: len(heads),
		Spec:    spec,
	}, nil
}

// emitDriver writes _start: it walks the input block's units, dispatching
// through the entry table (an indirect call per iteration), emits mark(1)
// after the first unit (startup complete) and mark(2) plus exit(checksum)
// at the end. With spec.SMCRewrites > 0 it also rewrites a heap-emitted
// function between units (self-modifying code, see ProgSpec.SMCRewrites).
func emitDriver(sb *strings.Builder, heads []string, spec ProgSpec) {
	sb.WriteString(`
.text
.global _start
_start:
	movi s7, 0x08000000  ; input block cursor
	ld   s0, 0(s7)       ; unit count
	addi s7, s7, 8
	movi s1, 17          ; checksum
	movi s5, 1           ; "first unit" flag
`)
	if spec.SignalCalls > 0 {
		fmt.Fprintf(sb, `	movi s6, %d
sigstorm:
	movi a0, 8           ; sigaction: expensive VM emulation
	movi a1, 5
	sys
	addi s6, s6, -1
	bnez s6, sigstorm
`, spec.SignalCalls)
	}
	if spec.SMCRewrites > 0 {
		fmt.Fprintf(sb, "\tmovi s6, %d          ; SMC rewrites remaining\n", spec.SMCRewrites)
	}
	sb.WriteString(`nextunit:
	beqz s0, alldone
	ld   s2, 0(s7)       ; entry index
	ld   s3, 8(s7)       ; iterations
	addi s7, s7, 16
	la   s4, entrytable
	slli s8, s2, 3
	add  s4, s4, s8
	ld   s4, 0(s4)
iterloop:
	beqz s3, unitdone
	mv   a0, s1
	callr s4
	mv   s1, a0
	addi s3, s3, -1
	j    iterloop
unitdone:
	beqz s5, skipmark
	movi a0, 6           ; mark(1): startup complete
	movi a1, 1
	sys
	movi s5, 0
skipmark:
`)
	if spec.SMCRewrites > 0 {
		fmt.Fprintf(sb, `	beqz s6, smcskip
	la   t0, smcwords    ; next rewrite's movi word
	movi t1, %d
	sub  t1, t1, s6
	slli t1, t1, 3
	add  t0, t0, t1
	ld   t1, 0(t0)
	movi t2, 0x20000000  ; the heap-emitted function
	sd   t1, 0(t2)       ; rewrite instruction 0 in place
	la   t0, smcret
	ld   t1, 0(t0)
	sd   t1, 8(t2)
	mv   a0, s1
	callr t2
	add  s1, s1, a0      ; fold the rewritten function's result
	addi s6, s6, -1
smcskip:
`, spec.SMCRewrites)
	}
	sb.WriteString(`	addi s0, s0, -1
	j    nextunit
alldone:
	movi a0, 6           ; mark(2): work complete
	movi a1, 2
	sys
	andi a1, s1, 0xffff
	movi a0, 1           ; exit(checksum)
	sys
	halt
.data
entrytable:
`)
	for _, h := range heads {
		fmt.Fprintf(sb, "\t.word64 %s\n", h)
	}
	if spec.SMCRewrites > 0 {
		// The instruction words the driver stores over the heap function:
		// one distinct `movi a0, K` per rewrite plus the shared `ret`.
		// Emitting encoded words from .data (rather than assembling a text
		// section into the heap) is exactly how JIT-style guests manufacture
		// code at run time.
		ret := isa.Inst{Op: isa.OpJalr, Rd: isa.RegZero, Rs1: isa.RegRA}
		fmt.Fprintf(sb, "smcret:\n\t.word64 %d\n", ret.EncodeWord())
		sb.WriteString("smcwords:\n")
		rng := spec.Seed ^ 0x50C0DE5
		for i := 0; i < spec.SMCRewrites; i++ {
			rng += 0x9e3779b97f4a7c15
			z := rng
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			k := int32(1 + (z^(z>>27))&0x3fff)
			w := isa.Inst{Op: isa.OpMovI, Rd: isa.RegA0, Imm: k}
			fmt.Fprintf(sb, "\t.word64 %d\n", w.EncodeWord())
		}
	}
}

// codegen generates deterministic function bodies.
type codegen struct {
	rng uint64
}

func (g *codegen) next() uint64 {
	g.rng += 0x9e3779b97f4a7c15
	z := g.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// emitFunc writes one chain function. alias, when non-empty, labels the
// function with the (exported) chain-head name as well. The function
// transforms a0 (the running checksum), touches its module's data block
// through an absolute address (a loader-patched, position-dependent site),
// and tail-calls next when non-empty.
func (g *codegen) emitFunc(sb *strings.Builder, name, alias, next, dat string, body int) {
	if alias != "" && alias != name {
		fmt.Fprintf(sb, ".global %s\n%s:\n", alias, alias)
	}
	fmt.Fprintf(sb, ".global %s\n%s:\n", name, name)
	sb.WriteString("\taddi sp, sp, -32\n\tsd ra, 0(sp)\n")
	// The absolute data reference (la → movi with a dynamic relocation).
	fmt.Fprintf(sb, "\tla t6, %s\n\tld t5, 0(t6)\n", dat)
	// Seed temporaries.
	fmt.Fprintf(sb, "\tmv t0, a0\n\tmovi t1, %d\n\taddi t2, t0, %d\n", int32(g.next()), int16(g.next()))
	// The op mix mirrors compiler output: ALU traffic, speculative compares
	// (the slt family materializing flags that frequently die), and repeat
	// loads of the function's data word that a register allocator failed to
	// keep live.
	ops := [...]string{"add", "sub", "xor", "and", "or", "mul", "sll", "srl", "slt", "sltu"}
	regs := [...]string{"t0", "t1", "t2", "t3", "t4"}
	inited := 3
	for i := 0; i < body; i++ {
		d := i % len(regs)
		if d >= inited {
			inited = d + 1
		}
		if g.next()%8 == 0 {
			fmt.Fprintf(sb, "\tld %s, 0(t6)\n", regs[d])
			continue
		}
		op := ops[g.next()%uint64(len(ops))]
		a := regs[g.next()%uint64(inited)]
		b := regs[g.next()%uint64(inited)]
		if op == "sll" || op == "srl" {
			fmt.Fprintf(sb, "\t%si %s, %s, %d\n", op, regs[d], a, 1+g.next()%7)
		} else {
			fmt.Fprintf(sb, "\t%s %s, %s, %s\n", op, regs[d], a, b)
		}
	}
	// Fold the data word and the computation into the checksum.
	fmt.Fprintf(sb, "\tadd t0, t0, t5\n\txor a0, a0, t0\n\taddi a0, a0, %d\n", 1+int16(g.next())&0x7fff)
	fmt.Fprintf(sb, "\tsd t5, 8(t6)\n")
	if next != "" {
		fmt.Fprintf(sb, "\tcall %s\n", next)
	}
	sb.WriteString("\tld ra, 0(sp)\n\taddi sp, sp, 32\n\tret\n")
}

func sanitize(name string) string {
	var sb strings.Builder
	if len(name) > 0 && name[0] >= '0' && name[0] <= '9' {
		sb.WriteByte('p') // identifiers cannot start with a digit
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// Load maps the program with the given loader configuration.
func (p *Program) Load(cfg loader.Config) (*loader.Process, error) {
	if cfg.Resolve == nil {
		libs := p.Libs
		cfg.Resolve = func(name string) (*obj.File, int64, error) {
			for _, l := range libs {
				if l.Name == name {
					return l, 1, nil
				}
			}
			return nil, 0, fmt.Errorf("workload: library %s not found", name)
		}
	}
	return loader.Load(p.Exe, cfg)
}

// NewVM loads the program and prepares a VM for the given input.
func (p *Program) NewVM(cfg loader.Config, in Input, opts ...vm.Option) (*vm.VM, error) {
	proc, err := p.Load(cfg)
	if err != nil {
		return nil, err
	}
	opts = append([]vm.Option{vm.WithInput(in.Words())}, opts...)
	return vm.New(proc, opts...), nil
}

// CoverageSet runs the input (under the VM, no persistence) and returns
// the static code footprint it exercises.
func (p *Program) CoverageSet(cfg loader.Config, in Input) (map[uint64]struct{}, error) {
	v, err := p.NewVM(cfg, in, vm.WithCoverage())
	if err != nil {
		return nil, err
	}
	if _, err := v.Run(); err != nil {
		return nil, err
	}
	return v.Coverage(), nil
}

// CoverageMatrix measures pairwise coverage between inputs:
// result[i][j] = |cov_i ∩ cov_j| / |cov_i|.
func (p *Program) CoverageMatrix(cfg loader.Config, inputs []Input) ([][]float64, error) {
	sets := make([]map[uint64]struct{}, len(inputs))
	for i, in := range inputs {
		s, err := p.CoverageSet(cfg, in)
		if err != nil {
			return nil, fmt.Errorf("input %s: %w", in.Name, err)
		}
		sets[i] = s
	}
	out := make([][]float64, len(inputs))
	for i := range inputs {
		out[i] = make([]float64, len(inputs))
		for j := range inputs {
			out[i][j] = CoverageOf(sets[i], sets[j])
		}
	}
	return out, nil
}

// CoverageOf returns the fraction of a's code also present in b.
func CoverageOf(a, b map[uint64]struct{}) float64 {
	if len(a) == 0 {
		return 0
	}
	n := 0
	for k := range a {
		if _, ok := b[k]; ok {
			n++
		}
	}
	return float64(n) / float64(len(a))
}

// LibCodeFraction returns the fraction of a coverage set outside module 0
// (library code).
func LibCodeFraction(cov map[uint64]struct{}) float64 {
	if len(cov) == 0 {
		return 0
	}
	lib := 0
	for k := range cov {
		if k>>32 != 0 {
			lib++
		}
	}
	return float64(lib) / float64(len(cov))
}
