package diffexec

import (
	"fmt"
	"reflect"

	"persistcc/internal/isa"
	"persistcc/internal/replay"
	"persistcc/internal/vm"
)

// Level is how much two executions must agree on; each includes the last.
type Level int

const (
	// ArchLoose: the observable contract of optimized code against
	// unoptimized — final architectural state, output, syscalls, marks; the
	// optimized side may execute fewer instructions, never more.
	ArchLoose Level = iota
	// Arch: + the dynamic instruction count — the interpreter's contract.
	Arch
	// Translated: + what the program and its tool observed under
	// translation, regardless of cache warmth.
	Translated
	// Cache: + the cache-behaviour counters — modes at equal warmth must
	// match the warm dispatcher event for event.
	Cache
)

// Snapshot is everything one execution is compared on.
type Snapshot struct {
	Mode   string
	Exit   uint64
	Output []byte
	Regs   []uint64
	MemSum [32]byte
	Marks  []uint64 // mark IDs in firing order
	Primed int      // traces installed from a persistent cache before the run
	Stats  vm.Stats
}

func snapshot(mode string, v *vm.VM, res *vm.Result, primed int) *Snapshot {
	s := &Snapshot{Mode: mode, Exit: res.ExitCode, Output: res.Output,
		Regs: replay.RegsOf(v), MemSum: replay.MemSum(v), Primed: primed, Stats: res.Stats}
	for _, mk := range res.Stats.Marks {
		s.Marks = append(s.Marks, mk.ID)
	}
	return s
}

// field is one compared quantity, read as a reflect.DeepEqual-able value.
type field struct {
	name  string
	level Level
	get   func(s *Snapshot) any
}

// fields is the whole definition of "equal": the suite's four invariant
// groups as one table.
var fields = func() []field {
	fs := []field{
		{"exit", ArchLoose, func(s *Snapshot) any { return s.Exit }},
		{"output", ArchLoose, func(s *Snapshot) any { return string(s.Output) }},
		{"memory image", ArchLoose, func(s *Snapshot) any { return fmt.Sprintf("%x", s.MemSum) }},
		{"syscall profile", ArchLoose, func(s *Snapshot) any { return s.Stats.Syscalls }},
		{"mark sequence", ArchLoose, func(s *Snapshot) any { return s.Marks }},
	}
	for r := 0; r < isa.NumRegs; r++ {
		fs = append(fs, field{fmt.Sprintf("r%d", r), ArchLoose, func(s *Snapshot) any { return fmt.Sprintf("%#x", s.Regs[r]) }})
	}
	return append(fs,
		field{"insts executed", Arch, func(s *Snapshot) any { return s.Stats.InstsExecuted }},
		field{"trace execs", Translated, func(s *Snapshot) any { return s.Stats.TraceExecs }},
		field{"tool counters", Translated, func(s *Snapshot) any { return s.Stats.Counters }},
		field{"memory-trace profile", Translated, func(s *Snapshot) any { return [2]uint64{s.Stats.MemRefs, s.Stats.MemRefHash} }},
		field{"opcode mix", Translated, func(s *Snapshot) any { return s.Stats.OpcodeMix }},
		field{"traces/insts translated", Cache, func(s *Snapshot) any { return [2]uint64{s.Stats.TracesTranslated, s.Stats.InstsTranslated} }},
		field{"traces reused", Cache, func(s *Snapshot) any { return s.Stats.TracesReused }},
		field{"dispatches", Cache, func(s *Snapshot) any { return s.Stats.Dispatches }},
		field{"indirect hits/misses", Cache, func(s *Snapshot) any { return [2]uint64{s.Stats.IndirectHits, s.Stats.IndirectMisses} }},
		field{"links patched", Cache, func(s *Snapshot) any { return s.Stats.LinksPatched }},
		field{"flushes", Cache, func(s *Snapshot) any { return s.Stats.Flushes }},
	)
}()

// Diff compares got against ref on every field of the given level and
// returns one line per disagreement, each naming the field (nil = equal).
// It is the only definition of equivalence between two live executions.
func Diff(ref, got *Snapshot, level Level) []string {
	var out []string
	for _, f := range fields {
		if f.level > level {
			continue
		}
		if a, b := f.get(ref), f.get(got); !reflect.DeepEqual(a, b) {
			// %.64q: long values (output, opcode mixes) by their head.
			out = append(out, fmt.Sprintf("%s: %s has %.64q, %s has %.64q", f.name, got.Mode, fmt.Sprint(b), ref.Mode, fmt.Sprint(a)))
		}
	}
	if level == ArchLoose && got.Stats.InstsExecuted > ref.Stats.InstsExecuted {
		out = append(out, fmt.Sprintf("insts executed: %s has %d, more than %s's %d",
			got.Mode, got.Stats.InstsExecuted, ref.Mode, ref.Stats.InstsExecuted))
	}
	return out
}
