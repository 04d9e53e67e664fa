package diffexec

import (
	"strings"
	"testing"

	"persistcc/internal/vm"
)

// TestDiffNamesExactlyTheDifferingField: two snapshots differing in one
// field must produce exactly one line, naming that field, at every level
// that compares it and nothing at the levels below — so a level that
// silently stopped looking at a field fails here, not in a missed bug.
func TestDiffNamesExactlyTheDifferingField(t *testing.T) {
	base := func() *Snapshot {
		return &Snapshot{Mode: "b", Output: []byte("out"), Regs: make([]uint64, 32), Marks: []uint64{1, 2},
			Stats: vm.Stats{InstsExecuted: 100, Syscalls: map[uint64]uint64{1: 1}, Counters: map[uint64]uint64{7: 7}}}
	}
	tests := []struct {
		field string
		from  Level // lowest level comparing the field
		edit  func(s *Snapshot)
	}{
		{"exit", ArchLoose, func(s *Snapshot) { s.Exit = 9 }},
		{"output", ArchLoose, func(s *Snapshot) { s.Output = []byte("oux") }},
		{"r17", ArchLoose, func(s *Snapshot) { s.Regs[17] = 0xbad }},
		{"memory image", ArchLoose, func(s *Snapshot) { s.MemSum[31] = 1 }},
		{"syscall profile", ArchLoose, func(s *Snapshot) { s.Stats.Syscalls = map[uint64]uint64{1: 2} }},
		{"mark sequence", ArchLoose, func(s *Snapshot) { s.Marks = []uint64{2, 1} }},
		{"insts executed", Arch, func(s *Snapshot) { s.Stats.InstsExecuted = 99 }},
		{"trace execs", Translated, func(s *Snapshot) { s.Stats.TraceExecs = 1 }},
		{"tool counters", Translated, func(s *Snapshot) { s.Stats.Counters = map[uint64]uint64{7: 8} }},
		{"memory-trace profile", Translated, func(s *Snapshot) { s.Stats.MemRefHash = 1 }},
		{"opcode mix", Translated, func(s *Snapshot) { s.Stats.OpcodeMix[3] = 1 }},
		{"traces/insts translated", Cache, func(s *Snapshot) { s.Stats.InstsTranslated = 1 }},
		{"traces reused", Cache, func(s *Snapshot) { s.Stats.TracesReused = 1 }},
		{"dispatches", Cache, func(s *Snapshot) { s.Stats.Dispatches = 1 }},
		{"indirect hits/misses", Cache, func(s *Snapshot) { s.Stats.IndirectMisses = 1 }},
		{"links patched", Cache, func(s *Snapshot) { s.Stats.LinksPatched = 1 }},
		{"flushes", Cache, func(s *Snapshot) { s.Stats.Flushes = 1 }},
	}
	for _, tt := range tests {
		ref, got := base(), base()
		got.Mode = "a"
		tt.edit(got)
		for level := ArchLoose; level <= Cache; level++ {
			d := Diff(ref, got, level)
			switch {
			case level < tt.from && len(d) != 0:
				t.Errorf("%s at level %d: compared below its level: %v", tt.field, level, d)
			case level >= tt.from && (len(d) != 1 || !strings.HasPrefix(d[0], tt.field+": a has ")):
				t.Errorf("%s at level %d: want exactly that field named, got %v", tt.field, level, d)
			}
		}
	}
	if d := Diff(base(), base(), Cache); d != nil {
		t.Errorf("equal snapshots differ: %v", d)
	}

	// ArchLoose is one-sided on the instruction count: the judged (optimized)
	// side may execute fewer instructions, never more.
	ref, more := base(), base()
	more.Stats.InstsExecuted++
	if d := Diff(ref, more, ArchLoose); len(d) != 1 || !strings.HasPrefix(d[0], "insts executed: ") {
		t.Errorf("more instructions at arch-loose: %v", d)
	}
	if d := Diff(more, ref, ArchLoose); d != nil {
		t.Errorf("fewer instructions at arch-loose must pass: %v", d)
	}
}

// TestPairLevel pins the invariant level every pair of registry modes is
// held to — the equivalence suite's grouping, as data.
func TestPairLevel(t *testing.T) {
	want := map[string]Level{
		"interpreted": Arch, "cold-translated": Translated,
		"warm-disk": Cache, "store-warmed": Cache, "fleet-warmed": Cache, "recorded-replayed": Cache,
		"optimized-cold": Translated, "optimized-warm": Translated,
	}
	if len(Modes) != len(want) {
		t.Fatalf("%d registry modes, want %d", len(Modes), len(want))
	}
	for _, m := range Modes {
		if m.Level != want[m.Name] {
			t.Errorf("%s: level %d, want %d", m.Name, m.Level, want[m.Name])
		}
		interp, _ := Lookup("interpreted")
		wantVsInterp := Arch
		if m.Optimized {
			wantVsInterp = ArchLoose
		}
		if got := PairLevel(interp, m); got != wantVsInterp {
			t.Errorf("interpreted vs %s: level %d, want %d", m.Name, got, wantVsInterp)
		}
	}
	oc, _ := Lookup("optimized-cold")
	ow, _ := Lookup("optimized-warm")
	if got := PairLevel(oc, ow); got != Translated {
		t.Errorf("optimized modes against each other: level %d, want full arch + behaviour", got)
	}
}
