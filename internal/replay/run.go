package replay

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"persistcc/internal/fsx"
	"persistcc/internal/isa"
	"persistcc/internal/loader"
	"persistcc/internal/vm"
)

// DivergenceError reports the first point where a replay stopped matching
// its recording: which event, where in the log, what the recording says,
// what the replay did, and the VM state delta when one is available.
type DivergenceError struct {
	Event  int    // index of the divergent event in the log
	Offset int64  // byte offset of that event's frame (or log end)
	Want   string // what the recording expected
	Got    string // what the replayed execution produced
	State  string // VM state delta, when available
}

func (e *DivergenceError) Error() string {
	s := fmt.Sprintf("replay: diverged at event %d (log offset %#x): recorded %s, got %s",
		e.Event, e.Offset, e.Want, e.Got)
	if e.State != "" {
		s += "\n  state delta: " + e.State
	}
	return s
}

// envDependent reports whether a syscall's result reflects the host
// environment rather than the guest's own computation — these are injected
// from the recording on replay, pinning the guest's view of the world, while
// every other result is verified against it.
func envDependent(num uint64) bool {
	switch num {
	case isa.SysCycles, isa.SysGetPID, isa.SysRead, isa.SysInput:
		return true
	}
	return false
}

// Replayer re-executes a recording. It implements vm.Boundary: reconstruct
// the load environment from Program/Placement/Seed/Input/PID, check it with
// VerifyLayout, attach the replayer with vm.WithBoundary, run, then Finish
// with the result. Any mismatch surfaces as a *DivergenceError.
type Replayer struct {
	log     *Log
	header  *Event
	modules []Event
	input   []uint64
	pid     uint64

	next int // index of the next unconsumed boundary event
	m    *Metrics
}

// NewReplayer decodes a recording. The log must open with a header and the
// load-time prelude; a log truncated inside the prelude is unreplayable and
// rejected here, while one truncated mid-run loads fine and diverges at the
// event where it runs out.
func NewReplayer(data []byte) (*Replayer, error) {
	rp := &Replayer{log: Decode(data)}
	evs := rp.log.Events
	i := 0
	if i < len(evs) && evs[i].Kind == KindHeader {
		rp.header = &evs[i]
		i++
	} else {
		return nil, fmt.Errorf("replay: log has no header (%d events, truncated=%v)", len(evs), rp.log.Truncated)
	}
	if rp.header.VMVersion != vm.Version {
		return nil, fmt.Errorf("replay: recording made under %q, this VM is %q", rp.header.VMVersion, vm.Version)
	}
	for i < len(evs) && evs[i].Kind == KindModule {
		rp.modules = append(rp.modules, evs[i])
		i++
	}
	if i < len(evs) && evs[i].Kind == KindInput {
		rp.input = evs[i].Words
		i++
	} else {
		return nil, fmt.Errorf("replay: log prelude is missing the input record (truncated recording?)")
	}
	if i < len(evs) && evs[i].Kind == KindPID {
		rp.pid = evs[i].PID
		i++
	} else {
		return nil, fmt.Errorf("replay: log prelude is missing the pid record (truncated recording?)")
	}
	rp.next = i
	return rp, nil
}

// Open reads and decodes a recording through the fsx seam.
func Open(fsys fsx.FS, path string) (*Replayer, error) {
	if fsys == nil {
		fsys = fsx.OS
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("replay: read log: %w", err)
	}
	return NewReplayer(data)
}

// WithMetrics exports pcc_replay_* counters for this replayer into m's
// registry.
func (rp *Replayer) WithMetrics(m *Metrics) *Replayer {
	rp.m = m
	return rp
}

// Log exposes the decoded recording (diagnostics, NDJSON dumps).
func (rp *Replayer) Log() *Log { return rp.log }

// Program returns the recorded executable path.
func (rp *Replayer) Program() string { return rp.header.Program }

// Placement returns the recorded loader placement policy.
func (rp *Replayer) Placement() loader.Placement { return loader.Placement(rp.header.Placement) }

// Seed returns the recorded ASLR seed.
func (rp *Replayer) Seed() uint64 { return rp.header.Seed }

// Input returns the recorded input block.
func (rp *Replayer) Input() []uint64 { return rp.input }

// PID returns the recorded guest-visible process id.
func (rp *Replayer) PID() uint64 { return rp.pid }

// VerifyLayout checks a freshly loaded process against the recorded module
// layout: same modules, same bases, same sizes, same content digests. MTime
// is deliberately not compared — rebuilt-but-identical binaries replay fine;
// changed content does not.
func (rp *Replayer) VerifyLayout(p *loader.Process) error {
	layout := p.Layout()
	if len(layout) != len(rp.modules) {
		return fmt.Errorf("replay: module count mismatch: recorded %d, loaded %d", len(rp.modules), len(layout))
	}
	for i, m := range layout {
		rec := &rp.modules[i]
		if m.Name != rec.Name || m.Base != rec.Base || m.Size != rec.Size {
			return fmt.Errorf("replay: module %d layout mismatch: recorded %s@%#x (%d bytes), loaded %s@%#x (%d bytes)",
				i, rec.Name, rec.Base, rec.Size, m.Name, m.Base, m.Size)
		}
		if m.Digest != rec.Digest {
			return fmt.Errorf("replay: module %s content changed since recording (digest %x != %x)",
				m.Name, m.Digest[:4], rec.Digest[:4])
		}
	}
	return nil
}

// take consumes the next boundary event, which must be of the wanted kind.
// got describes what the replayed execution just did, for the diagnostic
// when the log has a different opinion (or has run out).
func (rp *Replayer) take(want Kind, got string) (*Event, int, error) {
	idx := rp.next
	if idx >= len(rp.log.Events) {
		off := rp.log.Size
		wantDesc := "log end"
		if rp.log.Truncated {
			off = rp.log.TruncOffset
			wantDesc = "log end (truncated recording)"
		}
		return nil, idx, &DivergenceError{Event: idx, Offset: off, Want: wantDesc, Got: got}
	}
	ev := &rp.log.Events[idx]
	if ev.Kind != want {
		return nil, idx, &DivergenceError{
			Event: idx, Offset: ev.Offset,
			Want: fmt.Sprintf("%s event", ev.Kind), Got: got,
		}
	}
	rp.next = idx + 1
	if rp.m != nil {
		rp.m.Replayed(1, rp.frameLen(idx))
	}
	return ev, idx, nil
}

// frameLen derives one record's on-disk length from frame offsets.
func (rp *Replayer) frameLen(idx int) uint64 {
	start := rp.log.Events[idx].Offset
	end := rp.log.Size
	if rp.log.Truncated {
		end = rp.log.TruncOffset
	}
	if idx+1 < len(rp.log.Events) {
		end = rp.log.Events[idx+1].Offset
	}
	if end < start {
		return 0
	}
	return uint64(end - start)
}

func (rp *Replayer) diverged(err error) error {
	if rp.m != nil {
		if _, ok := err.(*DivergenceError); ok {
			rp.m.Divergence()
		}
	}
	return err
}

// Syscall implements vm.Boundary: the replayed guest must issue exactly the
// recorded syscall sequence; environment-dependent results are substituted
// from the recording, deterministic ones verified against it.
func (rp *Replayer) Syscall(pc uint32, num, a1, a2, a3, ret uint64, outDelta int) (uint64, error) {
	got := fmt.Sprintf("syscall %d at pc %#x (args %#x,%#x,%#x)", num, pc, a1, a2, a3)
	ev, idx, err := rp.take(KindSyscall, got)
	if err != nil {
		return 0, rp.diverged(err)
	}
	if ev.Num != num || ev.PC != pc || ev.A1 != a1 || ev.A2 != a2 || ev.A3 != a3 {
		return 0, rp.diverged(&DivergenceError{
			Event: idx, Offset: ev.Offset,
			Want: fmt.Sprintf("syscall %d at pc %#x (args %#x,%#x,%#x)", ev.Num, ev.PC, ev.A1, ev.A2, ev.A3),
			Got:  got,
		})
	}
	if ev.OutDelta != uint32(outDelta) {
		return 0, rp.diverged(&DivergenceError{
			Event: idx, Offset: ev.Offset,
			Want: fmt.Sprintf("syscall %d writing %d output bytes", num, ev.OutDelta),
			Got:  fmt.Sprintf("syscall %d writing %d output bytes", num, outDelta),
		})
	}
	if envDependent(num) {
		// Pin the guest's view of the host: cycles, pid, reads.
		return ev.Ret, nil
	}
	if ret != ev.Ret {
		return 0, rp.diverged(&DivergenceError{
			Event: idx, Offset: ev.Offset,
			Want: fmt.Sprintf("syscall %d returning %#x", num, ev.Ret),
			Got:  fmt.Sprintf("syscall %d returning %#x", num, ret),
		})
	}
	return ev.Ret, nil
}

// Finish verifies the replayed run's final state against the recording's
// End record: every boundary event consumed, then exit code, registers,
// memory image, output, and cache-behavior counters all bit-identical.
// A truncated or endless recording fails here with the log offset where it
// gave out.
func (rp *Replayer) Finish(v *vm.VM, res *vm.Result) error {
	ev, idx, err := rp.take(KindEnd, fmt.Sprintf("run finished (exit %d)", res.ExitCode))
	if err != nil {
		return rp.diverged(err)
	}
	var delta []string
	if res.ExitCode != ev.ExitCode {
		delta = append(delta, fmt.Sprintf("exit code %d != recorded %d", res.ExitCode, ev.ExitCode))
	}
	regs := RegsOf(v)
	if len(regs) != len(ev.Regs) {
		delta = append(delta, fmt.Sprintf("register file size %d != recorded %d", len(regs), len(ev.Regs)))
	} else {
		for i := range regs {
			if regs[i] != ev.Regs[i] {
				delta = append(delta, fmt.Sprintf("r%d=%#x != recorded %#x", i, regs[i], ev.Regs[i]))
			}
		}
	}
	if sum := MemSum(v); sum != ev.MemSum {
		delta = append(delta, fmt.Sprintf("memory image sha256 %x != recorded %x", sum[:6], ev.MemSum[:6]))
	}
	if sum := sha256.Sum256(res.Output); sum != ev.OutSum {
		delta = append(delta, fmt.Sprintf("output sha256 %x != recorded %x (%d bytes)", sum[:6], ev.OutSum[:6], len(res.Output)))
	}
	if got := CountersOf(&res.Stats); got != ev.Counters {
		delta = append(delta, counterDelta(got, ev.Counters)...)
	}
	if len(delta) > 0 {
		return rp.diverged(&DivergenceError{
			Event: idx, Offset: ev.Offset,
			Want:  "final state as recorded",
			Got:   fmt.Sprintf("%d field(s) differ", len(delta)),
			State: strings.Join(delta, "; "),
		})
	}
	if rp.next < len(rp.log.Events) {
		extra := &rp.log.Events[rp.next]
		return rp.diverged(&DivergenceError{
			Event: rp.next, Offset: extra.Offset,
			Want: fmt.Sprintf("%s event", extra.Kind),
			Got:  "run finished with recorded events left over",
		})
	}
	return nil
}

func counterDelta(got, want Counters) []string {
	var d []string
	add := func(name string, g, w uint64) {
		if g != w {
			d = append(d, fmt.Sprintf("%s %d != recorded %d", name, g, w))
		}
	}
	add("insts_executed", got.InstsExecuted, want.InstsExecuted)
	add("insts_translated", got.InstsTranslated, want.InstsTranslated)
	add("traces_translated", got.TracesTranslated, want.TracesTranslated)
	add("traces_reused", got.TracesReused, want.TracesReused)
	add("trace_execs", got.TraceExecs, want.TraceExecs)
	add("dispatches", got.Dispatches, want.Dispatches)
	add("indirect_hits", got.IndirectHits, want.IndirectHits)
	add("indirect_misses", got.IndirectMisses, want.IndirectMisses)
	add("links_patched", got.LinksPatched, want.LinksPatched)
	add("flushes", uint64(got.Flushes), uint64(want.Flushes))
	return d
}
