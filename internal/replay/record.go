package replay

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"persistcc/internal/fsx"
	"persistcc/internal/isa"
	"persistcc/internal/loader"
	"persistcc/internal/vm"
)

// flushEvery bounds how many boundary events buffer before the recorder
// appends them to disk. Small enough that a crash loses at most a short
// tail of the run; large enough that the append syscall tax stays off the
// per-event path.
const flushEvery = 64

// StartInfo is everything the recorder captures up front — the run's entire
// load-time nondeterminism. Program names the executable; Placement/Seed
// are the loader policy that chose the module bases; Input and PID are the
// guest-visible environment; Proc supplies the resolved module layout.
type StartInfo struct {
	Program   string
	Placement loader.Placement
	Seed      uint64
	Input     []uint64
	PID       uint64
	Proc      *loader.Process
}

// Recorder logs one execution. It implements vm.Boundary: attach it with
// vm.WithBoundary after Start, run the VM, then Finish with the result.
// Events stream to disk through the fsx seam in checksummed frames, so a
// crash mid-run leaves a truncated-but-replayable prefix, never a silently
// corrupt log.
type Recorder struct {
	fs   fsx.FS
	path string

	buf     []byte // encoded records not yet appended
	pending int    // events in buf
	events  uint64
	bytes   uint64
	err     error // first write error; poisons the recording

	m *Metrics
}

// NewRecorder opens path for recording, truncating any previous log.
func NewRecorder(fsys fsx.FS, path string) (*Recorder, error) {
	if fsys == nil {
		fsys = fsx.OS
	}
	if err := fsys.WriteFile(path, nil, 0o644); err != nil {
		return nil, fmt.Errorf("replay: create log: %w", err)
	}
	return &Recorder{fs: fsys, path: path}, nil
}

// WithMetrics exports pcc_replay_* counters for this recorder into reg.
func (r *Recorder) WithMetrics(m *Metrics) *Recorder {
	r.m = m
	return r
}

// Path returns the log's path.
func (r *Recorder) Path() string { return r.path }

// Events returns how many records have been emitted so far.
func (r *Recorder) Events() uint64 { return r.events }

// Bytes returns how many log bytes have been emitted so far.
func (r *Recorder) Bytes() uint64 { return r.bytes }

// Start writes the prelude — header, module layout, input block, pid — and
// flushes it, so even a run that crashes immediately leaves a log that
// identifies what was being recorded.
func (r *Recorder) Start(info StartInfo) error {
	r.emit(&Event{
		Kind:      KindHeader,
		Program:   info.Program,
		VMVersion: vm.Version,
		Placement: uint8(info.Placement),
		Seed:      info.Seed,
	})
	if info.Proc != nil {
		for _, m := range info.Proc.Layout() {
			r.emit(&Event{
				Kind: KindModule,
				Name: m.Name, Base: m.Base, Size: m.Size,
				MTime: m.MTime, Digest: m.Digest,
			})
		}
	}
	r.emit(&Event{Kind: KindInput, Words: info.Input})
	r.emit(&Event{Kind: KindPID, PID: info.PID})
	return r.flush()
}

// Syscall implements vm.Boundary: every syscall result is logged and passed
// through unchanged.
func (r *Recorder) Syscall(pc uint32, num, a1, a2, a3, ret uint64, outDelta int) (uint64, error) {
	r.emit(&Event{
		Kind: KindSyscall,
		PC:   pc, Num: num, A1: a1, A2: a2, A3: a3, Ret: ret,
		OutDelta: uint32(outDelta),
	})
	if r.pending >= flushEvery {
		if err := r.flush(); err != nil {
			return 0, err
		}
	}
	return ret, nil
}

// Finish seals the log with the run's final state — exit code, registers,
// memory and output digests, cache-behavior counters — and flushes it.
// Call it with the VM and result immediately after the run returns.
func (r *Recorder) Finish(v *vm.VM, res *vm.Result) error {
	end := &Event{
		Kind:     KindEnd,
		ExitCode: res.ExitCode,
		Regs:     RegsOf(v),
		MemSum:   MemSum(v),
		OutSum:   sha256.Sum256(res.Output),
		Counters: CountersOf(&res.Stats),
	}
	r.emit(end)
	return r.flush()
}

func (r *Recorder) emit(ev *Event) {
	if r.err != nil {
		return
	}
	before := len(r.buf)
	r.buf = appendRecord(r.buf, ev)
	r.pending++
	r.events++
	r.bytes += uint64(len(r.buf) - before)
	if r.m != nil {
		r.m.Recorded(1, uint64(len(r.buf)-before))
	}
}

func (r *Recorder) flush() error {
	if r.err != nil {
		return r.err
	}
	if len(r.buf) == 0 {
		return nil
	}
	if err := r.fs.AppendFile(r.path, r.buf, 0o644); err != nil {
		r.err = fmt.Errorf("replay: append log: %w", err)
		return r.err
	}
	r.buf = r.buf[:0]
	r.pending = 0
	return nil
}

// RegsOf snapshots the VM's architectural register file.
func RegsOf(v *vm.VM) []uint64 {
	regs := make([]uint64, isa.NumRegs)
	for i := range regs {
		regs[i] = v.Reg(uint8(i))
	}
	return regs
}

// MemSum digests the VM's memory image: every mapping's geometry and bytes,
// in address order. The equivalence suite compares this same digest.
func MemSum(v *vm.VM) [32]byte {
	h := sha256.New()
	as := v.Process().AS
	var word [8]byte
	for _, m := range as.Mappings() {
		binary.LittleEndian.PutUint64(word[:], uint64(m.Base)<<32|uint64(m.Size))
		h.Write(word[:])
		// Cannot fail: m is mapped and a hash never returns an error.
		_ = as.WriteMapping(h, m)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// CountersOf extracts the replay-verified slice of a run's statistics.
func CountersOf(s *vm.Stats) Counters {
	return Counters{
		InstsExecuted:    s.InstsExecuted,
		InstsTranslated:  s.InstsTranslated,
		TracesTranslated: s.TracesTranslated,
		TracesReused:     s.TracesReused,
		TraceExecs:       s.TraceExecs,
		Dispatches:       s.Dispatches,
		IndirectHits:     s.IndirectHits,
		IndirectMisses:   s.IndirectMisses,
		LinksPatched:     s.LinksPatched,
		Flushes:          int64(s.Flushes),
	}
}
