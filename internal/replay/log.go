// Package replay records and replays whole executions. The recorder logs
// every nondeterministic input that crosses the VM boundary — the input
// block, loader base placement and guest-visible syscall results — into a
// compact length-prefixed binary log; the replayer re-executes the program
// with every one of those inputs pinned to its recorded value and verifies
// the run bit-exactly (registers, memory image, output, and cache-behavior
// counters), failing loudly at the first divergence with the log offset and
// the VM state delta.
//
// The log is a sequence of records, each framed as
//
//	[u32 LE payload length][u32 LE CRC-32 (IEEE) of payload][payload]
//
// where the payload is one kind byte followed by binenc-encoded fields.
// Framing and per-record checksums make the format crash-tolerant by
// construction: the recorder appends through the fsx seam (durable on
// success, prefix on crash), and Decode accepts any byte prefix — it never
// errors, it returns the valid record prefix plus a Truncated marker at the
// first frame that is short, corrupt, or malformed. A log whose last record
// is End is complete; anything else is a detected partial recording.
package replay

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"persistcc/internal/binenc"
)

// Kind discriminates log records.
type Kind uint8

const (
	// KindHeader opens every log: program identity, VM version, placement
	// policy and ASLR seed — everything the replayer needs to reconstruct
	// the load environment.
	KindHeader Kind = iota + 1
	// KindModule records one loaded module's identity and chosen base, in
	// load order. Replay verifies the reconstructed layout against these.
	KindModule
	// KindInput records the run's input block.
	KindInput
	// KindPID records the guest-visible process id.
	KindPID
	// KindSyscall records one system call crossing the boundary: the guest's
	// request, the result it observed, and the output bytes it produced.
	KindSyscall
	_ // 6: reserved; was a tool-injected register write, which no tool made
	// KindEnd closes a complete log with the final architectural state and
	// the cache-behavior counters the replay must reproduce.
	KindEnd
)

func (k Kind) String() string {
	switch k {
	case KindHeader:
		return "header"
	case KindModule:
		return "module"
	case KindInput:
		return "input"
	case KindPID:
		return "pid"
	case KindSyscall:
		return "syscall"
	case KindEnd:
		return "end"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Counters is the cache-behavior slice of vm.Stats a replay must reproduce
// exactly. Tick totals are deliberately excluded: they fold in persistence
// machinery charged outside the recorded window (Prime/Commit), while these
// event counts are fully determined by the execution itself.
type Counters struct {
	InstsExecuted    uint64
	InstsTranslated  uint64
	TracesTranslated uint64
	TracesReused     uint64
	TraceExecs       uint64
	Dispatches       uint64
	IndirectHits     uint64
	IndirectMisses   uint64
	LinksPatched     uint64
	Flushes          int64
}

// Event is one decoded log record. Only the fields of its Kind are
// meaningful; the rest are zero.
type Event struct {
	Kind   Kind
	Offset int64 // byte offset of the record's frame in the log

	// KindHeader
	Program   string
	VMVersion string
	Placement uint8
	Seed      uint64 // ASLR seed

	// KindModule
	Name   string
	Base   uint32
	Size   uint32
	MTime  int64
	Digest [32]byte

	// KindInput
	Words []uint64

	// KindPID
	PID uint64

	// KindSyscall
	PC       uint32
	Num      uint64
	A1       uint64
	A2       uint64
	A3       uint64
	Ret      uint64
	OutDelta uint32

	// KindEnd
	ExitCode uint64
	Regs     []uint64
	MemSum   [32]byte
	OutSum   [32]byte
	Counters Counters
}

// maxRecord bounds one record's payload (the input block dominates).
const maxRecord = 16 << 20

// appendRecord frames and appends one event to dst.
func appendRecord(dst []byte, ev *Event) []byte {
	payload := encodePayload(ev)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

func encodePayload(ev *Event) []byte {
	w := binenc.Writer{}
	w.U8(uint8(ev.Kind))
	switch ev.Kind {
	case KindHeader:
		w.Str(ev.Program)
		w.Str(ev.VMVersion)
		w.U8(ev.Placement)
		w.U64(ev.Seed)
	case KindModule:
		w.Str(ev.Name)
		w.U32(ev.Base)
		w.U32(ev.Size)
		w.I64(ev.MTime)
		w.Raw(ev.Digest[:])
	case KindInput:
		w.U32(uint32(len(ev.Words)))
		for _, x := range ev.Words {
			w.U64(x)
		}
	case KindPID:
		w.U64(ev.PID)
	case KindSyscall:
		w.U32(ev.PC)
		w.U64(ev.Num)
		w.U64(ev.A1)
		w.U64(ev.A2)
		w.U64(ev.A3)
		w.U64(ev.Ret)
		w.U32(ev.OutDelta)
	case KindEnd:
		w.U64(ev.ExitCode)
		w.U32(uint32(len(ev.Regs)))
		for _, r := range ev.Regs {
			w.U64(r)
		}
		w.Raw(ev.MemSum[:])
		w.Raw(ev.OutSum[:])
		c := &ev.Counters
		w.U64(c.InstsExecuted)
		w.U64(c.InstsTranslated)
		w.U64(c.TracesTranslated)
		w.U64(c.TracesReused)
		w.U64(c.TraceExecs)
		w.U64(c.Dispatches)
		w.U64(c.IndirectHits)
		w.U64(c.IndirectMisses)
		w.U64(c.LinksPatched)
		w.I64(c.Flushes)
	}
	return w.Buf
}

func decodePayload(payload []byte) (*Event, error) {
	r := binenc.Reader{Buf: payload}
	ev := &Event{Kind: Kind(r.U8())}
	switch ev.Kind {
	case KindHeader:
		ev.Program = r.Str(4096)
		ev.VMVersion = r.Str(4096)
		ev.Placement = r.U8()
		ev.Seed = r.U64()
	case KindModule:
		ev.Name = r.Str(4096)
		ev.Base = r.U32()
		ev.Size = r.U32()
		ev.MTime = r.I64()
		copy(ev.Digest[:], r.Raw(32))
	case KindInput:
		n := r.Count(maxRecord / 8)
		ev.Words = make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			ev.Words = append(ev.Words, r.U64())
		}
	case KindPID:
		ev.PID = r.U64()
	case KindSyscall:
		ev.PC = r.U32()
		ev.Num = r.U64()
		ev.A1 = r.U64()
		ev.A2 = r.U64()
		ev.A3 = r.U64()
		ev.Ret = r.U64()
		ev.OutDelta = r.U32()
	case KindEnd:
		ev.ExitCode = r.U64()
		n := r.Count(256)
		ev.Regs = make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			ev.Regs = append(ev.Regs, r.U64())
		}
		copy(ev.MemSum[:], r.Raw(32))
		copy(ev.OutSum[:], r.Raw(32))
		c := &ev.Counters
		c.InstsExecuted = r.U64()
		c.InstsTranslated = r.U64()
		c.TracesTranslated = r.U64()
		c.TracesReused = r.U64()
		c.TraceExecs = r.U64()
		c.Dispatches = r.U64()
		c.IndirectHits = r.U64()
		c.IndirectMisses = r.U64()
		c.LinksPatched = r.U64()
		c.Flushes = r.I64()
	default:
		return nil, fmt.Errorf("replay: unknown record kind %d", uint8(ev.Kind))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return ev, nil
}

// Log is one decoded recording: the longest valid record prefix of the
// bytes handed to Decode.
type Log struct {
	Events []Event
	// Truncated marks a log whose bytes ended mid-frame or whose next frame
	// failed its checksum or decode — everything from TruncOffset on is
	// discarded. The events before it remain a replayable prefix.
	Truncated   bool
	TruncOffset int64
	Size        int64
}

// Decode parses a recording. It never fails: any byte prefix of a valid log
// (the shape a crash mid-append leaves behind) decodes to the records that
// landed completely, with Truncated marking where the valid prefix ended —
// a corrupt or short frame is indistinguishable from "the recording stops
// here", and replay reports it as such at the event where the log runs out.
func Decode(data []byte) *Log {
	lg := &Log{Size: int64(len(data))}
	off := 0
	for off < len(data) {
		if len(data)-off < 8 {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || n > maxRecord || off+8+n > len(data) {
			break
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		ev, err := decodePayload(payload)
		if err != nil {
			break
		}
		ev.Offset = int64(off)
		lg.Events = append(lg.Events, *ev)
		off += 8 + n
	}
	if off < len(data) {
		lg.Truncated = true
		lg.TruncOffset = int64(off)
	}
	return lg
}

// Complete reports whether the log closes with an End record — a recording
// that captured its run through to the final state.
func (lg *Log) Complete() bool {
	return !lg.Truncated && len(lg.Events) > 0 && lg.Events[len(lg.Events)-1].Kind == KindEnd
}

// jsonView renders one event for the NDJSON debug encoding.
func (ev *Event) jsonView(index int) map[string]any {
	m := map[string]any{"event": ev.Kind.String(), "index": index, "offset": ev.Offset}
	switch ev.Kind {
	case KindHeader:
		m["program"] = ev.Program
		m["vm_version"] = ev.VMVersion
		m["placement"] = ev.Placement
		m["aslr_seed"] = ev.Seed
	case KindModule:
		m["name"] = ev.Name
		m["base"] = fmt.Sprintf("%#x", ev.Base)
		m["size"] = ev.Size
		m["mtime"] = ev.MTime
		m["digest"] = fmt.Sprintf("%x", ev.Digest)
	case KindInput:
		m["words"] = ev.Words
	case KindPID:
		m["pid"] = ev.PID
	case KindSyscall:
		m["pc"] = fmt.Sprintf("%#x", ev.PC)
		m["num"] = ev.Num
		m["args"] = []uint64{ev.A1, ev.A2, ev.A3}
		m["ret"] = ev.Ret
		m["out_delta"] = ev.OutDelta
	case KindEnd:
		m["exit_code"] = ev.ExitCode
		m["regs"] = ev.Regs
		m["mem_sha256"] = fmt.Sprintf("%x", ev.MemSum)
		m["out_sha256"] = fmt.Sprintf("%x", ev.OutSum)
		m["counters"] = ev.Counters
	}
	return m
}

// DumpNDJSON writes the debug encoding: one JSON object per record, plus a
// trailing marker when the log is truncated or incomplete.
func DumpNDJSON(w io.Writer, data []byte) error {
	lg := Decode(data)
	enc := json.NewEncoder(w)
	for i := range lg.Events {
		if err := enc.Encode(lg.Events[i].jsonView(i)); err != nil {
			return err
		}
	}
	if lg.Truncated {
		return enc.Encode(map[string]any{"event": "truncated", "offset": lg.TruncOffset, "size": lg.Size})
	}
	if !lg.Complete() {
		return enc.Encode(map[string]any{"event": "incomplete", "size": lg.Size})
	}
	return nil
}
