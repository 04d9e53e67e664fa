package vm

// Boundary observes — and may rewrite — every nondeterministic value that
// crosses the VM boundary into the guest. It is the seam the
// record-and-replay layer (internal/replay) plugs into: a recording
// implementation logs each value and passes it through unchanged; a
// replaying implementation checks the value against the log, substitutes
// the recorded one where the host environment may differ (virtual cycle
// reads, pids), and returns an error at the first divergence, which aborts
// the run.
//
// The emulated system calls are the only run-time channel from the host
// into the guest, so the boundary carries exactly them. Everything else the
// guest observes — its binaries, its input block, its module bases — is
// captured once at load time by the replay layer itself.
type Boundary interface {
	// Syscall is invoked after the emulation unit has executed the system
	// call at pc and computed its result: num and a1..a3 as the guest
	// issued them, ret as computed, and outDelta, the bytes the call
	// appended to the guest's output stream. The returned value replaces
	// ret in a0, so a replayer can pin host-dependent results (cycles,
	// getpid) to their recorded values. A non-nil error aborts the run.
	Syscall(pc uint32, num, a1, a2, a3, ret uint64, outDelta int) (uint64, error)
}

// WithBoundary attaches a boundary hook — the record/replay seam.
func WithBoundary(b Boundary) Option { return func(v *VM) { v.boundary = b } }
