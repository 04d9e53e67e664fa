# Development entry points. `make check` is the gate every change must pass:
# formatting, lint (vet + the must-inline list + the project's own invariant
# analyzers), build, and the full test suite under the race detector (the
# cache server and the concurrent-commit paths are only meaningfully tested
# with -race). `make ci` mirrors .github/workflows/ci.yml exactly, adding the
# bench-regression, experiment-gate and fuzz smoke gates.

GO ?= go

# The CI smoke set: fast, fully deterministic experiments whose *_ticks
# metrics are gated against bench_baseline.json by pcc-benchdiff.
BENCH_SMOKE = fig2b,fig5a,tracelog,pipeline,dedup,fleet,optimize
MAX_REGRESS = 0.25

# Per-target budget for the CI fuzz smoke; long exploratory runs are a
# local activity (`make fuzz FUZZTIME=10m`).
FUZZTIME = 10s

.PHONY: check ci build vet lint inline-check test test-race race-smoke flake-gate fmt-check bench bench-host bench-smoke bench-baseline gate-smoke fuzz-smoke hotpath-layout clean

check: fmt-check lint build test-race

ci: check flake-gate bench-smoke gate-smoke fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet plus the repo's own analyzers (cmd/pcc-lint): fsx.FS seam bypasses in
# internal/core, blocking calls under Manager/Server locks, metric naming,
# and //pcc:hotpath allocation discipline.
lint: vet inline-check
	$(GO) run ./cmd/pcc-lint ./...

# The trace executor (execTrace) is fast because these calls vanish into it:
# a guest load or store reaches its page, and an instruction its pc, without
# a call. The compiler decides that by a size budget, so a few more lines in
# one of them silently takes the speed-up away; this fails instead.
MUST_INLINE = '(*AddressSpace).private' '(*AddressSpace).Load64' '(*AddressSpace).Store64' \
	'(*Trace).PC' '(*Trace).SrcOff' '(*CodeCache).Lookup'

inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/mem ./internal/vm 2>&1 | sed 's/^[^ ]* //'); fail=0; \
	for f in $(MUST_INLINE); do \
		echo "$$out" | grep -qxF "can inline $$f" || { echo "inline-check: $$f is not inlinable"; fail=1; }; \
	done; exit $$fail

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Focused race pass over the packages with real concurrency: the VM's
# async translation pipeline, the manager's concurrent commit/remove paths,
# and the cache server with its fleet client (whose hedged reads race a
# replica against the primary). Much faster than test-race, so it runs as its own
# CI job on every push. The shared-store tests — goroutines, then real
# processes, committing into one store directory with no lock, then a
# manager crashing at every pack operation beside a live peer, and readers of
# one store's pack and loose-file index while a peer publishes and the store
# compacts — run twenty times over: a lost race there is an intermittent
# failure, not a steady one.
# The optimizer's goldens and its one-Optimizer-many-traces test ride along:
# an Optimizer works in one scratch it owns, so reaching it from a second
# goroutine is a data race on that scratch, and a trace reading what the
# previous one left there is the single-threaded cousin of one.
race-smoke:
	$(GO) test -race ./internal/vm/ ./internal/core/... ./internal/store/ ./internal/cacheserver/...
	$(GO) test -race -run 'TestOptimizerOutputGolden|TestCheckerVerdictsGolden|TestDifferentialRandomSequences' ./internal/guestopt/
	$(GO) test -race -count=20 -run 'TestConcurrentManagersDedup|TestMultiProcessSharedStore|TestStoreChaosWithLivePeer|TestLooseIndexUnderConcurrentPeers' ./internal/core/ ./internal/store/

# Tier-1 three times in shuffled order: an intermittent or order-dependent
# failure has to show up here, not on somebody's unrelated push.
flake-gate:
	$(GO) test -shuffle=on -count=3 ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# The host-clock benchmark (wall time and allocation per launch, seven
# workloads, ~95 s); see bench/README.md. Report-only: machines differ.
bench-host:
	$(GO) run ./bench

# Run the smoke experiments and fail on a >25% tick regression vs the
# checked-in baseline.
bench-smoke:
	$(GO) run ./cmd/pcc-bench -json -run $(BENCH_SMOKE) > bench_current.json
	$(GO) run ./cmd/pcc-benchdiff -baseline bench_baseline.json -current bench_current.json -max-regress $(MAX_REGRESS)

# The gate experiments: each is deterministic and exits non-zero on a
# violated invariant, so each is also one cell of the CI gate-smoke matrix.
#   chaos      crash at every filesystem op in commit/accumulate/remove +
#              self-healing check; fails on any invariant violation
#   migrate    legacy fixture database (one entry corrupted) -> in-place
#              migrate -> deep verify -> warm run; fails if corruption is
#              laundered, verification fails, or a surviving entry stops
#              warm-serving
#   fleet      4 in-process shards, Zipfian client waves, shard s0 killed
#              mid-run; fails on shard imbalance > 1.5x the mean, any
#              committed entry lost to the kill, or < 50% of translation
#              work avoided
#   replay     every GUI app ships a recording + cache snapshot and its first
#              launch must replay bit-exactly (>= 90% of translation avoided,
#              tampered recordings rejected with a diagnostic)
#   optimize   each guestopt pass toggled alone, then all together, over
#              warm GUI-suite runs; fails if the equivalence checker rejects
#              an engine rewrite or all-passes saves < 10% of warm dispatch
#              ticks
#   guestfuzz  for each known-bug plant (miscompiled translation,
#              checksum-valid store-blob corruption, truncated recording) a
#              short fixed-seed campaign must rediscover the bug, minimize it
#              under the body budget and package a loadable crasher; the
#              healthy-system control must stay silent. Long exploratory
#              campaigns: `go run ./cmd/pcc-fuzz -execs 5000 -corpus ...`
GATES = chaos migrate fleet replay optimize guestfuzz

gate-smoke:
	@for g in $(GATES); do \
		echo "== gate: $$g"; $(GO) run ./cmd/pcc-bench -run $$g || exit 1; done

# Brief native-fuzz pass over the parser trust boundaries (VR64 instruction
# decode, wire-protocol frames, cache-file bytes and the entry headers the
# database is listed from, store pack files and the
# blob encodings inside them, and the compressed loose blob files of older
# stores) plus the
# differential translate/interpret equivalence property over generated
# workloads, and the optimizer's prover (a reused Optimizer's verdict on a
# mutated rewrite must be a fresh one's, and an accepted mutant must run like
# the interpreter). Seed corpora are checked in under each package's
# testdata/fuzz/, or added by the target itself.
fuzz-smoke:
	$(GO) test ./internal/isa/ -fuzz FuzzDecodeInstr -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cacheserver/ -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -fuzz FuzzReadCacheFile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzEntryHeader -fuzztime $(FUZZTIME)
	$(GO) test ./internal/workload/ -fuzz FuzzTranslateEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store/ -fuzz FuzzDecodePack -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store/ -fuzz FuzzDecodeBlob -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store/ -fuzz FuzzInflateBlob -fuzztime $(FUZZTIME)
	$(GO) test ./internal/guestopt/ -run '^$$' -fuzz FuzzCheckEquivalent -fuzztime $(FUZZTIME)

# Report-only, not a gate: where the dispatch loops start (address mod 64)
# and how long they are in the binaries the host benchmark and pcc-run
# build. spec-steady's launch_ms has swung by up to ~15 % with execTrace's
# alignment alone (ROADMAP.md), so a perf change names the layout of both
# sides of its pairs.
HOTPATH_SYMS = persistcc/internal/vm\.\(\*VM\)\.(execTrace|exec|RunNative)$$

hotpath-layout:
	@d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/bench" ./bench && $(GO) build -o "$$d/pcc-run" ./cmd/pcc-run || exit 1; \
	for b in bench pcc-run; do \
		$(GO) tool nm -size "$$d/$$b" | grep -E " $(HOTPATH_SYMS)" | while read addr size kind name; do \
			printf '%-8s %-24s mod 64 = %2d  size = %5d\n' "$$b" "$${name#persistcc/internal/vm.}" $$((0x$$addr % 64)) "$$size"; \
		done; \
	done

# Refresh the checked-in baseline after an intentional performance change.
bench-baseline:
	$(GO) run ./cmd/pcc-bench -json -run $(BENCH_SMOKE) > bench_baseline.json

clean:
	$(GO) clean ./...
	rm -f bench_current.json
