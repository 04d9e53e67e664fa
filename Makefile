# Development entry points. `make check` is the gate every change must pass:
# formatting, lint (vet + the must-inline list + the project's own invariant
# analyzers), build, and the full test suite under the race detector (the
# cache server and the concurrent-commit paths are only meaningfully tested
# with -race). `make ci` mirrors .github/workflows/ci.yml exactly, adding the
# bench-regression and fuzz smoke gates. The gates of our own subsystems (crash
# sweeps, migration, replay shipping, fuzzing, dedup, the fleet, the optimizer,
# the event log) are tier-1 tests of the packages they gate (`make test`).

GO ?= go

# The CI smoke set: fast, fully deterministic paper experiments whose *_ticks
# metrics are gated against bench_baseline.json by pcc-benchdiff. It names the
# same experiments as the baseline's rows (TestGateListsNameExperiments).
BENCH_SMOKE = fig2b,fig5a
MAX_REGRESS = 0.25

# Per-target budget for the CI fuzz smoke; long exploratory runs are a
# local activity (`make fuzz FUZZTIME=10m`).
FUZZTIME = 10s

.PHONY: check ci build vet lint inline-check test test-race race-smoke flake-gate fmt-check bench bench-host bench-smoke bench-baseline fuzz-smoke hotpath-layout clean

check: fmt-check lint build test-race

ci: check race-smoke flake-gate bench-smoke fuzz-smoke

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

# Focused race pass over the packages with real concurrency: the manager's
# concurrent commit/remove paths, the store, and the cache server with its
# fleet client, with the VM's tests riding along. Much faster than
# test-race, so it runs as its own CI job on every push. The shared-store tests — goroutines, then real
# processes, committing into one store directory with no lock, then a
# manager crashing at every pack operation beside a live peer, readers of
# one store's pack index while a peer publishes two packs a turn and the
# store compacts, a commit into an entry a peer grew after the launch primed
# from it, and launches whose commits skip without the lock beside a peer
# accumulating into their entry — run twenty times over: a lost race or a
# lost update there is an intermittent failure, not a steady one. So do
# launches committing into one Manager while RecoverIndex loops over its
# database, and the pack reads that inflate beside their decode: two primes
# of one cold pack at once, every way a stream can fail while its reader
# (and a second stream) runs, and Run's store opening beside a load that
# fails. So do the daemon's publishes parked mid-write: one with a COMPACT
# waiting on it, one with an EVICT and a second publish queued behind it.
# The optimizer's goldens and its one-Optimizer-many-traces test ride along:
# an Optimizer works in one scratch it owns, so reaching it from a second
# goroutine is a data race on that scratch, and a trace reading what the
# previous one left there is the single-threaded cousin of one.
# TestMakefileTestListsNameTests holds every -run name here (and every
# -fuzz target of fuzz-smoke) to a func the packages on its line declare:
# go test passes a -run name nothing declares with "no tests to run".
race-smoke:
	$(GO) test -race ./internal/vm/ ./internal/core/... ./internal/store/ ./internal/cacheserver/...
	$(GO) test -race -run 'TestOptimizerOutputGolden|TestCheckerVerdictsGolden|TestDifferentialRandomSequences' ./internal/guestopt/
	$(GO) test -race -count=20 -run 'TestConcurrentManagersDedup|TestMultiProcessSharedStore|TestStoreChaosWithLivePeer|TestPackIndexUnderConcurrentPeers|TestCommitKeepsPeerTracesAddedAfterPrime|TestLockFreeSkipsRaceAccumulatingPeer|TestConcurrentPrimesHeatOnce|TestLocalTracesStreamFaults|TestRunStoreOpenRacesFailedLoad|TestCommitsRaceRecoverIndex' . ./internal/core/ ./internal/store/
	$(GO) test -race -count=20 -run 'TestPublishRacingCompactKeepsDedupedBlobs|TestPublishQueuedBehindEvictIsServed' ./internal/cacheserver/

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

# Brief native-fuzz pass over the parser trust boundaries (VR64 instruction
# decode, wire-protocol frames, cache-file bytes and the entry headers the
# database is listed from, store pack files and the blob encodings inside
# them, the manifests a database holds and a PUBLISH carries, and the loose
# blob files of older stores, which only the fold that
# repair and migrate run reads, packing the sound ones) plus the
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
	$(GO) test ./internal/store/ -fuzz FuzzDecodeManifest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store/ -fuzz FuzzFoldLoose -fuzztime $(FUZZTIME)
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
