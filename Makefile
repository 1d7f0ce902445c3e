# Tiered verification for the DMDC reproduction.
#
#   make build       compile everything
#   make test        tier-1: full test suite (what CI gates on)
#   make vet         go vet plus a gofmt gate: fails if `gofmt -l .` lists
#                    any file; also vets the job store for windows and
#                    solaris, so its no-flock fallback keeps compiling
#   make check       vet + race-enabled tests for the concurrent packages
#                    (experiment runner, result cache, simulation service,
#                    and the trace tapes several cells replay at once;
#                    every TestFleet* test included) — keeps the
#                    singleflight and worker-pool fixes fixed — plus the
#                    chaos and sampling gates, the benchmark smoke run, the
#                    benchmark module's vet and smoke test, a run of every
#                    example program, the unlinked-function sweep, the claims
#                    gate, a short fuzz pass and whole-suite coverage. The
#                    coverage run is the full test suite, so it also runs
#                    the API-surface test, the soundness suite and the
#                    allocation budget: the api-check, soundness and
#                    alloc-gate targets below stay as standalone shortcuts,
#                    not `check` sub-gates, and so does fleet-check
#   make api-check   just the API-surface comparison (TestAPISurfaceGolden)
#   make chaos       kill/restart durability matrix under -race: SIGKILL a
#                    real dmdcd mid-matrix with a journal on disk, restart,
#                    prove zero lost / zero duplicated / byte-identical;
#                    the store lock (a second dmdcd on a held -store-dir
#                    exits before it listens) — plus peer-degradation
#                    chaos (a peer killed mid-fetch or serving corrupt
#                    entries must fall back to local compute,
#                    byte-identical)
#   make fleet-check three in-process dmdcd instances under -race: warm
#                    peer-fetch re-runs with zero re-simulations, a
#                    shared-store handoff across drains, and crashed-owner
#                    adoption once the store lock is free
#   make sample-check  the checkpoint/sampling gate under -race: the
#                    checkpoint codec's round-trip and error-kind contract,
#                    the pinned checkpoint bytes of every policy, byte-exact
#                    save/restore equivalence over the full golden matrix
#                    and the mid-pipeline white-box states, the sampled
#                    error-bound report, the distributed sampled run with a
#                    mid-run server kill, the 5M-instruction
#                    sampled-vs-full speedup acceptance, and the two
#                    two-goroutine handoffs — warm fast-forward's blocks
#                    and a streamed run's record ring — ten times over at
#                    one and two Ps (with one P the pipeline must still
#                    make progress)
#   make fuzz-short  100s split across the fuzz targets
#   make bench-module  vet and test cmd/dmdcbench, a module of its own that
#                    `go build ./...` and `go test ./...` never reach
#   make unlinked    build every cmd/* and examples/* program and the
#                    benchmark without inlining, and fail on any non-test
#                    function that none of them links (TestUnlinkedFunctions;
#                    the dmdc facade's library-only entry points and
#                    internal/apigen are the allowed exceptions)
#   make examples    build each examples/ program and run it with default
#                    arguments; a non-zero exit or an empty stdout fails
#   make claims      regenerate the paper report cold at 500k instructions
#                    on all 26 benchmarks (~2.5 min on 2 cores) and check
#                    the claims table against it: every reproduced claim
#                    holds, no known deviation's paper band holds, and
#                    EXPERIMENTS.md's generated blocks match a fresh render
#                    (TestExperimentsDoc; re-render with its -update flag)
#   make bench-smoke one-iteration run of the simulator benchmarks — a fast
#                    "do the benchmarks still work" gate, part of `check`
#   make report      regenerate the full paper report with a warm cache

GO ?= go
CACHE_DIR ?= .dmdc-cache

.PHONY: all build test check vet api-check race soundness alloc-gate chaos fleet-check sample-check fuzz-short cover bench-smoke bench-module examples unlinked claims report clean-cache

all: build test check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	GOOS=windows $(GO) vet ./internal/jobstore/
	GOOS=solaris $(GO) vet ./internal/jobstore/
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

# -short skips the slow paper-shape regressions, so no paper claim is
# checked here (tier-1 and `claims` check them); the
# singleflight/worker-pool/cache concurrency tests all run in short mode.
race:
	$(GO) test -race -short ./internal/experiments/... ./internal/resultcache/... ./internal/core/... ./internal/dserve/... ./internal/trace/...

# The soundness suite: lockstep oracle across every policy, the full
# fault-injection campaign, watchdog and wrong-path error paths, and the
# policy-level property tests.
soundness:
	$(GO) test -run 'Soundness|Oracle|Watchdog|WrongPath|Fault|Invariant' ./internal/core/... ./internal/soundness/... ./internal/lsq/... ./internal/experiments/...

# 100 seconds of fuzzing split across the targets (seed corpora always run
# as part of tier-1; this explores beyond them). FuzzCheckpointRoundTrip's
# inputs are ~345 KB checkpoints, which the fuzzer would spend its whole
# budget minimizing, so that target does not minimize; nor does
# FuzzSQSearch, whose minimizing stalled exploration from the third second.
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzPolicySoundness -fuzztime 20s ./internal/lsq/
	$(GO) test -run '^$$' -fuzz FuzzFaultSpecParse -fuzztime 10s ./internal/soundness/
	$(GO) test -run '^$$' -fuzz FuzzTraceEventExport -fuzztime 10s ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 10s ./internal/jobstore/
	$(GO) test -run '^$$' -fuzz FuzzWakeupInvariants -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzCheckpointRoundTrip -fuzztime 15s -fuzzminimizetime 0 ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzSQSearch -fuzztime 10s -fuzzminimizetime 0 ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeEntry -fuzztime 5s ./internal/resultcache/
	$(GO) test -run '^$$' -fuzz FuzzSegmentScan -fuzztime 5s ./internal/resultcache/
	$(GO) test -run '^$$' -fuzz FuzzTraceReader -fuzztime 5s ./internal/tracefile/
	$(GO) test -run '^$$' -fuzz FuzzJobSpecValidate -fuzztime 5s ./internal/experiments/

# The crash-safety matrix: journal replay edge cases, the store lock,
# in-process restart-resume, and a real dmdcd SIGKILLed mid-matrix with
# its journal fsyncing to disk, all under the race detector.
chaos:
	$(GO) test -race -count 1 \
		-run 'TestChaos|TestServerRestart|TestJournal|TestLock|TestVersionSkew|TestAppend' \
		./internal/dserve/ ./internal/jobstore/

# The fleet gate (DESIGN.md §15): a cold matrix on one instance, warm
# re-runs on peers with zero re-simulations (the counters prove the
# GET /v1/cache path ran), a three-instance shared-store handoff chain,
# and crashed-owner adoption, which the store lock lets start at once —
# under -race.
fleet-check:
	$(GO) test -race -count 1 -run 'TestFleet' ./internal/dserve/

# The sampled-execution gate (DESIGN.md §14): the codec contract
# (TestCheckpointCodec*), the per-policy checkpoint byte pins, byte-exact
# restore equivalence over the full golden matrix and the mid-pipeline
# white-box states, the pinned sampled-vs-full error-bound report, and the
# distributed sampled run with a mid-run server kill — all under -race.
# Then warm fast-forward's pins and panic contract, the streamed
# committed path's equivalence, settle and lifecycle tests (TestStream*),
# and the sampled determinism check, ten times each at one and two Ps
# under -race, so the race detector sees the block handoff between
# fast-forward's two goroutines and the record ring between a streamed
# run's producer and its pipeline, and a single P proves the pipeline
# still makes progress. Last, the 5M-instruction speedup acceptance
# without the race detector's timing skew.
sample-check:
	$(GO) test -race -count 1 -run 'TestCheckpoint|TestFastForward|TestSampled|TestDistributedSampled' \
		. ./internal/checkpoint/ ./internal/core/ ./internal/experiments/ ./internal/dserve/
	$(GO) test -race -count 10 -cpu 1,2 -run 'TestFastForward|TestStream|TestSampledDeterminism' ./internal/core/ ./internal/experiments/
	DMDC_SAMPLE_SPEEDUP=1 $(GO) test -count 1 -run 'TestSampledSpeedup' -v ./internal/experiments/

# Whole-module coverage with a per-package summary; the total line is the
# number `check` prints at the end.
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	$(GO) tool cover -func=cover.out | tail -1

# The public API surface of package dmdc, pinned byte-for-byte by
# TestAPISurfaceGolden. After an intentional API change:
# `go test -run '^TestAPISurfaceGolden$$' -update .`, review the api.txt
# diff, commit it.
api-check:
	$(GO) test -count=1 -run '^TestAPISurfaceGolden$$' .

# Allocation-budget gate: one pooled-arena simulation run, and one
# checkpoint save and restore, must each stay within a fixed allocation
# count, and a warm pooled run and a repeat save within a byte budget (see
# alloc_test.go), pinning the SoA/arena refactor's allocation-free hot
# loop, a codec that allocates nothing per field, an arena that owns every
# per-run table, and a save that allocates its record once.
alloc-gate:
	$(GO) test -run 'TestAllocationBudget' -count 1 .

check: vet race chaos sample-check bench-smoke bench-module examples unlinked claims fuzz-short cover

bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSim(Baseline|DMDC|Telemetry|Sampled5M)$$' -benchtime 1x .

# The benchmark (cmd/dmdcbench) has its own go.mod, so nothing above
# compiles it; its smoke test runs every workload briefly and checks the
# pinned output digests.
bench-module:
	cd cmd/dmdcbench && $(GO) vet ./... && $(GO) test ./...

# Every example program, built into a temporary directory and run with its
# default arguments: it must exit 0 and print something.
examples:
	@bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && \
	for dir in examples/*/; do \
		name=$$(basename "$$dir"); \
		$(GO) build -o "$$bin/$$name" "./examples/$$name" || exit 1; \
		out=$$("$$bin/$$name") || { echo "examples/$$name: exit status $$?"; exit 1; }; \
		[ -n "$$out" ] || { echo "examples/$$name: empty stdout"; exit 1; }; \
		echo "examples/$$name: ok"; \
	done

# Every non-test function must be linked into some program: a function
# only tests call belongs in a _test.go file (see unlinked_test.go).
unlinked:
	DMDC_UNLINKED=1 $(GO) test -count 1 -run '^TestUnlinkedFunctions$$' .

# Each paper claim is one row of the claims table
# (internal/experiments/claims_test.go); this gate checks every row against
# a cold 500k-instruction report and EXPERIMENTS.md against its render.
claims:
	DMDC_CLAIMS=1 $(GO) test -count 1 -timeout 30m -run '^TestExperimentsDoc$$' ./internal/experiments/

report:
	$(GO) run ./cmd/experiments -cache-dir $(CACHE_DIR) -v -out report_full.txt

clean-cache:
	$(GO) run ./cmd/experiments -cache-dir $(CACHE_DIR) -cache-clear
