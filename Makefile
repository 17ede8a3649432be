# Convenience targets for the rijndaelip reproduction.

GO ?= go

.PHONY: all test short bench bench-smoke bench-json profile chaos-smoke triage-smoke obs-smoke vet lint race faults perfbench-test kernels examples reports verify clean

all: vet test

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One Build of the encryptor and of the combined core on the Acex1K (the
# set-up layer: core generation, LUT mapping, fit and timing), one pass over
# the sharded-engine scaling curve (1/2/4/8 shards) and the
# shards x lanes grid (1/16/64 blocks per lane-packed submission), plus the
# per-simulator Eval micro-benchmarks and the supervised netlist lockstep
# transaction: a cheap smoke that surfaces set-up and
# throughput-scaling regressions without the full bench suite. Both lines
# run with -benchmem, so BenchmarkBuild prints the mapper's transient
# bytes and BenchmarkVectorLockstep its allocs/op (2: the lane boundary
# allocates only the result) and its comparator's compares/op and
# skips/op (52 and 50).
# BenchmarkObsOverhead reports the instrumented/uninstrumented throughput
# ratio (best of 5 alternating rounds per twin even at -benchtime=1x;
# budget >= 0.95) as a metric; it does not fail on it, since a
# wall-clock ratio on a shared host is not a deterministic gate. Wired into
# `verify` alongside vet and the race sweep.
bench-smoke:
	$(GO) test -run '^$$' -bench '^Benchmark(Build|Engine|VectorLanes|ChaosRecovery|ObsOverhead)$$' -benchtime=1x -benchmem .
	$(GO) test -run '^$$' -bench '^Benchmark(NetlistEval|RTLEval|GatherROM|VectorLockstep)$$' -benchtime=1x -benchmem ./internal/netlist/ ./internal/rtl/ ./internal/logic/ ./internal/faultcampaign/

# Machine-readable perf trajectory: runs the engine benchmarks and writes
# cycles-per-block, Mbps and blocks/sec for every shards x lanes point of
# the compiled-tape simulation (the only evaluator) —
# plus the supervised engine's chaos-recovery and triage/scrub counters
# (detections, transients, in-place recoveries, quarantines, respawns,
# scrub corrected/uncorrectable) and the observability registry's
# final snapshot — to BENCH_engine.json, so regressions are diffable
# across PRs. The chaos_recovery faultfree row includes the delivery ROM
# scrub, which finds every store clean. Each sub-benchmark runs one untimed warmup
# iteration plus twenty timed ones, three times over (-count=3, best run
# kept per grid point): rates come from the warm steady state, not shard
# construction cold-start, and best-of-three damps the single-CPU
# scheduling jitter a lone run can lose a few percent to.
bench-json:
	BENCH_JSON=BENCH_engine.json $(GO) test -run '^$$' -timeout 40m -bench '^Benchmark(Engine|VectorLanes|ChaosRecovery)$$' -benchtime=20x -count=3 .
	@echo wrote BENCH_engine.json

# CPU and allocation profiles of the engine benchmark grid, captured over
# the same /debug/pprof exposition mount production engines serve via
# -metrics-addr (see internal/obs): the bench harness binds a loopback
# observability server, streams a PPROF_SECONDS CPU profile while the
# benchmarks run, and snapshots the allocation profile afterwards.
# Inspect with `go tool pprof profiles/cpu.pprof`.
profile:
	mkdir -p profiles
	PPROF_DIR=profiles PPROF_SECONDS=$${PPROF_SECONDS:-30} $(GO) test -run '^$$' -bench '^Benchmark(Engine|VectorLanes)$$' -benchtime=10x .

# A short seeded chaos run under the race detector: live strikes against a
# supervised 4-shard engine, every block checked against the software
# reference, quarantine/respawn/overhead gates enforced. Wired into
# `verify`.
chaos-smoke:
	$(GO) test -race -short -run '^TestChaosGate$$' -v ./internal/chaos/

# The mixed-fault triage gate under the race detector: seeded transient
# flips PLUS welded stuck-at ROM bits into the same live pool. Transients
# must recover in place; the EDAC-masked stuck-ats must be found by the
# delivery ROM scrub, localized to the exact ROM word, and healed by
# quarantine + respawn; zero mismatches. The second line pins the scrub's
# detection bound (a weld is found, and its shard respawned on its own
# worker, before the job it was planted on is delivered), holds the
# trace's scrub corrections to the ScrubCorrected counter, and checks
# that the recovery ladder is settled when every call returns (no shard
# quarantined, every quarantine resolved, the trace a closed ladder).
# Wired into `verify`.
triage-smoke:
	$(GO) test -race -short -run '^TestTriageGate$$' -v ./internal/chaos/
	$(GO) test -race -short -run '^(TestScrubDetectsWeldAfterItsJob|TestScrubCorrectTraceMatchesCounter|TestLadderSettledAtReturn)$$' -v .

# The observability smoke under the race detector: a supervised engine
# absorbs a welded fault while its registry and trace ring are scraped
# over live HTTP; the detection → persistent → quarantine → respawn
# ladder must be reconstructible from the trace ring alone, and the
# torn-snapshot stress must hold the Stats() invariants. Wired into
# `verify`.
obs-smoke:
	$(GO) test -race -short -run '^(TestObsSmoke|TestStatsSnapshotInvariants|TestStatsDeadShardFailures)$$' -v .

vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

# The full static verification suite: design-rule lint + structure reports
# over the three paper cores and the three AES-256 extension cores, the static compiled-tape audit for both
# simulators, and the stdlib-only source analyzers over every package.
# Exits nonzero on any finding. Wired into `verify`.
lint:
	$(GO) run ./cmd/lint

# The race detector roughly 10x-es the cycle-accurate simulations, so the
# racy-path sweep runs the -short suite; the full suite is covered by `test`.
race:
	$(GO) test -race -short ./...

# The sampled fault campaign on both devices (plain / TMR / lockstep /
# rom-stuck rows): exits nonzero when a coverage shape check fails. The
# only verify coverage of cmd/faultcampaign and RunStuckAt.
faults:
	$(GO) run ./cmd/faultcampaign

# The benchmark module's own vet and tests. `go test ./...` at the root
# never builds _perfbench (a separate module in an underscore directory),
# yet its replica still pins bfm.KeyedFactory.CloneVectorSim,
# faultcampaign.NewVectorLockstep, the bfm.VectorSim/VectorDriver aliases
# and the deprecated NewCompiledSimulator aliases. Wired into `verify`.
perfbench-test:
	cd _perfbench && $(GO) vet ./... && $(GO) test ./...

# Regenerate the straight-line kernel of the shipped lockstep netlist
# (internal/netlist/kernel_encrypt.go, written by cmd/tapegen). Needed after
# any change to the Encrypt core, the mapper or the netlist tape compiler;
# TestKernelsUpToDate fails until then.
kernels:
	$(GO) generate ./internal/netlist

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/smartcard
	$(GO) run ./examples/backbone
	$(GO) run ./examples/securechannel

reports:
	$(GO) run ./cmd/synthreport -sync -power -harden
	$(GO) run ./cmd/ipcompare -ablation

verify: vet lint race bench-smoke obs-smoke chaos-smoke triage-smoke faults perfbench-test
	$(GO) run ./cmd/verifyall -full

clean:
	$(GO) clean ./...
	rm -f aes128.vcd aes128.v aes128.blif test_output.txt bench_output.txt BENCH_engine.json
	rm -rf profiles
