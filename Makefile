# Development and CI entry points. `make ci` is the gate: build, the full
# test suite under the race detector, the docs checks (vet + markdown link
# check + per-package doc.go assertion + the public-API gate), the scenario
# gate (every registered preset runs end to end at smoke scale), and a
# one-iteration benchmark smoke so the paper-artifact benchmarks can't rot.

GO ?= go

# Per-target fuzzing budget for `make fuzz`; raise for real hunts.
FUZZTIME ?= 30s

.PHONY: all ci vet build test race bench bench-json profile docs lint lint-fixtures api-check scenario-check dataset-check cover fuzz fuzz-smoke clean

all: ci

ci: build lint lint-fixtures race docs scenario-check dataset-check cover fuzz-smoke bench

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Invariant gate: churnvet (cmd/churnvet, internal/lint) type-checks the
# whole module and runs all eight analyzers: no ambient nondeterminism in
# deterministic packages, named unique RNG stream constants, no map-order
# leaks into output, `go` only in the sanctioned concurrency package, no
# discarded or fresh-root contexts, no discarded errors / ==-compared
# sentinels / %v-wrapped chains, a sealed public-API boundary.
# Suppressions need a written reason (//churnvet:ok <analyzer> --
# <reason>); malformed or stale ones are themselves findings, and
# `churnvet -audit` lists the whole waiver inventory.
lint:
	$(GO) run ./cmd/churnvet ./...

# The analyzer suite's own gate: fixture + CLI tests with coverage floors
# above the repo-wide cover gate (see scripts/check-lint-fixtures.sh).
lint-fixtures:
	sh scripts/check-lint-fixtures.sh

# Public-API gate: the examples must build as external consumers would and
# must not import churntomo/internal packages — the Result/Event surface
# has to be self-sufficient.
api-check:
	GOFLAGS=-mod=mod $(GO) build ./examples/...
	sh scripts/check-api.sh

# Documentation gate: every *.md relative link resolves, every internal
# package documents itself in doc.go, the examples pass the public-API
# check, and vet is clean.
docs: vet api-check
	sh scripts/check-links.sh
	sh scripts/check-docs.sh

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Scenario gate: the preset catalog is intact, every registered preset
# runs the full pipeline end to end at smoke scale with deterministic
# output, composed specs register and run by name, and the catalog tooling
# stays wired. -count 2 runs every test twice in one process, so a fixture
# that leaks into the process-wide registry fails the gate.
scenario-check:
	$(GO) test -count 2 -run 'TestScenarioCatalog|TestScenarioPresetsSmoke|TestScenarioDeterminism|TestScenarioBaselineMatchesDefault|TestRegisterScenarioRoundTrip|TestScenarioSpecComposition' .
	$(GO) run ./cmd/genlab -list >/dev/null

# Dataset gate: the on-disk format keeps round-tripping — the codec's
# golden v1 file still decodes and re-encodes byte-identically, decode
# stays within its per-record heap budget and never allocates by a
# header's claims alone, the decode pipeline decodes what the serial
# line loop alone does and still caps record lines, an
# export→import→localize round trip produces identifications
# byte-identical to the direct run in batch and streaming modes, and the
# genlab -export → churnlab -input CLI workflow stays wired end to end
# (smoke scale, full evaluation diffed against the direct run).
dataset-check:
	$(GO) test -count 1 -run 'TestGoldenV1|TestEncodeDecodeRoundTrip|TestDecodeAllocationBudget|TestDecodePipelineMatchesSerial|TestRecordLineCap' ./internal/dataset
	$(GO) test -count 1 -run 'TestDatasetRoundTripIdentifications|TestDatasetRoundTripStreaming|TestInMemoryDatasetSource' .
	sh scripts/check-dataset-cli.sh

# Coverage gate: per-package floors enforced by scripts/cover-check.sh —
# internal packages >= 75%, the root package >= 80%, cmd/ binaries exempt
# (their CLI surfaces are smoke-tested by the check scripts), and a new
# internal package with no tests fails outright. Baseline when the gate
# landed (PR 7): root 84.2%, lowest internal httpsim 79.1%, median ~95%.
cover:
	sh scripts/cover-check.sh

# One iteration of every benchmark: catches compile/runtime rot without
# paying for a real measurement run.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Root benchmarks with -benchmem, rendered as JSON (min of N runs) into
# BENCH.json, which git ignores. The checked-in BENCH_*.json files are
# earlier datapoints; diff the fresh file against them for the trajectory.
bench-json:
	sh scripts/bench-json.sh

# CPU and allocation profiles of what a run executes, written under
# profiles/ as pprof protos plus human-readable -top digests: measurement,
# batch localization as Run does it (BenchmarkEngine_BuildSolveSerial,
# which classifies without writing clauses out, unlike tomo.Build's
# BenchmarkKernel_CNFBuild), the sliding-window replay through the
# incremental engine (BenchmarkStream_WindowedIncremental), the dataset
# codec, a whole batch replay of an exported file the way a replay runs
# it, decode, fold, churn summary and Table 1 included
# (BenchmarkReplay_Batch), and a whole batch-synth run the way one runs,
# world synthesis and the churn timeline, measurement and localization
# (BenchmarkSynth_Batch). profiles/before.* are an older starting point,
# taken over BenchmarkKernel_CNFBuild in place of the two localization
# benchmarks and with no whole runs.
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkEngine_MeasureSerial|BenchmarkEngine_BuildSolveSerial|BenchmarkStream_WindowedIncremental|BenchmarkDatasetEncodeDecode|BenchmarkReplay_Batch|BenchmarkSynth_Batch' \
		-benchtime 3x -cpuprofile profiles/after.cpu.pb.gz -memprofile profiles/after.mem.pb.gz .
	$(GO) tool pprof -top -nodecount 25 churntomo.test profiles/after.cpu.pb.gz >profiles/after.cpu.top.txt
	$(GO) tool pprof -top -nodecount 25 -sample_index=alloc_objects churntomo.test profiles/after.mem.pb.gz >profiles/after.mem.top.txt
	rm -f churntomo.test
	@echo "profile: wrote profiles/after.{cpu,mem}.pb.gz and -top digests" >&2

# Short fuzz pass over every fuzz target — the dataset codec round trip,
# the hand-written record reader against encoding/json, Decode on
# arbitrary bytes and its pipeline against the serial line loop, the
# one-pass churn summary against its reference, the
# evaluation kernel, routing Views (fresh and repaired trees) against
# ComputeTree, blockpage matching against one regexp per signature, TCP
# reassembly against the first-arrival []bool loop, the closed-form
# classifier and model count against SAT search on the CNF that
# tomo.CNFOf writes out, the cell-based build (and Build's clauses) against
# the string-keyed reference grouping, and the incremental engine against
# batch rebuilds — each with the FUZZTIME budget.
# `make fuzz FUZZTIME=5m` for a real hunt.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSolve -fuzztime $(FUZZTIME) ./internal/tomo
	$(GO) test -run '^$$' -fuzz FuzzBuildMatchesReference -fuzztime $(FUZZTIME) ./internal/tomo
	$(GO) test -run '^$$' -fuzz FuzzIncrementalVsBatch -fuzztime $(FUZZTIME) ./internal/tomo
	$(GO) test -run '^$$' -fuzz FuzzDatasetRoundTrip -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run '^$$' -fuzz FuzzParseWire -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run '^$$' -fuzz FuzzDatasetDecode -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run '^$$' -fuzz FuzzMeasure -fuzztime $(FUZZTIME) ./internal/churn
	$(GO) test -run '^$$' -fuzz FuzzEvaluate -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzViewTrees -fuzztime $(FUZZTIME) ./internal/routing
	$(GO) test -run '^$$' -fuzz FuzzFingerprintMatch -fuzztime $(FUZZTIME) ./internal/blockpage
	$(GO) test -run '^$$' -fuzz FuzzReassemble -fuzztime $(FUZZTIME) ./internal/httpsim

# Seed-corpus-only fuzz smoke for CI: replays every fuzz target's seed
# corpus as ordinary tests, so a target that rots fails fast without
# paying for wall-clock fuzzing.
fuzz-smoke:
	$(GO) test -count 1 -run '^Fuzz' ./internal/tomo ./internal/dataset ./internal/churn ./internal/routing ./internal/blockpage ./internal/httpsim .

clean:
	$(GO) clean ./...
