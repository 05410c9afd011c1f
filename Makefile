GO ?= go

.PHONY: verify gatecheck fmt vet build test race bench perf fuzz faults stream trace sched kernels cross service vldsplit deadline

verify: gatecheck fmt vet build race bench stream trace sched kernels cross service vldsplit deadline ## full CI gate: -run selection check + gofmt + vet + build + race tests + bench smoke + streaming race + traced decode + scheduler gate + kernel matrix + cross-compile + service gate + split-decode gate + deadline gate

# Formatting gate: every tracked Go file must be gofmt-clean.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
		if [ -n "$$out" ]; then echo "fmt: gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

# Gate-selection check: every alternative of every -run pattern in this
# Makefile and in CI must match at least one test in the packages its
# command names — a renamed or deleted test must not silently empty the
# gate that pinned it (go test passes a -run that selects nothing).
gatecheck:
	$(GO) run ./tools/gatecheck Makefile .github/workflows/ci.yml

# Kernel-dispatch gate: the tier-equivalence matrix (each equivalence
# test internally sweeps scalar/SWAR/asm against the scalar oracle), the
# same matrix under the race detector with the asm tier force-disabled
# (the race runtime cannot see into assembly, so race coverage comes from
# the pure-Go tiers), golden bit-exactness with every forced tier, and
# the per-kernel micro-benchmarks.
kernels:
	$(GO) test -run 'TierEquivalence|AsmEquivalence|Extremes|TestParseLevel|TestSetClampsUnsupported|TestRegisterAppliesImmediately|TestDescribe|TestSupportedMatchesDetection|TestStoreBlock|TestPaddedLayoutGolden|TestAffinity|TestPickTask' ./internal/kernels/ ./internal/motion/ ./internal/dct/ ./internal/decoder/ ./internal/core/
	MPEG2_KERNELS=scalar $(GO) test -race -run 'TierEquivalence|AsmEquivalence|Golden|MatchesSequential' ./internal/kernels/ ./internal/motion/ ./internal/dct/ ./internal/decoder/ ./internal/core/
	MPEG2_KERNELS=swar $(GO) test -race -run 'TierEquivalence|AsmEquivalence|Golden|MatchesSequential' ./internal/kernels/ ./internal/motion/ ./internal/dct/ ./internal/decoder/ ./internal/core/
	$(GO) test -run=NONE -bench 'PredictBlock|AverageMB|StoreBlock|InverseTiers' -benchtime=10x ./internal/motion/ ./internal/dct/ ./internal/decoder/

# Cross-compile + per-arch vet gate: both SIMD targets must build and
# their assembly must pass vet's asmdecl checks even when developing on
# the other architecture.
cross:
	GOOS=linux GOARCH=amd64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=amd64 $(GO) vet ./internal/kernels/ ./internal/motion/ ./internal/dct/ ./internal/decoder/
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/kernels/ ./internal/motion/ ./internal/dct/ ./internal/decoder/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Streaming pipeline under the race detector: chunk-boundary scans,
# backpressure, cancellation teardown, and the public Decode API.
stream:
	$(GO) test -race ./internal/stream/ .

# Observability gate: traced decodes under the race detector (bit
# exactness in every mode, event presence, exported Chrome JSON
# validated: well-formed, monotonic timestamps, balanced span counts),
# plus a real traced run through the CLI report path.
trace:
	$(GO) test -race -run 'TestTraced|TestChromeTrace|TestValidateChromeTrace|TestWithTrace|TestWithEventSink' ./internal/obs/ .
	$(GO) run ./cmd/mpeg2bench -timeline -trace /tmp/mpeg2par-trace.json > /dev/null

# Adaptive-scheduler gate: cost model, LPT packing and auto-tune policy
# units plus ordering-invariance under the race detector, and the
# LPT-vs-FIFO imbalance smoke (profiled costs replayed in the simulator).
sched:
	$(GO) test -race ./internal/sched/
	$(GO) test -race -run 'TestPack|TestModeAuto|TestSliceBytes|TestStreamingPacking|TestStreamingAutoTune|TestScanReaderSliceBytes|TestWithAutoTune|TestWithPacking' ./internal/core/ ./internal/stream/ .
	$(GO) test -run TestSchedCompareSmoke -v ./internal/bench/

# Multi-stream service gate: the 64-stream overload smoke (zero wedged
# streams, zero leaks, fairness, per-stream obs lanes validated as
# Chrome trace) and the overload-teardown suite under the race
# detector, plus a real load-harness run through the CLI.
service:
	$(GO) test -race -count=1 -run 'TestLoadSmoke|TestCancelMidDegradation|TestWatchdogWedgedStream|TestPauseLadderAndResume|TestAutoDegradeNoStarvationAtTopRung|TestServerCloseTeardown' ./internal/server/
	$(GO) test -race -count=1 -run 'TestServiceAPI|TestServiceForcedDegradation' .
	$(GO) run ./cmd/mpeg2load -streams 64 > /dev/null

# Intra-slice split-decode gate: indexed and speculative splits must be
# bit-exact with the sequential oracle in every mode and policy (clean,
# faulted, and poisoned-index streams) under the race detector, the
# public index API must round-trip, and the experiment must show the
# split actually parallelizes a one-slice-per-picture stream.
vldsplit:
	$(GO) test -race -count=1 -run 'TestSplitIndexedBitExact|TestSpeculativeSplitNoDivergence|TestPoisonedIndexFallsBack|TestSplitFaultedGolden|TestErrBadOption' ./internal/core/
	$(GO) test -race -count=1 -run 'TestWithIndexStreaming|TestWithSpeculativeSplitStreaming|TestErrBadOptionPublic' .
	$(GO) test -count=1 ./internal/vldsplit/
	$(GO) test -count=1 -run TestVLDSplitExperiment -v ./internal/bench/

# Deadline-aware dispatch gate: EDF ordering and slack-classification
# units, the cost-model cold-start regressions, the miss/shed
# disjointness and teardown-accounting tests, the assist and EDF
# bit-exactness goldens (all under the race detector), and the
# scaled-down fair-vs-EDF study smoke.
deadline:
	$(GO) test -race -count=1 -run 'TestParseDispatch|TestEDFActive|TestClassifySlack|TestSlackHist|TestPickEDFOrdering|TestQueueDelayEffectiveWorkers|TestAccountUndelivered|TestDemandFor|TestSlackShedDisjointFromMisses|TestUndeliveredMissesCountedOnCancel|TestEDFBitExactCleanAndFaulted|TestEDFNoStarvationAtTopRung|TestAssistOnTightSlack' ./internal/server/
	$(GO) test -race -count=1 -run 'TestCostModelColdStart|TestChooseReasonGatedOnCalibration' ./internal/sched/
	$(GO) test -race -count=1 -run 'TestAssistIndexedBitExact|TestAssistSpeculativeBitExact|TestAssistPoisonedIndexFallsBack|TestAssistFaultedGolden' ./internal/core/
	$(GO) test -count=1 -run TestDeadlineExperimentSmoke -v ./internal/bench/

# Append a perf-trajectory run to the current BENCH_<n>.json.
perf:
	$(GO) run ./cmd/mpeg2bench -perf -label $(or $(LABEL),local)

# Short corpus-seeded fuzz runs over the scan and the resilient decoder.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzFindStartCode -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzScan -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzResilientDecode -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzSpeculativeSplit -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/decoder
	$(GO) test -run=NONE -fuzz=FuzzStreamScan -fuzztime=$(FUZZTIME) ./internal/stream

# Corruption sweep: PSNR vs loss rate under each resilience policy.
faults:
	$(GO) run ./cmd/mpeg2bench -faults
