GO ?= go

.PHONY: all fmt vet build test test-float32 race test-fusion test-recovery test-gateway test-oracle test-nn bench benchmark fuzz-smoke check

all: check

# Formatting gate: gofmt must have nothing to rewrite.
fmt:
	@test -z "$$(gofmt -l .)" || { echo "make: gofmt -l lists:" >&2; gofmt -l . >&2; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 suite on the float32 fast path: the XPLACE_BACKEND env default
# re-runs every test on the reduced-precision backend without touching
# call sites (tests that pin exact float64 math set their backend
# explicitly, so they stay meaningful under the override).
test-float32:
	XPLACE_BACKEND=float32 $(GO) test ./...

race:
	$(GO) test -race ./...

# lane runs the tests of one package that a -run regex selects, and fails
# when any |-alternative of the regex names no test there: a test that was
# moved or renamed must not leave its lane green while running nothing.
# $(1) = extra go test flags, $(2) = regex, $(3) = package.
define lane
	@for alt in $(subst |, ,$(2)); do \
		$(GO) test $(1) -list "^$$alt" $(3) | grep -q '^Test' || \
		{ echo "make: -run alternative '$$alt' matches no test in $(3)" >&2; exit 1; }; \
	done
	$(GO) test $(1) -run '$(2)' -v $(3)
endef

# Operator-fusion gate: the bit-identity checks every launch fusion must
# pass, under the race detector — the golden trajectory's digests (and its
# launch column), the fused gradient assembly against the unfused one on
# several chunks and the per-op launch ledger of an iteration, the one-scatter
# density maps against the scatter-per-kind sequence at 1-4 workers, the
# Nesterov step fed steplength partials from outside against its own
# optim.dist launch, the block-staged WA/LSE net kernels and the standalone
# HPWL against the three-pass oracle at 1-3 workers, the two-part launch
# (wirelength beside the density scatter) against two sequential launches,
# with a panicking chunk contained at its barrier, and the spectral
# transforms' bits: every output of both plans against digests pinned before
# the column kernels replaced the transposes (64² to 512², rectangles,
# 1- and 2-long lines, at 1 and 3 workers), the line passes at 1-8 workers,
# and the Poisson solve at 1 and 2 workers.
test-fusion:
	$(call lane,-race,TestGoldenTrajectory,.)
	$(call lane,-race,TestLaunchPairMatchesTwoLaunches|TestLaunchPanicContained,./internal/kernel)
	$(call lane,-race,TestFusedAssemblyBitIdenticalToUnfused|TestIterationLaunchLedger,./internal/placer)
	$(call lane,-race,TestDensityMapsMatchesSequence|TestOperatorExtractionSavesScatterWork,./internal/field)
	$(call lane,-race,TestNesterovStepFusedMatchesStep,./internal/optim)
	$(call lane,-race,TestNetKernelsBitIdenticalToThreePassOracle,./internal/wirelength)
	$(call lane,-race,TestSpectralDigestsPinned|TestSpectralPassesBitIdenticalAcrossWorkers,./internal/dct)
	$(call lane,-race,TestSolvePoissonBitIdenticalAcrossWorkers,./internal/field)

# Durability gate: the job-store units (WAL replay, torn tail,
# checkpoint atomicity, cache), the scheduler recovery/cache/lifecycle
# suite, the HTTP contract suite (its drain case: event streams end with
# "draining", so a restart is never held hostage), and the process-level
# SIGKILL kill-and-restart test that pins bit-identical resumed
# trajectories — all under the race detector.
test-recovery:
	$(GO) test -race ./internal/jobstore ./internal/serve
	$(call lane,-race,TestContract,./internal/jobapi)
	$(call lane,-race,TestKillRestartRecovery|TestCachedSubmissionOverHTTP|TestSubmitValidation|TestDivergenceFallbackOverHTTP,./cmd/xserve)

# Gateway gate: the ring/health/breaker/failover/overload unit suite on
# fake workers, the HTTP contract suite against a gateway-backed and a
# scheduler-backed mux, then the process-level chaos test — three real xserve
# workers behind the gateway, one SIGKILLed mid-trajectory, every job
# finishing under its original ID with finals bit-identical to an
# undisturbed reference run — all under the race detector.
test-gateway:
	$(GO) test -race ./internal/gateway
	$(call lane,-race,TestContract,./internal/jobapi)
	$(call lane,-race,TestChaosKillWorkerMidTrajectory,./cmd/xgate)

# Cross-strategy quality oracle: two structurally independent placers
# (Nesterov gradient flow vs LB/UB alternation) must agree on scaled
# adaptec1 within the checked-in band, the LB/UB side must be bit-identical
# run to run, and a diverging job must be rescued end-to-end by the
# serve-level lbub fallback.
test-oracle:
	$(call lane,,TestOracle|TestLBUB|TestNesterovDiverges,./internal/placer)
	$(call lane,,TestDivergenceFallbackOverHTTP|TestLBUBJobOverHTTP|TestStrategyInCacheKey,./cmd/xserve)

# Neural-field lane (§3.3 end to end, in-CI): the model-artifact
# integrity suite (versioned header, sha256, shape checks, the parent
# layout), a tiny FNO trained in-process with its training-MSE gate, the
# planned transform against the full-FFT oracle and — under the race
# detector — the allocation and shared-predictor gates, the σ(ω) handoff /
# determinism / blended-quality placement tests and the grid check, the
# facade's model loading and per-run predictor, the xplace CLI's -model /
# -strategy / -mode paths on a built binary, and the serving side —
# registry, model-aware submit, four concurrent jobs on one shared model
# with no lock between them, an undersized grid failing its job and not
# the daemon — under the race detector.
test-nn:
	$(call lane,,TestArtifact|TestLoadRejects|TestGenerateBenchSamples|TestTrainingReducesLoss|TestGeneralizesToUnseenMaps|TestSaveLoadRoundTrip,./internal/nn)
	$(call lane,-race,TestPlannedMatchesFullFFT|TestTruncatedDFTMatchesDefinition|TestParentArtifactLoadsAndPredicts|TestPredictFieldAllocFree|TestPredictorConcurrentUse|TestPredictorCheckGrid,./internal/nn)
	$(call lane,,TestNNBlend|TestNNGridTooSmallForModel,./internal/placer)
	$(call lane,,TestSessionWithFieldModel|TestLoadModelTypedErrors|TestStatModelFacade,.)
	$(call lane,,TestStrategyFlagUnknown|TestModelFlagMissingFile|TestNNModeRequiresModel|TestModelFlagChangesGP,./cmd/xplace)
	$(call lane,-race,TestModelRegistry|TestSubmitRejectsUnknownModel|TestSharedModelAcrossJobs|TestModelGridTooSmallFailsJob,./internal/serve)
	$(call lane,-race,TestSubmitModelValidation|TestModelJobOverHTTP,./cmd/xserve)

# Short fuzz pass over the byte-level trust boundaries — the file-format
# parsers, the wire job request, the wire job status a gateway decodes
# from every worker, and the job-store WAL a restart replays: each target
# gets a few seconds on top of its seed corpus. Catches parser panics
# (negative or non-finite geometry, truncated streams), canonicalization
# drift (non-idempotent normalization, cache keys that alias two
# placements), a status that decodes but does not re-encode to itself, and
# a torn or bit-flipped WAL that replays to anything but the fold of its
# decodable lines before they ship.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -fuzz=FuzzRead -fuzztime=$(FUZZTIME) ./internal/bookshelf
	$(GO) test -fuzz=FuzzParseLEF -fuzztime=$(FUZZTIME) ./internal/lefdef
	$(GO) test -fuzz=FuzzParseDEF -fuzztime=$(FUZZTIME) ./internal/lefdef
	$(GO) test -run '^$$' -fuzz=FuzzRequestCanonical -fuzztime=$(FUZZTIME) ./internal/jobapi
	$(GO) test -run '^$$' -fuzz=FuzzStatusDecode -fuzztime=$(FUZZTIME) ./internal/jobapi
	$(GO) test -run '^$$' -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) ./internal/jobstore

# Kernel-substrate, transform, field-model and hot-operator microbenchmarks
# (pool vs goroutine-spawn dispatch, DCT round trips, the batched field
# evaluation with and without psi at the gp-small and gp-spectral grids,
# one warm Poisson solve at 64..512 on 1 and 2 workers (the table the
# line-pass fan-out threshold rests on), one warm PredictField at the
# gp-nn shape and at paper scale, density scatter/gather and the fused wirelength
# operator at the gp-small and gp-cells shapes, one detailed-placement pass
# on a 1000-cell row design, the placer's design augmentation —
# WithFillers — at the gp-cells shape). Allocation columns are the
# regression signal: pooled launches, warm transforms, warm inference and the
# per-iteration operators must report 0 allocs/op; detail.Run allocates per
# cell and net, not per swap candidate.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./internal/kernel ./internal/dct ./internal/nn ./internal/field ./internal/wirelength ./internal/detail ./internal/netlist

# The repo benchmark (BENCHMARK.json), the one way to measure: six
# workloads, client-observed and per-layer metrics; `go run ./benchmark
# --workload serve-open` runs one.
benchmark:
	$(GO) run ./benchmark

check: fmt vet build race
