GO ?= go
BIN_DIR := bin

.PHONY: all build test race trace-smoke server-smoke server-race verify bench bench-workers bench-fft bench-fft-smoke bench-compare bench-e2e vet cross lint check

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 concurrency lane: the full suite under the race detector. The
# parallel SOCS loops, the plan cache, the fullchip tile pool and the
# FFT-engine equivalence tests (batch vs dense reference on the same
# spectrum: tolerance 0, except the gradient above its grid L, which runs
# on the L grid and is held within 1e-12 relative) all run here — new
# equivalence tests hook in by living in the suite.
race:
	$(GO) test -race ./...

# Observability lane (runs alongside race): one small end-to-end iltopt
# run of the exact recipe with tracing on, then one tracestat run: it
# checks the JSONL schema and reads the run manifest, writes the analytics
# report into artifacts/, and fails when the phase timers cover less than
# 80% or more than 125% of the run's wall time. The report is printed after
# tracestat exits and the lane keeps tracestat's exit status (a pipe into
# tee would drop it).
trace-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/iltopt -case 1 -n 256 -field 1024 -kernels 12 -iterdiv 10 \
		-recipe exact -trace artifacts/trace_smoke.jsonl -progress \
		-manifest artifacts/trace_smoke_manifest.json
	$(GO) run ./cmd/tracestat -manifest artifacts/trace_smoke_manifest.json \
		artifacts/trace_smoke.jsonl > artifacts/trace_smoke_report.txt; \
		status=$$?; cat artifacts/trace_smoke_report.txt; exit $$status

# Serving lane, part 1: the iltserver self-contained smoke flow — boot the
# daemon on an ephemeral port, submit one small job over real HTTP, stream
# its SSE progress to completion, check the result, /healthz and /metrics,
# then drain. No external tools (curl, jq) needed.
server-smoke:
	$(GO) run ./cmd/iltserver -smoke

# Serving lane, part 2: the server package under the race detector — the
# soak test (concurrent jobs, bit-identical results, bounded heap, no
# goroutine leaks), cancellation/drain, SSE golden stream and the fuzz seed
# corpus all run here.
server-race:
	$(GO) test -race -count=1 ./internal/server

# Claims lane: the paper's qualitative claims (mltables -exp verify) at
# the paper's 2048 nm field and 24 kernels on a 512-px grid, full budgets.
# mltables prints the claim table and exits 1 when any claim reads FAIL.
# About half a minute on a 2-CPU host; the check CI job runs it after
# make check.
verify:
	$(GO) run ./cmd/mltables -n 512 -field 2048 -kernels 24 -exp verify

vet:
	$(GO) vet ./...

# Cross-compile lane: vet and build the module for arm64, where the FFT's
# AVX butterfly kernel (internal/fft/stage4_amd64.s) does not exist, so the
# portable path — stage4Generic behind stage4_other.go — keeps compiling
# and vetting. On amd64, make vet runs asmdecl over the assembly.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...

# Static-analysis lane: the seven repo-specific analyzers (floatcmp,
# maporder, scratchalias, hotalloc, errcheck, gridres, leasepath) over
# every package, with no baseline — any finding fails. The binary is built
# once into bin/ (the go build cache makes rebuilds near-free) instead of
# paying `go run`'s link-and-copy on every invocation; on findings it exits
# 1 with per-rule counts. See README ("iltlint") and DESIGN.md ("Static
# analysis"). The ./... wildcard skips testdata, so the deliberately
# violating lint fixtures are not linted. Then gofmt fails the lane when it
# lists any Go file of internal (fixtures included), cmd, examples or the
# root package; .bench_build is not walked.
ILTLINT := $(BIN_DIR)/iltlint

$(ILTLINT): FORCE
	@mkdir -p $(BIN_DIR)
	$(GO) build -o $(ILTLINT) ./cmd/iltlint

FORCE:

lint: $(ILTLINT)
	$(ILTLINT) ./...
	test -z "$$(gofmt -l internal cmd examples *.go | tee /dev/stderr)"

# The pre-commit umbrella: everything a change must pass before review.
check: build vet cross lint test

bench:
	$(GO) test -bench . -benchmem ./...

# Workers sweep: times forward/gradient on a 512² clip at worker counts
# {1,2,4,8}, each point the fastest of five reps, and records the speedup
# curve (plus host CPU metadata) in BENCH_WORKERS.json.
bench-workers:
	$(GO) run ./cmd/benchgen -sweep -n 512 -field 2048 -kernels 24 -reps 5 \
		-workers 1,2,4,8 -json BENCH_WORKERS.json

# FFT-engine sweep: times the exact forward simulation and one gradient per
# FFT engine (the dense reference oracle and the fused, pruned batch) at
# workers=1 and records the speedups and exact butterfly counts in
# BENCH_FFT.json.
bench-fft:
	$(GO) run ./cmd/benchgen -fftsweep -sizes 256,512,1024,2048 -field 2048 \
		-kernels 24 -reps 3 -json BENCH_FFT.json

# CI smoke lane: a seconds-long sweep at tiny sizes that exercises both
# engines (the fused batch path and the reference), each column the fastest
# of five reps. The gate holds the batch engine's forward and gradient
# speedup over the reference, both timed in this same run, at 1.5× or more:
# host speed cancels out of the ratio, and a pruning or fusion path silently
# falling back to dense work reads about 1×. A slowdown of the reference, or
# of both engines alike, does not move the ratio; bench-compare's delta
# table still prints it, ungated. The butterfly counts are held exactly
# against the committed BENCH_FFT.smoke.json, so a dense fallback of the
# band mask spectrum, the pruned inverse or the adjoint fails even where
# the tiny sizes hide it in the wall clock. At 2048 nm the kernel support
# is P = 35, so the gradient runs on the field's grid at 64 and 128 px and
# on its 128-px grid L at 256 px.
bench-fft-smoke:
	$(GO) run ./cmd/benchgen -fftsweep -sizes 64,128,256 -field 2048 \
		-kernels 8 -reps 5 -json BENCH_FFT.smoke.new.json
	$(MAKE) bench-compare OLD=BENCH_FFT.smoke.json NEW=BENCH_FFT.smoke.new.json GATE=1.5

# End-to-end trajectory: the repository benchmark (iltbench/run.py, 35 s,
# one seed) on the fast and exact workloads, each with tracing off (the
# end-to-end metrics) and on (the per-layer metrics), recorded with the
# host block in BENCH_E2E.json. Takes about five minutes.
bench-e2e:
	$(GO) run ./cmd/benchgen -e2e -json BENCH_E2E.json

# Diff two bench-fft runs: OLD is the checked-in trajectory artifact, NEW a
# fresh run (make bench-fft with -json BENCH_FFT.new.json, or copy). Prints
# the per-size delta table of the two JSON reports. Set GATE=<x> to fail
# when NEW's batch forward or gradient speedup over the reference falls
# below x, or when any butterfly count grew from OLD.
OLD ?= BENCH_FFT.json
NEW ?= BENCH_FFT.new.json
GATE ?= 0
bench-compare:
	$(GO) run ./cmd/benchgen -compare -old $(OLD) -new $(NEW) -gate $(GATE)
