# Development targets. `make check` is the pre-PR gate.

GOFILES := $(shell find . -name '*.go' -not -path './.git/*')

.PHONY: check fmt vet build inline-check test race lint bench bench-smoke bench-golden experiments scale-smoke race-soak fuzz reach

check: fmt vet lint build inline-check race experiments bench-smoke bench-golden scale-smoke

fmt:
	@out=$$(gofmt -l $(GOFILES)); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

# go vet always runs; staticcheck runs when it is on PATH (CI's lint lane
# installs it; locally: go install honnef.co/go/tools/cmd/staticcheck@latest).
lint: vet
	@if command -v staticcheck > /dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not on PATH; ran go vet only"; \
	fi

build:
	go build ./...

# (*Engine).push must stay small enough to inline into every schedule: a
# wider heap entry once stopped that and slowed every event. Fails when the
# compiler no longer reports it inlinable (docs/perf.md, "Delay lanes and
# the heap of lane heads").
inline-check:
	@go build -gcflags=-m ./internal/sim 2>&1 | grep -q 'can inline (\*Engine).push' || \
		{ echo "inline-check: (*Engine).push no longer inlines"; exit 1; }

test:
	go test ./...

race:
	go test -race ./...

bench:
	go test -bench . -benchtime 1x ./...

# Event-kernel speedup gate: times the production kernel against the
# frozen heapref reference on the same shapes, in the same run, and fails
# when a ratio drops below its floor (see internal/sim/bench_test.go).
# The zero-alloc half of the kernel contract is TestKernelZeroAlloc,
# which runs with the ordinary tests.
bench-smoke:
	go test -run '^$$' -bench '^BenchmarkKernelSpeedup$$' -benchtime 1x ./internal/sim

# The benchmark module's own tests, where bench/golden.json pins every
# workload's simulated makespans and counters. bench/ is a Go module of
# its own, so `go test ./...` at the root never reaches it.
bench-golden:
	cd bench && go test ./...

# Smoke-run ecobench over a fast subset through the parallel runner,
# exercising the pool, per-point timeouts and multi-ID selection; the
# second run smokes the R-series resilience suite on trimmed sweeps.
experiments:
	go run ./cmd/ecobench -run E2,E3,E4,E10,A1 -parallel 0 -timeout 60s > /dev/null
	go run ./cmd/ecobench -run R -quick -parallel 0 -timeout 60s > /dev/null

# Flyweight weak-scaling gate: one 131k-worker machine must construct
# and serve a sparse burst under a hard heap budget.
scale-smoke:
	go test -run TestScaleSmoke100k -v .

# Longer -race pass: soak + determinism property sweeps with the race
# detector on, for CI's slow lane.
race-soak:
	go test -race -run 'TestSoak|TestKernelDeterminism|TestScaleSmoke|TestParallelMatchesSequential|TestSharedItems' -count 2 ./...

# Short fuzzing pass over the user-input surfaces: kernel source (the HLS
# parser, synthesizer and interpreter), machine configs and fault plans;
# and over the NoC's link queues against their frozen sim.Resource
# reference. Each target runs for a fixed time; the seed corpora alone
# already run under `go test ./...`. Kept out of `check`, which must stay
# fast.
fuzz:
	go test ./internal/hls -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 15s
	go test ./internal/hls -run '^$$' -fuzz '^FuzzRun$$' -fuzztime 15s
	go test ./internal/core -run '^$$' -fuzz '^FuzzConfigValidate$$' -fuzztime 15s
	go test ./internal/fault -run '^$$' -fuzz '^FuzzPlan$$' -fuzztime 15s
	go test ./internal/noc -run '^$$' -fuzz '^FuzzLinkQueue$$' -fuzztime 15s

# Reach report: which functions do the deliverables never run? Builds
# ecobench, ecosim, ecohls and the benchmark binary with coverage over
# every package, then runs every table (and E1 again with -csv), the
# three TestEcosimGolden command lines, one ecosim run with -diagram
# -sharing shared-cn -policy hw (16 accelerator calls, 12 of them to
# another Worker of the Compute Node), ecohls -dse and -emit on every
# built-in kernel, the four workloads at --seconds 0 and one traced pgas
# run (the per-layer probes), and prints each function at 0%.
# Binaries, coverage data and run outputs go to a throwaway directory,
# so nothing is written inside the checkout. Not part of check.
reach:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/cov" "$$tmp/run"; export GOCOVERDIR="$$tmp/cov"; \
	for c in ecobench ecosim ecohls; do \
		go build -cover -coverpkg=./... -o "$$tmp/$$c" ./cmd/$$c; \
	done; \
	go -C bench build -buildvcs=false -cover -coverpkg=ecoscale/... -o "$$tmp/bench" .; \
	cd "$$tmp/run"; \
	"$$tmp/ecobench" > /dev/null; \
	"$$tmp/ecobench" -run E1 -csv > /dev/null; \
	fir="-nodes 4 -workers 8 -tasks 2000 -kernel fir"; \
	for args in "$$fir -flowtrace -flowcap 200" \
		"$$fir -fault-mtbf 200us -fault-region-mtbf 300us -fault-link-mtbf 100us -ckpt-interval 50us -profile -flowtrace -flowcap 200" \
		"-sharing private -balance polling -skew"; do \
		"$$tmp/ecosim" $$args -trace t.json -metrics m.prom -metrics-json m.json > /dev/null; \
	done; \
	"$$tmp/ecosim" -diagram -sharing shared-cn -policy hw > /dev/null; \
	for k in $$("$$tmp/ecohls" -list); do \
		"$$tmp/ecohls" -kernel $$k -dse > /dev/null; \
		"$$tmp/ecohls" -kernel $$k -emit > /dev/null; \
	done; \
	for w in tables stream dispatch pgas; do \
		"$$tmp/bench" --workload $$w --seconds 0 > /dev/null 2>&1; \
	done; \
	"$$tmp/bench" --workload pgas --seconds 0 --trace 1 --trace-dir "$$tmp/trace" > /dev/null 2>&1; \
	go tool covdata func -i="$$GOCOVERDIR" | awk '$$NF == "0.0%" { print; n++ } END { print n+0, "functions at 0%" }'
