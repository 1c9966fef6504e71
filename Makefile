# Development targets. `make check` is the pre-PR gate.

GOFILES := $(shell find . -name '*.go' -not -path './.git/*')

.PHONY: check fmt vet build test race lint bench bench-json bench-smoke experiments scale-smoke race-soak cache-smoke

check: fmt vet lint build race experiments bench-smoke scale-smoke cache-smoke

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

test:
	go test ./...

race:
	go test -race ./...

bench:
	go test -bench . -benchtime 1x ./...

# Full kernel-vs-reference benchmark report (events/sec, ns/event,
# allocs/event, E-suite wall time). Compare runs
# across commits with cmd/benchcmp to catch hot-path regressions.
# BENCH_sim.json is a committed baseline: refuse to overwrite it from a
# dirty tree (the result would mix measured code with unrecorded edits)
# unless FORCE=1.
bench-json:
ifneq ($(FORCE),1)
	@if ! git diff --quiet HEAD -- . 2> /dev/null; then \
		echo "bench-json: working tree is dirty; a baseline must be measured from a commit."; \
		echo "  commit your changes, or override with: make bench-json FORCE=1"; \
		exit 1; \
	fi
endif
	go run ./cmd/simbench -out BENCH_sim.json

# One-round smoke of the same harness so `make check` notices when a
# kernel workload breaks or starts allocating (analogous to -benchtime 1x).
bench-smoke:
	go run ./cmd/simbench -quick -out /dev/null 2> /dev/null

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

# Result-cache smoke: the same quick ecobench run twice against one
# content-addressed cache directory must be byte-identical — the second
# run is served from the store instead of simulating. CI's warm-cache
# lane runs the full E-suite version with a speedup assertion.
cache-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	go run ./cmd/ecobench -quick -parallel 0 -cache -cache-dir "$$tmp/cas" > "$$tmp/cold.txt" || exit 1; \
	go run ./cmd/ecobench -quick -parallel 0 -cache -cache-dir "$$tmp/cas" > "$$tmp/warm.txt" || exit 1; \
	cmp "$$tmp/cold.txt" "$$tmp/warm.txt" && \
	echo "cache-smoke: warm ecobench byte-identical to cold"

# Longer -race pass: soak + determinism property sweeps with the race
# detector on, for CI's slow lane.
race-soak:
	go test -race -run 'TestSoak|TestKernelDeterminism|TestScaleSmoke' -count 2 ./...
