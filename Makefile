# Developer entry points. `make check` is the tier-1 gate; `make race` runs
# the packages that start goroutines under the race detector: the
# experiment engine's -j workers with its determinism tests, the full
# distributed suite (bundled leases, mid-bundle reassignment, TLS/token
# auth, quorum voting, chaos fault injection, fleet supervision), so
# coordinator and worker locking is exercised under contention on every
# run, and the memory drain's concurrent-executor invariance test. The
# simulation itself (core, timing, stats) is one serial loop; it stays in
# the list because the engines above drive it from many goroutines.
# `make fuzz` gives the wire codec a short coverage-guided beating.

GO ?= go

.PHONY: check fmt vet build test race fuzz bench bench-sweep

check: fmt vet build test

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/exp/... ./internal/dist/... ./internal/chaos/... \
		./internal/fleet/... ./internal/core/... ./internal/timing/... \
		./internal/mem/... ./internal/stats/... ./cmd/...

# fuzz runs the journal/distributed-result codec fuzzer for a bounded time
# (FUZZTIME to taste); CI runs the same thing for 10s on every push.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzWireResult -fuzztime $(FUZZTIME) -run '^$$' ./internal/exp

# bench measures simulator throughput on the serial hot path — MD
# (latency-bound) and memory-bound ArrayBW, both with zero run options —
# and archives the rows as JSON for cross-commit comparison.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatorThroughput(MemBound)?$$' -benchtime 10x -benchmem . \
		| $(GO) run ./cmd/ilsim-benchjson -out BENCH_PR10.json
	@cat BENCH_PR10.json

# bench-sweep measures experiment-engine scheduling overhead.
bench-sweep:
	$(GO) test -bench 'BenchmarkSweep(Serial|Parallel)' -benchtime 3x .
