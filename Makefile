GO ?= go

.PHONY: all build test race vet vet-compass staticcheck fmt check bench fuzz-smoke bench-sweep bench-core chaos-smoke

all: check

build:
	$(GO) build ./...

# Every test invocation pins -timeout: a livelocked simulation must fail
# the suite in bounded time, not hang a CI job until the runner is killed.
test:
	$(GO) test -timeout 10m ./...

# Short-mode race pass: catches frontend/backend rendezvous races without
# the full-length workloads. The second line runs the experiment-engine
# e2e tests (parallel fan-out, shared snapshot restore, seed campaigns,
# determinism) at full length under the detector — the expt layer's
# correctness IS its concurrency, so it never rides the -short discount.
race:
	$(GO) test -race -short -timeout 10m ./...
	$(GO) test -race -timeout 10m ./internal/expt
	$(GO) test -race -timeout 10m -run 'TestDeterminism|TestFaults|TestWarmBatchSweep|TestGuarded|TestAutoCkpt|TestChaosBlock|TestTPCCNUMAAgentsRaceFree' .

# Fuzz smoke: 10 seconds per native fuzz target over the committed
# corpora (go test -fuzz takes one target per invocation).
fuzz-smoke:
	$(GO) test -fuzz FuzzParseSpec -fuzztime 10s -timeout 10m ./internal/fault
	$(GO) test -fuzz FuzzReadInfo -fuzztime 10s -timeout 10m ./internal/checkpoint
	$(GO) test -fuzz FuzzParseSpec -fuzztime 10s -timeout 10m ./internal/loadgen
	$(GO) test -run FuzzParseChaosSpec -fuzz FuzzParseChaosSpec -fuzztime 10s -timeout 10m .

# End-to-end failure containment through the CLI: injected panic,
# quarantine table, bundle replay via -repro, induced deadlock.
chaos-smoke:
	sh scripts/chaos_smoke.sh

# Serial-vs-parallel sweep benchmark; emits the machine-readable record
# the CI uploads as an artifact.
bench-sweep:
	$(GO) run ./cmd/compassrun -sweepbench BENCH_sweep.json -parallel 0

# Single-run engine throughput: heap-vs-calendar dispatch microbenchmark
# plus end-to-end sim-cycles/sec (with allocs/event and events/sec gates)
# for TPCC, SPECWeb, TPC-D and the three-tier workload.
bench-core:
	$(GO) run ./cmd/compassrun -corebench BENCH_core.json

vet:
	$(GO) vet ./...

# The determinism/snapshot/allocation invariant suite (see DESIGN.md §11
# and §14). Fails on any finding not recorded in compassvet.baseline.json,
# and on baseline entries that no longer match anything (-fail-stale),
# so the debt ledger can only shrink.
vet-compass:
	$(GO) run ./cmd/compassvet -fail-stale ./...

# staticcheck is optional tooling: run it when installed (CI installs
# it), skip quietly on machines that don't have it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The tier-1 gate: formatting, vet, the invariant analyzers, full
# tests, then the race pass.
check: fmt vet vet-compass staticcheck test race

bench:
	$(GO) test -bench . -benchtime 1x ./...
