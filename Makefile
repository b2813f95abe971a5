# Convenience targets; everything is plain go-tool underneath.

GO ?= go

.PHONY: all build test vet fmt-check check lint-maps bench bench-all bench-ring bench-sched experiments examples clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Source-formatting gate: gofmt must have nothing to rewrite.
fmt-check:
	@out="$$(gofmt -l cmd internal examples)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Tier-1 verification: vet plus the full suite under the race detector
# — which exercises the watchdog/monitor task interplay, the sharded
# runtime's parallel epoch paths (shards run on real OS threads; the
# run-twice property tests execute under -race here) and the golden
# check of every committed BENCH_*.json (internal/bench TestArtifacts)
# — then the wall-clock benchmark's own tests (its reply oracle and
# traced-vs-untraced fingerprint equality exercise sim, mve and dsl
# from outside) and one iteration of the ring, scheduler and recorder
# microbenchmarks.
check: vet fmt-check lint-maps
	$(GO) test -race ./...
	cd wallbench && $(GO) test ./...
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/ringbuf/... ./internal/sim/ ./internal/obs/

# Map-iteration determinism sweep: flag `for range` over maps in the
# determinism-critical packages unless the site carries a `maporder:`
# comment explaining why its order cannot leak into execution.
lint-maps:
	$(GO) test -run TestMapRangeDeterminism ./internal/detlint/

# Regenerate every committed BENCH_*.json artifact from the experiment
# table in internal/bench/catalog.go.
bench-all:
	$(GO) test ./internal/bench -run TestArtifacts -update

# Ring microbenchmarks with allocation accounting (docs/PERFORMANCE.md).
bench-ring:
	$(GO) test -bench . -benchmem ./internal/ringbuf/

# Scheduler hot-path microbenchmarks: dispatch, enqueue, timer fire,
# plus the sharded epoch barrier and cross-shard send
# (docs/PERFORMANCE.md "Sharded runtime").
bench-sched:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/sim/

# One testing.B bench per paper table/figure, plus ablations.
bench:
	$(GO) test -bench=. -benchmem .

# Regenerate the paper's evaluation artifacts (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/benchtool -experiment all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/kvupdate
	$(GO) run ./examples/faulttolerance
	$(GO) run ./examples/ftprules

clean:
	$(GO) clean -testcache
