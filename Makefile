GO ?= go

.PHONY: all build test race race-serve vet fmt lint fmt-check staticcheck fuzz-smoke alloc-budget soak soak-ivm soak-certify soak-recover soak-fragment serve loadtest smoke-serve smoke-trace smoke-restart smoke-cluster smoke-fragment bench-cluster test-bench bench-contract bench-unit ci bench clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-serve focuses the race detector on the packages the serving
# daemon stresses concurrently (what CI runs on every push via `race`;
# this target is the quick local loop).
race-serve:
	$(GO) test -race -count=1 ./internal/serve ./internal/mediator ./internal/remote

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# lint runs the aiglint diagnostic engine over the example specs;
# any Error-severity diagnostic (exit 1) fails the target.
lint:
	$(GO) run ./cmd/aiglint examples

# fmt-check verifies the checked-in canonical spec fixtures are in
# aigspec.Format's canonical form.
fmt-check:
	$(GO) run ./cmd/aigfmt -l internal/aigspec/testdata

# staticcheck is pinned by version and fetched on demand, so it runs in
# CI without being a module dependency. Needs network access.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1 ./...

# fuzz-smoke gives each fuzz target a short budget; regressions in the
# parsers' invariants (and the remote delta wire format) surface as
# crashes, the XML encoder must byte-match the fmt-based reference,
# tuple keys must be equal exactly when the tuples are, and a row parsed
# from outside text must render back to itself. CI runs this target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/aigspec
	$(GO) test -run '^$$' -fuzz FuzzParseGeneral -fuzztime 10s ./internal/dtd
	$(GO) test -run '^$$' -fuzz FuzzChangeSetWire -fuzztime 10s ./internal/remote
	$(GO) test -run '^$$' -fuzz FuzzSubscribeWire -fuzztime 10s ./internal/remote
	$(GO) test -run '^$$' -fuzz FuzzConstraintParse$$ -fuzztime 10s ./internal/xconstraint
	$(GO) test -run '^$$' -fuzz FuzzPathParse -fuzztime 10s ./internal/xpath
	$(GO) test -run '^$$' -fuzz FuzzWriteIndented -fuzztime 10s ./internal/xmltree
	$(GO) test -run '^$$' -fuzz FuzzTupleKey -fuzztime 10s ./internal/relstore
	$(GO) test -run '^$$' -fuzz FuzzParseRow -fuzztime 10s ./internal/relstore

# soak runs the differential harness for a wall-clock budget, shrinking
# any divergence to a replayable {seed, config, ops} triple. CI runs it
# for 30s on push and 10m nightly.
soak:
	$(GO) run ./cmd/aigdiff -duration 30s -shrink

# soak-ivm cross-checks incremental view maintenance: random mutation
# sequences replayed through the change-log judge against from-scratch
# evaluation, with the truncation fallback exercised separately.
soak-ivm:
	$(GO) run ./cmd/aigdiff -ivm -n 300 -mutations 25 -shrink
	$(GO) run ./cmd/aigdiff -ivm -n 50 -mutations 15 -logcap -1 -shrink

# soak-certify is the certification soundness oracle: source constraints
# discovered per seeded instance are certified, then no must-hold
# verdict may be violated at runtime while its premises hold. Race-built
# because the acceptance bar is a race-enabled sweep.
soak-certify:
	$(GO) run -race ./cmd/aigdiff -certify -n 300 -mutations 25 -shrink

# soak-recover is the crash-recovery torture sweep: seeded mutation
# sequences journaled with snapshots at random points, then the WAL
# truncated at every byte offset of its tail record; each crash image is
# recovered and must match the pre-crash oracle exactly — tuples, table
# versions AND change logs. Race-built because the acceptance bar is a
# race-enabled sweep; divergences shrink to {seed, config, ops, offset}.
soak-recover:
	$(GO) run -race ./cmd/aigdiff -recover -n 200 -mutations 20 -snapevery 4 -shrink

# soak-fragment is the fragment serving oracle: random path expressions
# over seeded instances, the partial evaluator's fragment and the pruned
# mediator plan's compared byte-for-byte against the post-hoc path filter
# after every mutation, and the path-filtered dependency judge's
# Unaffected verdicts checked against the actual bytes. Race-built because the acceptance bar is a
# race-enabled sweep; divergences shrink to {seed, config, paths,
# mutations}.
soak-fragment:
	$(GO) run -race ./cmd/aigdiff -fragment -n 200 -mutations 15 -paths 3 -shrink

# serve boots the XML-view daemon on the built-in hospital catalog.
serve:
	$(GO) run ./cmd/aigd -demo -addr :8080

# loadtest drives a daemon started with `make serve` and refreshes the
# committed serving baseline.
loadtest:
	$(GO) run ./cmd/aigload -url http://localhost:8080 -view report \
		-param date=d1,d2,d3 -c 8 -n 5000 -json BENCH_serve.json

# smoke-serve boots aigd, drives it with aigload and requires zero
# errors plus observed cache hits; CI runs it on every push.
smoke-serve:
	./scripts/smoke_serve.sh

# smoke-trace exercises the flight recorder end to end: a race-built
# aigd with DB1 behind a race-built aigsource must serve a kept trace
# stitching daemon-side and remote-side spans, then warm-path throughput
# with the recorder on (sampling off) must stay within 5% of recorder-off.
smoke-trace:
	./scripts/smoke_trace.sh

# smoke-restart kills and restarts the whole deployment (a durable TCP
# aigsource plus aigd with -state-dir/-cache-dir): a warm restart must
# serve the first request from the restored cache without re-evaluating,
# and a mutation applied while everything was down must drop the stale
# entry and show up in the fresh document.
smoke-restart:
	./scripts/smoke_restart.sh

# smoke-cluster runs the fleet end to end, race-built: aigrouter over
# two delta-subscribed aigd replicas mirroring one aigsource. Killing a
# replica mid-load must cost zero client errors, and the restarted
# replica must catch up over the subscription stream (an offline origin
# mutation appears in its served document) and serve warm again.
smoke-cluster:
	./scripts/smoke_cluster.sh

# smoke-fragment exercises the XPath fragment layer end to end through
# aigrouter: a path=/report fragment must byte-equal the full document,
# a mutation outside a fragment's scans must leave its cache entry warm
# (delta restamp, identical bytes), and one inside must invalidate it.
smoke-fragment:
	./scripts/smoke_fragment.sh

# bench-cluster measures horizontal scaling through aigrouter: the same
# warm workload (plus a 50 writes/s origin mutation stream) against one
# replica vs four, each replica capped at a simulated service-time
# floor so the ratio is meaningful on any host. Refreshes the committed
# BENCH_cluster.json; fails below a 3x fleet speedup.
bench-cluster:
	./scripts/bench_cluster.sh

# test-bench vets and tests the benchmark module (bench/ has its own
# go.mod, so ./... above does not reach it): unit tests plus a one-second
# smoke of every workload on the tiny catalog, every response verified.
test-bench:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# bench-contract runs one workload of the repository benchmark
# (BENCHMARK.json) end to end: make bench-contract W=warm_hit. Add
# ARGS='-trace 1' for the per-layer table.
W ?= cold_full
bench-contract:
	$(GO) run -C bench . -workload $(W) $(ARGS)

# alloc-budget runs the mediator's (documents and the SSN fragment), the
# warm hit's and the executor's join allocation budgets, which are not
# built under -race and so never run in the race pass.
alloc-budget:
	$(GO) test -count=1 -run AllocBudget ./internal/mediator ./internal/serve ./internal/sqlmini

# bench-unit is the cold path's unit reproducer: 90 evaluations (three
# cycles of the 30 dates) of the served hospital view over bench250, so
# B/op and allocs/op repeat exactly from run to run, and as many cold
# fragments of each of the benchmark's paths without predicates (plans
# pruned to the path, matches streamed), then the executor's index probe
# (a one-row parameter table joined to a 10 k-row table) and its
# reference join (two 10 k-row tables, 10 k output rows).
bench-unit:
	$(GO) test -run '^$$' -bench 'EvaluateRecursive/bench250|Fragment' -benchtime 90x -cpu 2 -benchmem ./internal/mediator
	$(GO) test -run '^$$' -bench 'ParamJoin/one-row|HashJoin/rows=10000' -benchtime 1000x -cpu 2 -benchmem ./internal/sqlmini

# ci is what .github/workflows/ci.yml runs (plus staticcheck, which CI
# fetches pinned), minus bench-cluster, which the workflow still runs
# until the benchmark has a cluster workload. Performance claims cite
# bench-contract.
ci: vet build race alloc-budget test-bench lint fmt-check fuzz-smoke soak soak-ivm soak-certify soak-recover soak-fragment smoke-serve smoke-trace smoke-restart smoke-cluster smoke-fragment

bench:
	$(GO) test -bench . -benchmem -run '^$$'

clean:
	$(GO) clean ./...
	rm -f BENCH_1.json
