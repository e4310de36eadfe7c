GO ?= go

.PHONY: all build test race race-serve vet fmt lint fmt-check staticcheck fuzz-smoke alloc-budget soak soak-ivm soak-certify soak-recover soak-fragment serve integration test-bench bench-contract bench-unit loc ci bench clean

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

# vet also vets the benchmark module (bench/ has its own go.mod), which
# imports root packages: deleting a name it still uses fails here.
vet:
	$(GO) vet ./...
	$(GO) vet -tags integration ./...
	$(GO) vet -C bench ./...

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
# crashes, every constraint parsed from multi-line text must carry a
# position inside that text, the XML encoder must byte-match the fmt-based
# reference, tuple keys must be equal exactly when the tuples are,
# tuples equal on a projection must hash equal on it, the row index
# must find exactly the rows a Value.Equal scan finds (and its key,
# inclusion and distinct answers must match brute force), a tuple must
# survive relstore's gob encoding and arbitrary bytes must decode to a
# tuple or an error, never a panic, a row parsed from
# outside text must render back to itself, and recovering a WAL with
# fuzzed records after a valid prefix must never panic and must be
# repeatable. CI runs this target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/aigspec
	$(GO) test -run '^$$' -fuzz FuzzParseGeneral -fuzztime 10s ./internal/dtd
	$(GO) test -run '^$$' -fuzz FuzzChangeSetWire -fuzztime 10s ./internal/remote
	$(GO) test -run '^$$' -fuzz FuzzSubscribeWire -fuzztime 10s ./internal/remote
	$(GO) test -run '^$$' -fuzz FuzzConstraintParse$$ -fuzztime 10s ./internal/xconstraint
	$(GO) test -run '^$$' -fuzz FuzzConstraintParseAll -fuzztime 10s ./internal/xconstraint
	$(GO) test -run '^$$' -fuzz FuzzPathParse -fuzztime 10s ./internal/xpath
	$(GO) test -run '^$$' -fuzz FuzzWriteIndented -fuzztime 10s ./internal/xmltree
	$(GO) test -run '^$$' -fuzz FuzzTupleKey -fuzztime 10s ./internal/relstore
	$(GO) test -run '^$$' -fuzz FuzzTupleHash -fuzztime 10s ./internal/relstore
	$(GO) test -run '^$$' -fuzz FuzzHashIndex -fuzztime 10s ./internal/relstore
	$(GO) test -run '^$$' -fuzz FuzzTupleGob -fuzztime 10s ./internal/relstore
	$(GO) test -run '^$$' -fuzz FuzzParseRow -fuzztime 10s ./internal/relstore
	$(GO) test -run '^$$' -fuzz FuzzRecoverWAL -fuzztime 10s ./internal/relstore

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

# soak-recover is the crash-recovery torture sweep: seeded sequences of
# row inserts and deletes (the only writes a persisted database
# journals) with snapshots at random points, then the WAL
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
# Unaffected verdicts checked against the actual bytes. A state where
# the full render fails compares nothing, but the unpruned plan must fail
# there too; the summary counts those states. Race-built because the acceptance bar is a
# race-enabled sweep; divergences shrink to {seed, config, paths,
# mutations}.
soak-fragment:
	$(GO) run -race ./cmd/aigdiff -fragment -n 200 -mutations 15 -paths 3 -shrink

# serve boots the XML-view daemon on the built-in hospital catalog.
serve:
	$(GO) run ./cmd/aigd -demo -addr :8080

# integration runs the deployment end to end as separate processes
# (internal/proctest, build tag integration): stitched traces under
# -race and the recorder's warm-path overhead guard, restarts of the
# durable deployment, fragments through the router, a replica killed
# under load and its subscription catch-up (race-built), and fleet
# scaling through aigrouter (>= 3x over one replica, each behind a
# service-time floor).
integration:
	$(GO) test -tags integration -count=1 ./internal/proctest

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

# alloc-budget runs the mediator's (documents, planned or not, and the
# SSN fragment; the served document, whose run is released to its plan,
# and the bill fragment have bytes budgets), the warm hit's, the
# executor's join allocation budgets (stored tables, parameter tables
# indexed per join, and both in a warmed sqlmini.Scratch, where the
# count must not grow with the rows) and the row index's (no allocation
# per row built, none per lookup), which are not built under -race and
# so never run in the race pass.
alloc-budget:
	$(GO) test -count=1 -run AllocBudget ./internal/mediator ./internal/serve ./internal/sqlmini ./internal/relstore

# bench-unit is the cold path's unit reproducer: 90 evaluations (three
# cycles of the 30 dates) of the served hospital view over bench250, so
# B/op and allocs/op repeat exactly from run to run, as many cold
# fragments of each of the benchmark's paths without predicates (plans
# pruned to the path, matches streamed) and as many plans of the view
# (compile, Merge and Schedule, no evaluation), then the executor's index
# probe (a one-row parameter table joined to a 10 k-row table), its
# parameter-table hash join (two 1,000-row parameter tables joined on two
# columns, the second hashed) and its reference join (two 10 k-row
# tables, 10 k output rows).
bench-unit:
	$(GO) test -run '^$$' -bench 'EvaluateRecursive/bench250|Fragment|Plan' -benchtime 90x -cpu 2 -benchmem ./internal/mediator
	$(GO) test -run '^$$' -bench 'ParamJoin/one-row|ParamJoin/build-1000|HashJoin/rows=10000' -benchtime 1000x -cpu 2 -benchmem ./internal/sqlmini

# loc prints the tracked line counts: non-test Go of the root module
# (bench/ is its own module), non-test Go of bench/, and shell scripts,
# then the root module's non-test Go per package directory. It counts
# the files git tracks, so stage new files first.
loc:
	@printf 'root-module non-test Go: '; git ls-files -- '*.go' ':!*_test.go' ':!bench/' | xargs cat | wc -l
	@printf 'bench/ non-test Go:      '; git ls-files -- 'bench/*.go' ':!bench/*_test.go' | xargs cat | wc -l
	@printf 'shell:                   '; git ls-files -- '*.sh' | xargs cat | wc -l
	@git ls-files -- '*.go' ':!*_test.go' ':!bench/' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1 } END { for (d in n) printf "  %-26s %6d\n", d, n[d] }' | sort

# ci is what .github/workflows/ci.yml runs (plus staticcheck, which CI
# fetches pinned). Performance claims cite bench-contract.
ci: vet build race alloc-budget test-bench lint fmt-check fuzz-smoke soak soak-ivm soak-certify soak-recover soak-fragment integration

bench:
	$(GO) test -bench . -benchmem -run '^$$'

clean:
	$(GO) clean ./...
	rm -f BENCH_1.json
