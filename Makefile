# Developer entry points. Everything is plain `go` underneath; the targets
# just bundle the common invocations.

GO ?= go

.PHONY: all build lint lint-fixtures test test-short race bench experiments examples fuzz fuzz-smoke trace-demo portfolio-demo serve-demo steal-demo artifact-demo verify cover cover-gate trajectory trajectory-check clean

all: build lint test

build:
	$(GO) build ./...
	$(GO) vet ./...

# Static analysis: go vet plus the repository's own invariant checkers
# (see "Static analysis" in README.md). bddlint must exit 0 — fix the
# finding or annotate the sanctioned site with //lint:allow <rule> <why>.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/bddlint ./...

# The analyzers' own test corpus: golden fixture packages with // want
# expectations plus the CFG builder's table-driven shape tests, under
# the race detector (the dataflow solver must stay data-race free — CI
# gates on this next to lint).
lint-fixtures:
	$(GO) test -race ./internal/analysis/... ./cmd/bddlint/

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./internal/core/ ./internal/dynbdd/ ./internal/server/ ./internal/cache/ ./internal/conformance/

# The one-command correctness gate (see "Verification" in README.md):
# golden-corpus replay across every solver, the metamorphic oracle
# suite, and a 200-request fault-injected chaos round. Reproduce any
# failure with the printed seed; soak longer with
# `go run ./cmd/bddverify -duration 60s`.
verify:
	$(GO) run ./cmd/bddverify -chaos 200

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every evaluation table/figure at full size (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/bddbench -exp all

# Regenerate the committed benchmark-trajectory baseline (see
# "Performance trajectory" in README.md). Run on a quiet machine, eyeball
# the diff, and commit BENCH_14.json alongside the change that moved it.
trajectory:
	$(GO) run ./cmd/bddbench -trajectory -quick -json > BENCH_14.json

# Diff a fresh sweep against the committed baseline; a max-feasible-n
# drop or a min_cost mismatch (against the baseline or between solvers)
# exits nonzero, ns/op growth past 3x is reported but advisory (the CI
# bench-smoke job runs exactly this and gates on it).
trajectory-check:
	$(GO) run ./cmd/bddbench -trajectory -quick -json > /tmp/bench_new.json
	$(GO) run ./cmd/bddbench -compare -threshold 3.0 -ns-advisory BENCH_14.json /tmp/bench_new.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/achilles
	$(GO) run ./examples/verification
	$(GO) run ./examples/zddsets
	$(GO) run ./examples/ordering-quality
	$(GO) run ./examples/dynamic-reordering
	$(GO) run ./examples/factorization

# Observability demo: live per-layer progress on stderr plus the JSON run
# report on stdout for a 12-variable instance (three disjoint AND pairs
# plus a parity tail — large enough that the layer cadence is visible).
trace-demo:
	$(GO) run ./cmd/optobdd \
		-expr 'x1&x2 | x3&x4 | x5&x6 | x7&x8 | x9&x10 | x11&x12' \
		-progress -json

# Portfolio demo: the default solver dispatches to the parallel DP engine
# over the input's symmetry orbits (watch its layers and one lane_result
# line on stderr), then the same solver under a 50ms deadline stops the
# engine and degrades to the heuristic incumbent instead of hanging. The
# deadline instance is an 18-variable alternating AND/OR chain: no two of
# its variables are symmetric (bddstats reports "symmetry: none"), so the
# DP walks the full lattice, 18·3^17 cell operations, far more than 50ms
# allows.
portfolio-demo:
	$(GO) run ./cmd/optobdd \
		-expr 'x1&x2 | x3&x4 | x5&x6 | x7&x8' \
		-solver portfolio -progress
	$(GO) run ./cmd/optobdd \
		-expr 'x1&(x2|(x3&(x4|(x5&(x6|(x7&(x8|(x9&(x10|(x11&(x12|(x13&(x14|(x15&(x16|(x17&!x18))))))))))))))))' \
		-solver portfolio -deadline 50ms -progress

# Scheduler demo: a deliberately contended parallel run — 8 workers over
# 2-rank shards on a 13-variable instance — whose JSON report's metrics
# block shows the work-stealing pipeline at work (shards_executed,
# shard_steals; distributions under ws_shard_occupancy / ws_run_steals
# in /v1/stats when serving).
steal-demo:
	$(GO) run ./cmd/optobdd \
		-expr '(x1^x2^x3^x4^x5^x6) | x7&x8&x9 | x10&x11 | x12&x13' \
		-solver parallel -workers 8 -shard-bits 1 -json

# Artifact demo: solve the Achilles-heel 8-variable instance, emit the
# compressed OBDD artifact, and independently re-verify it against the
# original function (bddverify replays the pinned golden digests too).
artifact-demo:
	$(GO) run ./cmd/optobdd \
		-expr 'x1&x2 | x3&x4 | x5&x6 | x7&x8' \
		-emit-bdd /tmp/achilles8.obdd
	$(GO) run ./cmd/bddverify -chaos 0

# Serving demo: an in-process obddd exercises the whole admission story
# under the race detector — cold solve, cached re-solve (single-flight),
# 429s under a 32-request burst against a 2-worker pool, graceful drain.
serve-demo:
	$(GO) run -race ./cmd/obddd -smoke

# Short fuzzing sessions over the text-format parsers, the table
# constructors, the FS-vs-brute-force differential oracle, the
# shared-forest engine against the serial shared DP, and the DP over
# symmetry orbits against the full-lattice DP.
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/expr/
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/pla/
	$(GO) test -fuzz FuzzTruthTableNew -fuzztime 30s ./internal/truthtable/
	$(GO) test -fuzz FuzzFSvsBrute -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzSharedEngine -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzOrbitEngine -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzArtifactRoundTrip -fuzztime 30s ./internal/artifact/
	$(GO) test -fuzz FuzzSolveFacade -fuzztime 30s .

# CI-sized fuzz pass: long enough to exercise the mutators, short enough
# for every push.
fuzz-smoke:
	$(GO) test -fuzz FuzzTruthTableNew -fuzztime 10s ./internal/truthtable/
	$(GO) test -fuzz FuzzFSvsBrute -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzSharedEngine -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzOrbitEngine -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzArtifactRoundTrip -fuzztime 10s ./internal/artifact/
	$(GO) test -fuzz FuzzSolveFacade -fuzztime 10s .

# Per-package coverage table.
cover:
	$(GO) test -count=1 -cover ./... | grep -v "no test files"

# Coverage floors for the engine and the network service — measured
# baselines rounded down; CI fails a PR that regresses below them.
COVER_FLOOR_CORE ?= 92
COVER_FLOOR_SERVER ?= 90
COVER_FLOOR_ARTIFACT ?= 90

cover-gate:
	@for spec in ./internal/core:$(COVER_FLOOR_CORE) ./internal/server:$(COVER_FLOOR_SERVER) ./internal/artifact:$(COVER_FLOOR_ARTIFACT); do \
		pkg=$${spec%:*}; floor=$${spec#*:}; \
		pct=$$($(GO) test -count=1 -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover-gate: no coverage reported for $$pkg"; exit 1; fi; \
		if [ "$$(awk -v p=$$pct -v f=$$floor 'BEGIN{print (p>=f)?1:0}')" != 1 ]; then \
			echo "cover-gate: $$pkg coverage $$pct% fell below the $$floor% floor"; exit 1; \
		fi; \
		echo "cover-gate: $$pkg $$pct% >= $$floor%"; \
	done

clean:
	$(GO) clean ./...
