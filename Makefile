.PHONY: all build test bench bench-kernels check ci examples bench-self-test par-matrix smoke-server qa-replay qa-fuzz fmt clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate: everything compiles and the whole suite passes.
check:
	dune build && dune runtest

# Tier-1 CI gate: full build, the whole test suite, the example
# programs, the cross-domain matrix, the server smoke test, the QA
# replay and fuzz, the serving benchmark's self-test, and a formatting
# check over the source tree. The format step is skipped (with a
# notice) when ocamlformat is not installed, so `make ci` works in
# minimal containers; install ocamlformat to enforce it.
ci:
	dune build
	dune runtest
	$(MAKE) examples
	$(MAKE) par-matrix
	$(MAKE) smoke-server
	$(MAKE) qa-replay
	$(MAKE) qa-fuzz
	$(MAKE) bench-self-test
	@if command -v ocamlformat >/dev/null 2>&1; then \
		ocamlformat --check $$(find lib bin test bench examples -name '*.ml' -o -name '*.mli') \
		  && echo "ci: format check passed"; \
	else \
		echo "ci: ocamlformat not installed -- skipping format check"; \
	fi

# Run every example program (examples/*.ml); a non-zero exit fails the
# target. Their output goes to /dev/null: the gate catches crashes and
# uncaught exceptions, not changed numbers.
EXAMPLES := $(patsubst %.ml,%.exe,$(wildcard examples/*.ml))

examples:
	dune build $(EXAMPLES)
	@for exe in $(EXAMPLES); do \
		echo "examples: $$exe"; \
		./_build/default/$$exe > /dev/null || exit 1; \
	done

# Serving-benchmark harness self-test: manifest names and units match
# the harness, every metric is computed, tiny runs of every workload
# answer correctly, a corrupted reference fails every operation, and
# span self times sum to each request's wall time. Not part of
# `dune runtest`.
bench-self-test:
	bash perfbench/run.sh --self-test

# Cross-domain determinism matrix: the intra-query parallelism suite
# (test/t_par.ml) and the DP kernel suite (test/t_kernel.ml)
# re-run with the pool pinned to 1 domain (everything inline), 2 domains
# (the smallest real pool) and the recommended count (one per core).
# Solver answers must be bit-identical in all three.
par-matrix:
	dune build test/test_main.exe
	@for d in 1 2 recommended; do \
		for suite in par kernel; do \
			echo "par-matrix: HARDQ_TEST_DOMAINS=$$d $$suite"; \
			HARDQ_TEST_DOMAINS=$$d ./_build/default/test/test_main.exe \
			  test $$suite || exit 1; \
		done; \
	done

# Black-box server lifecycle check: start the real binary, query each
# task type over the wire, SIGTERM it, assert a clean drain (exit 0 and
# a flushed metrics snapshot).
smoke-server:
	dune build bin/hardq_server.exe bin/hardq_client.exe bin/hardq_qa.exe
	sh scripts/server_smoke.sh

# Replay the committed regression corpus through the one differential
# oracle (Qa.Oracle.check, DESIGN.md §10); failures print the offending
# check and file. Per case it enforces: the per-union solver matrix
# (every exact DP solver byte-identical across the sequential and
# 2-domain pool runs, estimators inside their intervals,
# the metamorphic invariants); the engine lattice — jobs {1,2} x shards
# {1,2,4} x cache {off,cold,warm} x source {"query" CQ, parsed "q" text
# plan}, Boolean, Count and top-3 (naive, 1-edge, 2-edge) byte-identical
# to the sequential reference with ranked keys, zero warm misses, shard
# summaries and two-phase prune soundness; the SLO rows (deadline,
# streamed CI containment and nesting, pool-width frame bytes,
# prefix, exact route); and the language rows (round trip, of_query
# embed, possibly, certainly, sum(key 0), using rejection, rank atoms).
# Over the corpus every plan node kind must be routed at least once.
qa-replay:
	dune build bin/hardq_qa.exe
	dune exec bin/hardq_qa.exe -- replay test/corpus

# Time-boxed deterministic fuzzing at a fixed seed. New shrunk failures
# land in test/corpus/ — commit them with the fix.
qa-fuzz:
	dune build bin/hardq_qa.exe
	dune exec bin/hardq_qa.exe -- fuzz --seconds 30 --seed 42 --corpus test/corpus

bench:
	dune exec bench/main.exe

# Per-call rows of the flat DP kernels on fixed inputs (CPU us, minor
# words, states, key words and an answer digest), without the Bechamel
# groups of `micro`: run it on two checkouts to compare them.
bench-kernels:
	dune build bench/main.exe
	./_build/default/bench/main.exe kernels

fmt:
	dune fmt

clean:
	dune clean
