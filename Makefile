.PHONY: all build test bench check ci bench-self-test par-matrix smoke-bench smoke-server cache-diff bench-cache bench-kernel bench-anytime bench-shard qa-replay qa-fuzz fmt clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate: everything compiles and the whole suite passes.
check:
	dune build && dune runtest

# Tier-1 CI gate: full build, the whole test suite, the server smoke
# test, and a formatting check over the source tree. The format step is
# skipped (with a notice) when ocamlformat is not installed, so `make ci`
# works in minimal containers; install ocamlformat to enforce it.
ci:
	dune build
	dune runtest
	$(MAKE) par-matrix
	$(MAKE) smoke-bench
	$(MAKE) smoke-server
	$(MAKE) cache-diff
	$(MAKE) qa-replay
	$(MAKE) qa-fuzz
	$(MAKE) bench-self-test
	@if command -v ocamlformat >/dev/null 2>&1; then \
		ocamlformat --check $$(find lib bin test bench examples -name '*.ml' -o -name '*.mli') \
		  && echo "ci: format check passed"; \
	else \
		echo "ci: ocamlformat not installed -- skipping format check"; \
	fi

# Serving-benchmark harness self-test: manifest names and units match
# the harness, every metric is computed, tiny runs of every workload
# answer correctly, a corrupted reference fails every operation, and
# span self times sum to each request's wall time. Not part of
# `dune runtest`.
bench-self-test:
	bash perfbench/run.sh --self-test

# Cross-domain determinism matrix: the intra-query parallelism suite
# (test/t_par.ml) re-runs with the pool pinned to 1 domain (everything
# inline), 2 domains (the smallest real pool) and the recommended count
# (one per core). Solver answers must be bit-identical in all three.
par-matrix:
	dune build test/test_main.exe
	@for d in 1 2 recommended; do \
		echo "par-matrix: HARDQ_TEST_DOMAINS=$$d"; \
		HARDQ_TEST_DOMAINS=$$d ./_build/default/test/test_main.exe test par \
		  || exit 1; \
	done

# Engine-scaling smoke: the intra-query speedup bench on a small
# instance, mostly for its embedded bit-identity assertions.
smoke-bench:
	dune build bench/main.exe
	HARDQ_BENCH_SMOKE=1 dune exec bench/main.exe -- micro

# Black-box server lifecycle check: start the real binary, query each
# task type over the wire, SIGTERM it, assert a clean drain (exit 0 and
# a flushed metrics snapshot).
smoke-server:
	dune build bin/hardq_server.exe bin/hardq_client.exe bin/hardq_qa.exe
	sh scripts/server_smoke.sh

# Sub-answer cache differential: a repeated-shape load over the wire
# must clear a 50% sub-answer hit rate with a clean warm pass (loadgen
# exits non-zero otherwise) — the end-to-end gate on the two-tier store
# and batch scheduler. (Answer bit-identity under the cache is asserted
# by the QA oracle inside `dune runtest`.)
cache-diff:
	dune build bench/loadgen.exe
	dune exec bench/loadgen.exe -- --connections 4 --requests 20 \
	  --size 6 --sessions 30 --cache-out /tmp/BENCH_cache_ci.json >/dev/null

# Refresh the committed cache benchmark document (BENCH_cache.json).
bench-cache:
	dune build bench/loadgen.exe
	dune exec bench/loadgen.exe -- --cache-out BENCH_cache.json

# Refresh the committed kernel benchmark document (BENCH_kernel.json):
# boxed-vs-flat single-thread wall time per exact DP solver, plus a
# cold-exact-shaped row (the Figure 4 union over 60 Polls sessions).
# Boxed and flat samples interleave; rows carry the median over 31
# repeats, the IQR and nproc.
bench-kernel:
	dune build bench/main.exe
	rm -f BENCH_kernel.json
	BENCH_JSON_OUT=BENCH_kernel.json dune exec bench/main.exe -- kernel

# Refresh the committed anytime benchmark document (BENCH_anytime.json):
# time-to-target-CI and frames/sec for the sampling serve path.
bench-anytime:
	dune build bench/main.exe
	rm -f BENCH_anytime.json
	BENCH_JSON_OUT=BENCH_anytime.json dune exec bench/main.exe -- anytime

# Refresh the committed shard benchmark document (BENCH_shard.json):
# open-loop scatter-gather latency (p50/p99) and cross-shard top-k
# prune rates at shard counts 1, 2 and 4.
bench-shard:
	dune build bench/loadgen.exe
	dune exec bench/loadgen.exe -- --shard-out BENCH_shard.json

# Replay the committed regression corpus through the one differential
# oracle (Qa.Oracle.check, DESIGN.md §10); failures print the offending
# check and file. Per case it enforces: the per-union solver matrix
# (every exact DP solver byte-identical across both DP kernels and the
# sequential vs 2-domain pool runs, estimators inside their intervals,
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

fmt:
	dune fmt

clean:
	dune clean
