.PHONY: all build test bench check ci bench-self-test par-matrix smoke-bench smoke-server cache-diff lang-diff anytime-diff shard-diff bench-cache bench-kernel bench-anytime bench-shard qa-replay qa-fuzz fmt clean

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
	$(MAKE) lang-diff
	$(MAKE) anytime-diff
	$(MAKE) shard-diff
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

# Query-language/planner differential: every corpus case replayed
# through the text frontend and the tractability planner — compiled-plan
# answers must be bit-identical to the direct solver paths, and the
# corpus must route at least one query to every plan node kind.
lang-diff:
	dune build bin/hardq_qa.exe
	dune exec bin/hardq_qa.exe -- lang-diff test/corpus

# Anytime serving differential: every corpus case served under accuracy
# SLOs — streamed CIs must contain the exact answer, widths must only
# tighten, and same-seed frame sequences must be byte-identical across
# pool widths (with looser targets a prefix of tighter ones).
anytime-diff:
	dune build bin/hardq_qa.exe
	dune exec bin/hardq_qa.exe -- anytime-diff test/corpus

# Sharded scatter-gather differential: every corpus case replayed
# through engines at shard counts 1, 2 and 4 (the unsharded engine is
# the 1-shard coordinator) — Boolean, Count-Session and top-k answers
# (ranked keys included) must be byte-identical to the sequential reference,
# and the two-phase top-k must have pruned exactly the shards whose
# upper bounds fell below the k-th answer (DESIGN.md §16).
shard-diff:
	dune build bin/hardq_qa.exe
	dune exec bin/hardq_qa.exe -- shard-diff test/corpus

# Refresh the committed cache benchmark document (BENCH_cache.json).
bench-cache:
	dune build bench/loadgen.exe
	dune exec bench/loadgen.exe -- --cache-out BENCH_cache.json

# Refresh the committed kernel benchmark document (BENCH_kernel.json):
# boxed-vs-flat single-thread wall time per exact DP solver.
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

# Replay the committed regression corpus: every case must pass the full
# differential oracle (failures print the offending check and file) —
# including the rows that pin every exact DP solver byte-identical
# across both DP kernels and the sequential vs 2-domain pool runs.
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
