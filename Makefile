# Mirrors .github/workflows/ci.yml so the gate is reproducible locally.
# `make ci` = build + tests + clean-tree check + bench regression gate
# (+ format check when ocamlformat is installed).

DUNE ?= dune

.PHONY: all build test fmt lint prove trace serve-smoke top-smoke sim-smoke \
  race-smoke nocbench-smoke clean-tree bench bench-gate ci clean

all: build

build:
	$(DUNE) build

test: build
	$(DUNE) runtest

# .ocamlformat pins a version; skip gracefully where it isn't installed.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  $(DUNE) build @fmt; \
	else \
	  echo "fmt: ocamlformat not installed, skipping"; \
	fi

# The static-analysis gate: every registry benchmark and the shared
# job files must lint clean at error level; writes lint.sarif
# (gitignored) as the machine-readable report.
lint: build
	$(DUNE) exec bin/noc_tool.exe -- lint --all-benchmarks
	$(DUNE) exec bin/noc_tool.exe -- lint test/cli/registry_jobs.json \
	  --format=json > /dev/null
	$(DUNE) exec bin/noc_tool.exe -- lint --all-benchmarks \
	  --format=sarif -o lint.sarif

# The independent-prover gate, mirroring the prove-smoke CI job: the
# escape-elimination prover must agree with Verify.certify on every
# registry benchmark as-is, and accept every removal-prepared design
# (exit 2 on any disagreement or residual deadlock potential).
prove: build
	$(DUNE) exec bin/noc_tool.exe -- prove --all-benchmarks
	$(DUNE) exec bin/noc_tool.exe -- prove --all-benchmarks \
	  --prepare removal --require-free

# The tracing smoke test: a Chrome trace must be parseable JSON with
# balanced begin/end events, and a generated noc-trace/1 stream must
# lint clean (NOC-TRC-*).  Writes trace.json (gitignored).
trace: build
	$(DUNE) exec bin/noc_tool.exe -- trace -b D36_8 --format chrome -o trace.json
	@b="$$(grep -c '"ph": "B"' trace.json)"; \
	e="$$(grep -c '"ph": "E"' trace.json)"; \
	if [ "$$b" -eq 0 ] || [ "$$b" -ne "$$e" ]; then \
	  echo "trace: unbalanced span events ($$b begin / $$e end)"; \
	  exit 1; \
	fi; \
	echo "trace: $$b spans, begin/end balanced"
	$(DUNE) exec bin/noc_tool.exe -- trace -b D36_8 --format jsonl -o trace.jsonl
	$(DUNE) exec bin/noc_tool.exe -- lint trace.jsonl
	@rm -f trace.jsonl

# The daemon smoke test, mirroring the serve-smoke + store-persistence
# CI jobs in miniature: start `noc serve` with a store, submit the full
# registry cold, then seven inline designs (two accepted, five rejected
# by admission, two of them declaring millions of switches or cores;
# exit 2), then the registry warm across a restart;
# require a clean SIGTERM drain and a 100% warm-hit second pass.  Then
# the crash path: a cold pass on a second store, `kill -9` (no drain,
# so no flush), which must leave one file, the store's log, and a
# restart that must still serve all 12 warm from that store.  Last, the
# log's final 10 bytes are cut, a record torn mid-append: the next
# restart serves the other 11 warm.  The pool's workers start with the
# first store miss:
# each cold daemon must gain threads over its first pass, and each warm
# restart must end its 12 hits with the threads it started with (read
# from /proc).  Uses the built binary directly so the daemon holds no
# dune lock; a failed check kills the daemon on its way out.
serve-smoke: build
	@set -e; \
	dir="$$(mktemp -d)"; \
	server=; \
	trap '[ -z "$$server" ] || kill -KILL "$$server" 2>/dev/null || true; rm -rf "$$dir"' EXIT; \
	noc="$$(pwd)/_build/default/bin/noc_tool.exe"; \
	sock="$$dir/serve.sock"; \
	threads() { awk '/^Threads:/ { print $$2 }' "/proc/$$server/status"; }; \
	expect_threads() { now="$$(threads)"; [ "$$now" "$$1" "$$start" ] \
	  || { echo "serve-smoke: $$2 daemon threads $$start -> $$now"; exit 1; }; }; \
	"$$noc" serve --socket "$$sock" --store "$$dir/store" -j 2 & \
	server=$$!; \
	for i in $$(seq 1 100); do [ -S "$$sock" ] && break; sleep 0.1; done; \
	[ -S "$$sock" ]; \
	start="$$(threads)"; \
	"$$noc" submit test/cli/registry_jobs.json --socket "$$sock" \
	  | grep -q '12 ok, 0 failed, 0 rejected, 0 overloaded, 0 warm hits'; \
	expect_threads -gt cold; \
	rc=0; "$$noc" submit test/cli/inline_jobs.json --socket "$$sock" \
	  > "$$dir/inline.txt" || rc=$$?; \
	[ "$$rc" -eq 2 ] \
	  || { echo "serve-smoke: inline jobs exit $$rc, want 2"; \
	       cat "$$dir/inline.txt"; exit 1; }; \
	grep -q '7 jobs: 2 ok, 0 failed, 5 rejected, 0 overloaded, 0 warm hits' \
	  "$$dir/inline.txt"; \
	kill -TERM "$$server"; wait "$$server"; \
	"$$noc" serve --socket "$$sock" --store "$$dir/store" -j 2 & \
	server=$$!; \
	for i in $$(seq 1 100); do [ -S "$$sock" ] && break; sleep 0.1; done; \
	start="$$(threads)"; \
	"$$noc" submit test/cli/registry_jobs.json --socket "$$sock" \
	  | grep -q '12 ok, 0 failed, 0 rejected, 0 overloaded, 12 warm hits'; \
	expect_threads -eq warm; \
	kill -TERM "$$server"; wait "$$server"; \
	"$$noc" serve --socket "$$sock" --store "$$dir/crash-store" -j 2 & \
	server=$$!; \
	for i in $$(seq 1 100); do [ -S "$$sock" ] && break; sleep 0.1; done; \
	[ -S "$$sock" ]; \
	start="$$(threads)"; \
	"$$noc" submit test/cli/registry_jobs.json --socket "$$sock" \
	  | grep -q '12 ok, 0 failed, 0 rejected, 0 overloaded, 0 warm hits'; \
	expect_threads -gt cold; \
	kill -KILL "$$server"; wait "$$server" || true; \
	files="$$(find "$$dir/crash-store" -type f | wc -l)"; \
	[ "$$files" -eq 1 ] \
	  || { echo "serve-smoke: $$files files in the crash store, want 1"; exit 1; }; \
	rm -f "$$sock"; \
	"$$noc" serve --socket "$$sock" --store "$$dir/crash-store" -j 2 & \
	server=$$!; \
	for i in $$(seq 1 100); do [ -S "$$sock" ] && break; sleep 0.1; done; \
	start="$$(threads)"; \
	"$$noc" submit test/cli/registry_jobs.json --socket "$$sock" \
	  | grep -q '12 ok, 0 failed, 0 rejected, 0 overloaded, 12 warm hits'; \
	expect_threads -eq warm; \
	"$$noc" serve-stats --socket "$$sock" | grep -q '^store_hits 12$$'; \
	kill -TERM "$$server"; wait "$$server"; \
	truncate -s -10 "$$dir/crash-store/store.log"; \
	"$$noc" serve --socket "$$sock" --store "$$dir/crash-store" -j 2 & \
	server=$$!; \
	for i in $$(seq 1 100); do [ -S "$$sock" ] && break; sleep 0.1; done; \
	"$$noc" submit test/cli/registry_jobs.json --socket "$$sock" \
	  | grep -q '12 ok, 0 failed, 0 rejected, 0 overloaded, 11 warm hits'; \
	kill -TERM "$$server"; wait "$$server"; \
	echo "serve-smoke: OK (cold run, inline admission, clean drain, 100% warm restart, 100% warm after kill -9 from one log file, 11 of 12 warm after a torn record, warm daemons start no worker)"

# The live-telemetry smoke test, mirroring the metrics-smoke CI job in
# miniature: boot the daemon with a Prometheus listener and a trace,
# do some work with a known correlation prefix, and require (a) the
# scrape to pass the strict exposition check (`top --raw` validates
# before printing), (b) the job counter to count the work, (c) every
# SLO gauge green, (d) one rendered `top` dashboard frame, and (e) a
# drained trace that lints clean, ends 12 serve.submit spans carrying
# the prefix, and holds no other correlation id.
top-smoke: build
	@set -e; \
	dir="$$(mktemp -d)"; \
	trap 'rm -rf "$$dir"' EXIT; \
	noc="$$(pwd)/_build/default/bin/noc_tool.exe"; \
	sock="$$dir/serve.sock"; \
	"$$noc" serve --socket "$$sock" --metrics-addr 9469 -j 2 --no-store \
	  --trace "$$dir/trace.jsonl" & \
	server=$$!; \
	for i in $$(seq 1 100); do [ -S "$$sock" ] && break; sleep 0.1; done; \
	[ -S "$$sock" ]; \
	"$$noc" submit test/cli/registry_jobs.json --socket "$$sock" \
	  --corr top-smoke > /dev/null; \
	"$$noc" top --addr 9469 --raw > "$$dir/scrape.txt"; \
	grep -q '^noc_serve_jobs_total 12$$' "$$dir/scrape.txt"; \
	grep -q 'noc_slo_ok' "$$dir/scrape.txt"; \
	if grep -Eq '^noc_slo_ok\{[^}]*\} 0$$' "$$dir/scrape.txt"; then \
	  echo "top-smoke: an SLO is red"; \
	  kill -TERM "$$server"; wait "$$server"; exit 1; \
	fi; \
	"$$noc" top --socket "$$sock" --once > "$$dir/top.txt"; \
	grep -q 'workers' "$$dir/top.txt"; \
	kill -TERM "$$server"; wait "$$server"; \
	"$$noc" lint "$$dir/trace.jsonl" > /dev/null; \
	submits="$$(grep '"event":"span_end","name":"serve.submit"' "$$dir/trace.jsonl" \
	  | grep -c '"corr":"top-smoke-' || true)"; \
	[ "$$submits" -eq 12 ] \
	  || { echo "top-smoke: $$submits serve.submit spans carry top-smoke-*, want 12"; exit 1; }; \
	if grep -o '"corr":"[^"]*"' "$$dir/trace.jsonl" | grep -qv '"corr":"top-smoke-'; then \
	  echo "top-smoke: a correlation id without the top-smoke prefix"; exit 1; \
	fi; \
	echo "top-smoke: OK (scrape parses, counters live, SLOs green, 12 correlated serve.submit spans)"

# The simulation smoke test, mirroring the sim-smoke CI job: sweep the
# default campaign grid (2 benchmarks x 4 workloads x 3 preparations)
# and check the paper's claim cell by cell — the campaign itself exits
# 2 on any deadlock-freedom violation — then resume warm from the
# store and require bit-identical cell lines.
sim-smoke: build
	@set -e; \
	dir="$$(mktemp -d)"; \
	trap 'rm -rf "$$dir"' EXIT; \
	$(DUNE) exec bin/noc_tool.exe -- campaign --store "$$dir/store" -j 2 \
	  | tee "$$dir/cold.txt"; \
	grep -q 'invariants hold' "$$dir/cold.txt"; \
	$(DUNE) exec bin/noc_tool.exe -- campaign --store "$$dir/store" -j 2 \
	  > "$$dir/warm.txt"; \
	grep '^\[' "$$dir/warm.txt" | sed 's/  (warm)$$//' > "$$dir/warm-cells.txt"; \
	grep '^\[' "$$dir/cold.txt" | diff - "$$dir/warm-cells.txt"; \
	echo "sim-smoke: OK (invariants hold, warm resume bit-identical)"

# The race smoke test, run by the race-smoke CI job: the service suite
# (pool, server, batch) twenty times, each under a 60 s timeout so a
# stranded worker fails fast instead of hanging, then the full registry
# batch on 4 domains three times under a tiny minor heap (constant
# cross-domain GC pressure), diffed with wall times stripped.  Last,
# 36 simulate jobs (two designs x six workload kinds x three
# preparations) once on 1 domain and twice on 4, diffed the same way
# with the domain count stripped too.
race-smoke:
	$(DUNE) build test/test_service.exe bin/noc_tool.exe
	@set -e; \
	for i in $$(seq 1 20); do \
	  timeout 60 ./_build/default/test/test_service.exe > /dev/null \
	    || { echo "race-smoke: test_service run $$i failed or hung"; exit 1; }; \
	done; \
	dir="$$(mktemp -d)"; \
	trap 'rm -rf "$$dir"' EXIT; \
	for i in 1 2 3; do \
	  OCAMLRUNPARAM=s=4k ./_build/default/bin/noc_tool.exe \
	    batch test/cli/registry_jobs.json -j 4 \
	    | sed -E 's/ +[0-9.]+ ms/ <ms>/g' > "$$dir/run$$i.txt"; \
	done; \
	diff "$$dir/run1.txt" "$$dir/run2.txt"; \
	diff "$$dir/run1.txt" "$$dir/run3.txt"; \
	cat "$$dir/run1.txt"; \
	for run in 1 4a 4b; do \
	  OCAMLRUNPARAM=s=4k ./_build/default/bin/noc_tool.exe \
	    batch test/cli/registry_sim_jobs.json -j $${run%[ab]} \
	    | sed -E 's/ +[0-9.]+ ms/ <ms>/g; s/ on [0-9]+ domains? / on <n> domains /' \
	    > "$$dir/sim-$$run.txt"; \
	done; \
	diff "$$dir/sim-1.txt" "$$dir/sim-4a.txt"; \
	diff "$$dir/sim-1.txt" "$$dir/sim-4b.txt"; \
	tail -n 1 "$$dir/sim-1.txt"; \
	echo "race-smoke: OK (20 service runs, 3 identical 4-domain batches, simulate identical on 1 and 4 domains)"

# The daemon-benchmark correctness smoke, run by the nocbench-smoke CI
# job: each nocbench workload for 5 s.  Its result line must say every
# reply was correct (result hashes against the traced replay, warm-cache
# hits on warm-replay, Campaign.verify on sim-campaign) and no job
# failed.  About a minute on 2 cores.
nocbench-smoke:
	@set -e; \
	for w in cold-mix warm-replay sim-campaign; do \
	  line="$$(bash nocbench/run.sh --workload $$w --seed 1 --seconds 5 \
	    --trace 0 | tail -n 1)"; \
	  echo "$$w: $$line" | cut -c 1-160; \
	  echo "$$line" | grep -q '"correct":true' \
	    || { echo "nocbench-smoke: $$w replies not all correct"; exit 1; }; \
	  echo "$$line" | grep -q '"failed":0' \
	    || { echo "nocbench-smoke: $$w had failed jobs"; exit 1; }; \
	done; \
	echo "nocbench-smoke: OK (3 workloads, every reply correct, 0 failed)"

clean-tree:
	@if git ls-files _build | grep -q .; then \
	  echo "clean-tree: _build/ artifacts are tracked in git"; \
	  git ls-files _build | head; \
	  exit 1; \
	fi
	@if git ls-files lint.sarif trace.json trace.jsonl BENCH_removal.json \
	  BENCH_service.json BENCH_sim.json | grep -q .; then \
	  echo "clean-tree: generated reports are tracked in git"; \
	  git ls-files lint.sarif trace.json trace.jsonl BENCH_*.json; \
	  exit 1; \
	fi
	@before="$$(git status --porcelain)"; \
	$(DUNE) build; \
	after="$$(git status --porcelain)"; \
	if [ "$$before" != "$$after" ]; then \
	  echo "clean-tree: dune build dirtied the tree"; \
	  echo "$$after"; \
	  exit 1; \
	fi
	@echo "clean-tree: OK"

# Re-measure the benchmarks (write BENCH_*.json, gitignored).
bench:
	$(DUNE) exec bench/main.exe -- removal
	$(DUNE) exec bench/main.exe -- service
	$(DUNE) exec bench/main.exe -- sim

# Compare fresh measurements against the committed baselines.
bench-gate: bench
	$(DUNE) exec bench/check_regression.exe -- \
	  bench/baseline/BENCH_removal.json BENCH_removal.json
	$(DUNE) exec bench/check_regression.exe -- \
	  bench/baseline/BENCH_service.json BENCH_service.json
	$(DUNE) exec bench/check_regression.exe -- \
	  bench/baseline/BENCH_sim.json BENCH_sim.json

ci: build test fmt lint prove trace clean-tree bench-gate top-smoke sim-smoke \
  race-smoke nocbench-smoke

clean:
	$(DUNE) clean
	rm -f BENCH_removal.json BENCH_service.json BENCH_sim.json lint.sarif \
	  trace.json trace.jsonl
