# Developer entry points.  Everything runs from the repo root with the
# in-tree package on the path; no installation required.
#
#   make test        full tier-1 suite (what CI holds the repo to)
#   make smoke       quick gate: fast tests, perf regression guard, and a
#                    2-seed run of every `repro study` kind
#   make lint        static analysis: repro lint (+ ruff/mypy when installed)
#   make chaos       fault-injection gate: chaos suites + a small failover run
#   make mega-smoke  mega-scale gate: 20k-world study over shm transport
#   make serve-smoke service gate: HTTP submit → cache hit → thread deadline
#   make perf-check  benchmark correctness gate: a 1 s perfbench run of each
#                    BENCHMARK.json workload, failing on any WRONG: output
#   make bench       retime every stage and rewrite BENCH_speed.json
#   make regression  full perf guard against the committed baseline

PY := PYTHONPATH=src python

.PHONY: test smoke lint chaos mega-smoke serve-smoke perf-check bench regression

test:
	$(PY) -m pytest -x -q

# Every kind's default preset is its smallest one.
STUDY_KINDS := detection offload economics joint mega

smoke:
	$(PY) -m pytest -m "not slow" -q
	$(PY) benchmarks/check_regression.py --quick
	for kind in $(STUDY_KINDS); do \
		$(PY) -m repro study $$kind --seeds 2 --workers 1 || exit 1; \
	done

# The determinism & draw-stream static analysis (always available), plus
# ruff and the strict-ish mypy profile for the typed surfaces
# (src/repro/devtools/ and the study engine) when those tools are
# installed — the repo itself has no third-party dev dependencies.
lint:
	$(PY) -m repro lint
	@if $(PY) -m ruff --version >/dev/null 2>&1; then \
		$(PY) -m ruff check .; \
	else \
		echo "ruff not installed; skipping (python -m pip install ruff)"; \
	fi
	@if $(PY) -m mypy --version >/dev/null 2>&1; then \
		$(PY) -m mypy; \
	else \
		echo "mypy not installed; skipping (python -m pip install mypy)"; \
	fi

# The robustness gate: fault/retry determinism, trial quarantine (incl.
# the kill-one-worker pool-restart study and its resume), and one small
# end-to-end failover scenario run.
chaos:
	$(PY) -m pytest -q tests/test_faults.py tests/test_campaign_faults.py \
		tests/test_engine_quarantine.py tests/test_failover_scenario.py
	$(PY) -m repro scenarios run failover --preset small --seeds 2 --workers 1

# The mega-scale gate: the ~20k-network smoke world through the study
# engine over the zero-copy shared-memory transport.  --strict-transport
# fails the target if any trial fell back to pickling, so the shm path
# cannot silently rot.
mega-smoke:
	$(PY) -m pytest -q tests/test_megatopo.py tests/test_transport.py
	$(PY) -m repro study mega --preset mega-smoke --seeds 4 \
		--strict-transport

# The service gate: the scheduler and HTTP suites, then the end-to-end
# smoke — the real asyncio server on an ephemeral port, driven over HTTP
# through a cold run, a byte-identical resubmission that must be a 100%
# store hit (0 trials recomputed), and a timing-out study whose trials
# must be quarantined by the thread-safe deadline from a scheduler
# (non-main) thread.
serve-smoke:
	$(PY) -m pytest -q tests/test_scheduler.py tests/test_serve.py
	$(PY) -m repro serve --smoke

# The benchmark's correctness gate: one short run of every workload
# BENCHMARK.json declares.  perfbench checks each run's outputs (cycle
# digests, warm replay from the artifact, batch vs per-trial reference
# path, shm vs pickle transport) and exits 1 on any WRONG: line, which
# fails the target.  perfbench measures src/ of this checkout itself.
PERF_WORKLOADS := detection-batch economics-paper65 mega-shm

perf-check:
	for workload in $(PERF_WORKLOADS); do \
		python3 perfbench/run.py --workload $$workload --seed 3 \
			--seconds 1 --trace 0 || exit 1; \
	done

bench:
	$(PY) benchmarks/bench_speed.py

regression:
	$(PY) benchmarks/check_regression.py
