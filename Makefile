# Developer entry points.  Everything runs from the repo root with the
# in-tree package on the path; no installation required.
#
#   make test        full tier-1 suite (what CI holds the repo to)
#   make smoke       quick gate: fast tests, perf regression guard, and the
#                    front-door gate below
#   make cli-smoke   front-door gate: a 2-seed run of every `repro study`
#                    kind, a batched scenario run and every single run
#   make lint        static analysis: repro lint (+ ruff/mypy when installed)
#   make chaos       fault-injection gate: chaos suites + a small failover run
#   make mega-smoke  mega-scale gate: 20k-world study over shm transport
#   make serve-smoke service gate: HTTP submit → cache hit → thread deadline
#   make perf-check  benchmark correctness gate: a 1 s perfbench run of each
#                    BENCHMARK.json workload, untraced and traced, failing
#                    on any WRONG: output
#   make paper-check the paper-shape benches (Figures 8-10, economics,
#                    ablations) as assertions, timing disabled
#   make bench       retime every stage and rewrite BENCH_speed.json
#   make regression  full perf guard against the committed baseline

PY := PYTHONPATH=src python

.PHONY: test smoke cli-smoke lint chaos mega-smoke serve-smoke perf-check \
	paper-check bench regression

test:
	$(PY) -m pytest -x -q

# Every kind's default preset is its smallest one.
STUDY_KINDS := detection offload economics joint mega

smoke:
	$(PY) -m pytest -m "not slow" -q
	$(PY) benchmarks/check_regression.py --quick
	$(MAKE) cli-smoke

# Every `repro` command that runs a study, through the one request front
# door: the study kinds, a scenario and two seed batches with their
# engine flags, and the one-seed single runs.  A price outside the
# Section 5 model must be a usage error (exit status 2).
cli-smoke:
	for kind in $(STUDY_KINDS); do \
		$(PY) -m repro study $$kind --seeds 2 --workers 1 || exit 1; \
	done
	$(PY) -m repro scenarios run exclusion-ablation --seeds 2 --workers 1 \
		--trial-batch 2
	$(PY) -m repro study detection --threshold-ms 5 10 20 --seeds 2 \
		--trial-batch 4 --workers 1
	$(PY) -m repro study economics --seeds 4 --trial-batch 4 --workers 1
	$(PY) -m repro detect --ixps TorIX --seed 3
	$(PY) -m repro offload --seed 3 --max-ixps 3
	$(PY) -m repro report --small --seed 3 -o /dev/null
	$(PY) -m repro econ --decay 0.8
	$(PY) -m repro econ --transit-price 1 --decay 0.5; status=$$?; \
		[ $$status -eq 2 ] || { \
		echo "WRONG: repro econ exited $$status on a bad price, not 2"; \
		exit 1; }

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

# The mega-scale gate: the weighted samplers most of a mega build runs
# (held to numpy's choice/searchsorted as oracle), the set-cover kernel
# every mega trial canonicalises its membership rows in (held to its
# oracles), then the ~20k-network smoke world through the study engine
# over the zero-copy shared-memory transport, on two workers so the
# worlds build in the pool even on a one-core runner.
# --strict-transport fails the target if any trial fell back to
# pickling, so the shm path cannot silently rot.  The run's output goes
# through a pipe, which stays open until the resource tracker (started
# by the run, writing to the same stderr) has exited, so its leak report
# is read too: any resource_tracker line fails the target, and so does a
# /dev/shm segment the run left behind.
mega-smoke:
	$(PY) -m pytest -q tests/test_weighted_sampling.py tests/test_megatopo.py \
		tests/test_offload_bitsets.py tests/test_greedy_oracle.py \
		tests/test_transport.py
	@log=$$(mktemp); LC_ALL=C ls /dev/shm > $$log.shm; \
	{ $(PY) -m repro study mega --preset mega-smoke --seeds 4 \
		--workers 2 --strict-transport; echo $$? > $$log.status; } 2>&1 \
		| tee $$log; \
	status=$$(cat $$log.status); \
	leaked=$$(LC_ALL=C ls /dev/shm | LC_ALL=C comm -13 $$log.shm -); \
	tracker=$$(grep -c resource_tracker $$log); \
	rm -f $$log $$log.shm $$log.status; \
	[ "$$status" = 0 ] || exit 1; \
	[ -z "$$leaked" ] || { echo "WRONG: leaked /dev/shm segments: $$leaked"; \
		exit 1; }; \
	[ "$$tracker" = 0 ] || { echo "WRONG: resource_tracker wrote to stderr"; \
		exit 1; }

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
# For detection and economics its reference path (trial_batch=1) runs
# the same build and measure code as the timed path, so a change that
# moves both still reads correct: each workload's seed-3 results digest
# is pinned here as well, and a different digest fails the target.
# Each workload also runs once traced (--trace 1), which wraps the layer
# entry points by name: a deleted or renamed one fails here too.
PERF_DIGESTS := detection-batch=d4f1fd2d99a29504 \
	economics-paper65=5976cc0b1cc85a75 mega-shm=ccd55238726eabcf

perf-check:
	for pin in $(PERF_DIGESTS); do \
		workload=$${pin%%=*}; digest=$${pin#*=}; \
		for trace in 0 1; do \
			out=$$(python3 perfbench/run.py --workload $$workload \
				--seed 3 --seconds 1 --trace $$trace 2>&1); status=$$?; \
			echo "$$out"; \
			[ $$status -eq 0 ] || exit 1; \
			echo "$$out" | grep -q "results digest $$digest" || { \
				echo "WRONG: $$workload --trace $$trace results digest" \
					"is not $$digest"; \
				exit 1; }; \
		done; \
	done

# The paper-shape gate: every pytest-benchmark item outside
# bench_speed.py asserts a figure's shape or an ablation result (the
# greedy expansions feed Figures 8-10 and the economics fit), so run them
# as plain assertions.  Needs pytest-benchmark for --benchmark-disable.
paper-check:
	$(PY) -m pytest benchmarks --ignore=benchmarks/bench_speed.py \
		-o python_files='bench_*.py' -o python_functions='bench_*' \
		--benchmark-disable -q

bench:
	$(PY) benchmarks/bench_speed.py

regression:
	$(PY) benchmarks/check_regression.py
