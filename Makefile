# Convenience targets for the reproduction repository.

PYTHON ?= python
RUN_DIR ?= .repro

.PHONY: install test lint bench-quick reproduce bench-baseline bench-detectors ledger-check examples clean

install:
	$(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

lint:            ## compileall + ruff (when installed) + repro.lint invariants
	$(PYTHON) -m compileall -q src
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping generic pass (config pinned in pyproject.toml)"; \
	fi
	PYTHONPATH=src $(PYTHON) -m repro.lint src --json .repro-lint-findings.json
	PYTHONPATH=src $(PYTHON) -m repro.lint.selfcheck

bench-quick:     ## reduced population for a fast pass
	PYTHONPATH=src REPRO_POPULATION=60 $(PYTHON) -m pytest benchmarks/ --benchmark-only

reproduce:       ## every figure at 251 submissions; fails on any diff against benchmarks/results
	PYTHONPATH=src REPRO_POPULATION=251 $(PYTHON) -m pytest benchmarks/ --benchmark-only
	git diff --exit-code -- benchmarks/results

bench-baseline:  ## headline MP bench with metrics on -> BENCH_obs_baseline.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_obs_baseline.py

bench-detectors: ## detector hot path under the profiler -> BENCH_detectors.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_detectors.py

ledger-check:    ## flag regressions in the newest recorded run (RUN_DIR=dir)
	PYTHONPATH=src $(PYTHON) -m repro.cli runs check --run-dir $(RUN_DIR)

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/detector_tour.py
	PYTHONPATH=src $(PYTHON) examples/advanced_attacks.py
	PYTHONPATH=src $(PYTHON) examples/online_monitoring.py
	PYTHONPATH=src $(PYTHON) examples/challenge_simulation.py 30
	PYTHONPATH=src $(PYTHON) examples/attack_optimization.py 3

clean:           ## generated files only; benchmarks/results/*.txt are tracked
	rm -rf .pytest_cache benchmarks/results/detectors.speedscope.json
	find . -name __pycache__ -type d -exec rm -rf {} +
