PYTHON ?= python
PYTEST := PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test bench bench-smoke bench-campaign bench-federation bench-faults bench-timeseries bench-governor serve-smoke audit perfbench

# Tier-1: the full unit/integration/property suite.
test:
	$(PYTEST) -x -q

# The full benchmark harness (regenerates every table/figure).
bench:
	$(PYTEST) benchmarks -q

# CI-sized benchmark subset: only the *smoke* variants, which finish in
# seconds and still assert each benchmark's qualitative shape.  A
# collection guard in benchmarks/conftest.py fails this target if any
# bench_*.py contributes zero smoke tests, so new benchmarks cannot
# silently drop out of CI coverage.  Smoke results are committed under
# benchmarks/results/*_smoke.txt and must regenerate byte-identically
# (the CI determinism job diffs them).
bench-smoke:
	$(PYTEST) benchmarks -q -k smoke

# Campaign engine smoke: cache-hit speedup and serial==parallel equality.
bench-campaign:
	$(PYTEST) benchmarks/bench_campaign.py -q

# Federated work queue: 4 workers sharing one cache drain byte-identical
# to serial, and a SIGKILLed lease holder is stolen with zero lost runs.
bench-federation:
	$(PYTEST) benchmarks/bench_federation.py -q

# The full fault-injection ablation (both systems, every fault x target).
bench-faults:
	$(PYTEST) benchmarks/bench_ablation_fault_tolerance.py -q

# Observability smoke: export a Sedov run trace, bound artifact sizes and
# event counts, check byte-identical re-export.
bench-timeseries:
	$(PYTEST) benchmarks/bench_timeseries.py -q

# Online DVFS governor: cold min-EDP beats best static on all three
# systems, power-cap compliance, strict audit — full and smoke variants.
bench-governor:
	$(PYTEST) benchmarks/bench_ext_governor.py -q

# Telemetry service smoke: a wait-mode loopback load run whose ingest
# ledger reproduces byte-for-byte, plus the scripted queue-overflow
# scenario proving sheds are accounted, never silent.
serve-smoke:
	$(PYTEST) benchmarks/bench_service.py -q -k smoke

# Energy-accounting audit: the AST lint over the source tree (exits
# non-zero on any finding) plus a strict-mode audited measurement run —
# every accounting invariant (DESIGN.md, "Audited invariants") checked
# live; the first violation raises.
audit:
	PYTHONPATH=src $(PYTHON) -m repro.audit src/repro
	PYTHONPATH=src $(PYTHON) -m repro report --system CSCS-A100 \
		--case "Subsonic Turbulence" --cards 8 --steps 10 --audit-strict

# The repository's end-to-end benchmark (perfbench/README.md): all four
# workloads, each in a fresh child process, with their correctness checks.
# Add --trace 1 by hand for the per-layer breakdown.
perfbench:
	$(PYTHON) perfbench/run.py --workload all --seed 1 --seconds 10
