"""Telemetry service benchmarks: ingest throughput, query latency, shed QC.

Two variants over the deterministic load harness
(:mod:`repro.service.load`):

* ``bench_service_load`` — the full topology x scale matrix, ending on
  the acceptance point: >= 1000 simulated nodes across >= 4 tenants
  publishing PowerSensor3-class batches, sustaining >= 50k samples/s
  with a p99 range-query latency < 50 ms *under concurrent ingest*,
  per-tenant memory inside ``memory_cap_bytes()``, and zero silent
  drops (the ingest ledger balances exactly);
* ``bench_smoke_service`` — a seconds-sized run committed as
  ``service_smoke.txt``.  Only deterministic text is written: ingest
  ledgers of a ``wait``-mode loopback run (byte-identical on every run —
  the CI determinism gate diffs it) plus a scripted queue-overflow
  scenario proving sheds are *accounted*, never silent.  Wall-clock
  numbers (the only nondeterministic part) are printed, never written.
"""

import time

import numpy as np
from conftest import write_result

from repro.instrumentation.reporting import service_qc_summary
from repro.service import (
    POWERSENSOR3_HZ,
    TOPOLOGY_SCALE_MATRIX,
    LoadSpec,
    SyntheticSource,
    Tenant,
    TenantConfig,
    run_load,
)

SMOKE_SPEC = LoadSpec(
    name="smoke 4x8 pm_counters",
    tenants=4,
    nodes_per_tenant=8,
    channels_per_node=1,
    rate_hz=10.0,
    batch_samples=25,
    batches_per_node=3,
    queries=8,
    query_workers=2,
)

#: The acceptance-criteria point: 4 tenants x 250 nodes = 1000 nodes at
#: the kHz-class PowerSensor3 cadence.
ACCEPTANCE_SPEC = LoadSpec(
    name="acceptance 4x250 powersensor3",
    tenants=4,
    nodes_per_tenant=250,
    channels_per_node=1,
    rate_hz=POWERSENSOR3_HZ,
    batch_samples=200,
    batches_per_node=3,
    queries=60,
    query_workers=4,
)


def _shed_scenario_text() -> str:
    """Deterministic queue-overflow ledger (direct synchronous feed).

    Network-path shedding depends on drain timing, so the committed
    demonstration drives :meth:`Tenant.offer` directly: 10 batches of 40
    samples into a 100-sample queue with no drain — exactly 2 queued,
    8 shed, all accounted.
    """
    tenant = Tenant("overflow", TenantConfig(max_pending_samples=100))
    src = SyntheticSource("overflow", 0, "p", 1000.0)
    queued = 0
    for _ in range(10):
        cols = src.batch(40)
        parsed = {
            "p": (
                np.asarray(cols["t"]),
                np.asarray(cols["watts"]),
                np.asarray(cols["joules"]),
                np.zeros(40, dtype=np.uint8),
            )
        }
        queued += int(tenant.offer(0, parsed))
    tenant.drain()
    c = tenant.counters
    assert queued == 2 and c.samples_shed == 320, (queued, c.samples_shed)
    assert c.samples_offered == (
        c.samples_ingested + c.samples_shed + c.samples_rejected
    )
    lines = [
        "shed scenario: 10 x 40-sample batches into a 100-sample queue, "
        "no drain between offers",
        f"queued: {queued} batches; "
        f"ledger: offered={c.samples_offered} ingested={c.samples_ingested} "
        f"shed={c.samples_shed} rejected={c.samples_rejected}",
        service_qc_summary([tenant.snapshot()]),
    ]
    return "\n".join(lines)


def bench_smoke_service(results_dir):
    """Deterministic service smoke (`make serve-smoke` / CI determinism gate)."""
    report = run_load(SMOKE_SPEC)  # no timer: deterministic output only
    assert report.accounting_identity_holds
    assert report.memory_within_cap
    assert report.shed_samples == 0, "wait mode must never shed"
    assert report.ingested_samples == SMOKE_SPEC.total_samples

    # The loopback run reproduces byte-for-byte.
    again = run_load(SMOKE_SPEC)
    assert report.deterministic_text() == again.deterministic_text()

    text = "\n".join(
        [
            report.deterministic_text(),
            "run-to-run: deterministic text byte-identical",
            "",
            _shed_scenario_text(),
        ]
    )
    write_result(results_dir, "service_smoke", text)


def bench_service_load(results_dir):
    """Full matrix + the acceptance point (wall-clock asserted, not committed).

    Only each point's deterministic text goes to the committed table; the
    wall-clock ``perf:`` lines are printed.
    """
    lines = []
    for spec in TOPOLOGY_SCALE_MATRIX:
        report = run_load(spec, timer=time.perf_counter)
        assert report.accounting_identity_holds, spec.name
        assert report.memory_within_cap, spec.name
        assert report.shed_samples == 0, spec.name
        lines.append(report.deterministic_text())
        lines.append("")
        print(report.perf_text())

    report = run_load(ACCEPTANCE_SPEC, timer=time.perf_counter)
    assert report.accounting_identity_holds
    assert report.memory_within_cap
    assert report.shed_samples == 0, "zero silent (or any) drops required"
    assert ACCEPTANCE_SPEC.total_nodes >= 1000
    assert ACCEPTANCE_SPEC.tenants >= 4
    assert report.samples_per_sec >= 50_000, (
        f"sustained {report.samples_per_sec:,.0f} samples/s < 50k floor"
    )
    assert report.queries_served > 0
    assert report.query_p99_ms < 50.0, (
        f"p99 range query {report.query_p99_ms:.2f} ms >= 50 ms under ingest"
    )
    lines.append(report.deterministic_text())
    print(report.perf_text())
    write_result(results_dir, "service_load", "\n".join(lines))
