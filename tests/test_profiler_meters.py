"""Seams between the profiler and the meters it reads.

The NVML-system profiler (CSCS-A100, miniHPC) reads its node counter and
its per-card window counters through PMT meters behind the resilient
ladder, like every other counter.  These tests pin that wiring:

* the ladder is value-transparent on a healthy run, on every system;
* a fault on the node or gpu0 source leaves the same window energies and
  health counters as before the sources became meters (literal
  ``float.hex`` values);
* a retry never reads ahead of the shared clock.
"""

import pytest

from repro.config import CSCS_A100, LUMI_G, MINIHPC, SUBSONIC_TURBULENCE
from repro.experiments.runner import run_scaled_experiment
from repro.hardware import Cluster, VirtualClock
from repro.instrumentation import EnergyProfiler
from repro.mpi import RankPlacement
from repro.pmt.backends.nvml import NvmlPMT
from repro.sensors import NodeTelemetry
from repro.sensors.inject import inject_fault


@pytest.mark.parametrize(
    "system,cards",
    [(LUMI_G, 8), (CSCS_A100, 8), (MINIHPC, 2)],
    ids=("LUMI-G", "CSCS-A100", "miniHPC"),
)
def test_healthy_ladder_is_value_transparent(system, cards):
    wrapped, bare = (
        run_scaled_experiment(
            system, SUBSONIC_TURBULENCE, cards, num_steps=3, resilient=resilient
        ).run
        for resilient in (True, False)
    )
    assert wrapped.node_windows == bare.node_windows
    assert len(wrapped.records) == len(bare.records)
    for w, b in zip(wrapped.records, bare.records):
        assert (w.rank, w.function, w.calls) == (b.rank, b.function, b.calls)
        assert w.seconds == b.seconds
        assert w.joules == b.joules
        # The only region health a healthy wrapped run books is its reads.
        assert set(w.health) == {"reads"}
        assert b.health == {}
    assert [h.status for h in wrapped.telemetry_health] == ["ok"] * len(
        wrapped.node_windows
    )
    assert bare.telemetry_health == []


def _fault_kwargs(kind, run):
    """Place the fault mid-way through the instrumented window."""
    mid = 0.5 * (run.app_start + run.app_end)
    if kind == "freeze":
        return {"freeze_at": mid}
    if kind == "dropout":
        return {"outage_start": mid, "outage_end": mid + 0.25 * run.app_seconds}
    return {"probability": 0.05, "magnitude_watts": 50_000.0, "seed": 0}


#: Node 0's window (node, cpu, card0..3 joules as ``float.hex``) and
#: health record for each fault on a 4-card, 6-step CSCS-A100 turbulence
#: run, recorded when the node and window sources were plain ``read(t)``
#: sensors behind their own sensor-level ladder.
_HEALTHY_CARDS = (
    "0x1.90f7a5e353f7ep+12",
    "0x1.91afe76c8b438p+12",
    "0x1.90ad916872b00p+12",
    "0x1.90b7d70a3d700p+12",
)
_CPU = "0x1.5407d6eefa1e4p+11"
_NODE = "0x1.f0ac000000000p+14"
PINNED = {
    ("node", "freeze"): (
        ("0x1.ff028907ff820p+14", _CPU, *_HEALTHY_CARDS),
        dict(stuck_reads=88, stuck_detections=1),
        ["node"],
    ),
    ("node", "dropout"): (
        (_NODE, _CPU, *_HEALTHY_CARDS),
        dict(retries=150, gaps_interpolated=50, gap_seconds="0x1.5041cbf0cc5c0p+2"),
        ["node"],
    ),
    ("node", "glitch"): (
        (_NODE, _CPU, *_HEALTHY_CARDS),
        dict(glitches_rejected=10),
        [],
    ),
    ("gpu0", "freeze"): (
        (_NODE, _CPU, "0x1.8f5ad0276dfd8p+12", *_HEALTHY_CARDS[1:]),
        dict(stuck_reads=143, stuck_detections=2),
        ["gpu0"],
    ),
    ("gpu0", "dropout"): (
        (_NODE, _CPU, *_HEALTHY_CARDS),
        dict(retries=252, gaps_interpolated=84, gap_seconds="0x1.5041cbf0cc5c0p+3"),
        ["gpu0"],
    ),
    ("gpu0", "glitch"): (
        (_NODE, _CPU, *_HEALTHY_CARDS),
        dict(glitches_rejected=18),
        [],
    ),
}


@pytest.fixture(scope="module")
def cscs_baseline():
    return run_scaled_experiment(CSCS_A100, SUBSONIC_TURBULENCE, 4, num_steps=6).run


@pytest.mark.parametrize("target,kind", sorted(PINNED))
def test_faulted_window_and_health_pinned(cscs_baseline, target, kind):
    run = run_scaled_experiment(
        CSCS_A100,
        SUBSONIC_TURBULENCE,
        4,
        num_steps=6,
        inject_fault=kind,
        fault_target=target,
        fault_kwargs=_fault_kwargs(kind, cscs_baseline),
    ).run
    joules, counters, degraded = PINNED[(target, kind)]
    window = run.node_windows[0]
    got = (window.node_joules, window.cpu_joules, *window.card_joules)
    assert tuple(v.hex() for v in got) == joules
    health = run.telemetry_health[0]
    expected = dict(
        reads=1794,
        retries=0,
        retry_successes=0,
        gaps_interpolated=0,
        gap_seconds="0x0.0p+0",
        glitches_rejected=0,
        stuck_reads=0,
        stuck_detections=0,
        suspect_intervals=0,
    )
    expected.update(counters)
    actual = {name: getattr(health, name) for name in expected}
    actual["gap_seconds"] = health.gap_seconds.hex()
    assert actual == expected
    assert health.degraded_children == degraded
    assert health.status == ("degraded" if degraded else "ok")


def test_retry_never_reads_ahead_of_the_clock():
    """A gpu0 dropout ending 0.1 s after a profiler boundary: the window
    read at the boundary is interpolated at the boundary time, never the
    counter a backed-off retry would find at ``t + 0.15``."""

    def stack():
        clock = VirtualClock()
        cluster = Cluster("c", clock, CSCS_A100.node_spec, 1, CSCS_A100.network)
        node = cluster.nodes[0]
        for gpu in node.gpus:
            gpu.set_load(0.8, 0.6)
        node.cpu.set_load(0.7, 0.5)
        return clock, cluster, NodeTelemetry(node, CSCS_A100, clock)

    clock, cluster, tel = stack()
    profiler = EnergyProfiler(RankPlacement(cluster), [tel], CSCS_A100)
    clock.advance_to(5.0)
    profiler.start_app()
    inject_fault(tel, "dropout", "gpu0", outage_start=5.5, outage_end=6.1)
    clock.advance_to(6.0)
    profiler.end_app()
    run = profiler.gather("t", 1, 1e6)

    # The same card read on a twin stack at the window start.
    twin_clock, _, twin_tel = stack()
    twin_clock.advance_to(5.0)
    start = NvmlPMT(twin_tel, device_index=0).read()
    twin_clock.advance_to(6.15)
    ahead = NvmlPMT(twin_tel, device_index=0).read()

    served = start.joules + start.watts * (6.0 - start.timestamp)
    assert run.node_windows[0].card_joules[0] == served - start.joules
    assert run.node_windows[0].card_joules[0] != ahead.joules - start.joules
    health = run.telemetry_health[0]
    assert health.retries == 3
    assert health.retry_successes == 0
    assert health.gaps_interpolated == 1
    assert health.degraded_children == ["gpu0"]
