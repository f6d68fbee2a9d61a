"""Fault × backend matrix: every failure mode from :mod:`repro.sensors.faults`
against every PMT backend behind the resilient layer, plus the ladder's
rungs over the profiler's Slurm node meter.

Each test builds two identical single-node stacks on one shared clock — a
clean one and a sabotaged one — drives the same load on both, and checks
that the resilient meter (a) never raises — not even when an outage covers
the very first read (it bottoms out at a zero-baseline state),
(b) keeps the reported energy within the documented bound of the clean
meter, and (c) accounts for every mitigation in its health record.
"""

import math

import pytest

import repro.pmt as pmt
from repro.config import CSCS_A100, LUMI_G
from repro.errors import BackendError
from repro.hardware import Node, VirtualClock
from repro.instrumentation.profiler import _SlurmNodePMT
from repro.pmt.state import Measurement, State
from repro.sensors import NodeTelemetry
from repro.sensors.inject import inject_fault
from repro.sensors.resilient import GLITCH_MARGIN


def _pair(system):
    """Two identical nodes + telemetries sharing one clock."""
    clock = VirtualClock()
    clean = Node("clean", clock, system.node_spec)
    fault = Node("fault", clock, system.node_spec)
    return (
        clock,
        (clean, NodeTelemetry(clean, system, clock)),
        (fault, NodeTelemetry(fault, system, clock)),
    )


def _load(node):
    for gpu in node.gpus:
        gpu.set_load(0.8, 0.6)
    node.cpu.set_load(0.7, 0.5)


def _drive(clock, meters, steps=60, dt=0.5):
    """Advance in lockstep, reading every meter each step; return the last
    state of each meter."""
    last = None
    for _ in range(steps):
        clock.advance(dt)
        last = [m.read() for m in meters]
    return last


def _resilient(backend, tel, *, label, bound, **kwargs):
    inner = pmt.create(backend, telemetry=tel, **kwargs)
    return pmt.create(
        "resilient", inner=inner, label=label, plausible_max_watts=bound
    )


class TestNvmlResilient:
    """NVML (CSCS-A100): counter-difference energy path."""

    def test_freeze_detected_and_extrapolated(self):
        clock, (cn, ct), (fn, ft) = _pair(CSCS_A100)
        inject_fault(ft, "freeze", "gpu0", freeze_at=10.0)
        spec = CSCS_A100.node_spec
        bound = GLITCH_MARGIN * spec.card_peak_watts
        clean = pmt.create("nvml", telemetry=ct, device_index=0)
        res = _resilient("nvml", ft, label="gpu0", bound=bound, device_index=0)
        _load(cn)
        _load(fn)
        (s_clean, s_fault) = _drive(clock, [clean, res])
        assert res.health.stuck_detections == 1
        assert res.health.degraded
        # Constant load: extrapolation from the freeze point is near exact.
        assert s_fault.joules == pytest.approx(s_clean.joules, rel=0.02)
        assert s_fault.primary.quality == "extrapolated"

    def test_dropout_interpolated(self):
        clock, (cn, ct), (fn, ft) = _pair(CSCS_A100)
        inject_fault(ft, "dropout", "gpu0", outage_start=10.0, outage_end=20.0)
        clean = pmt.create("nvml", telemetry=ct, device_index=0)
        res = _resilient("nvml", ft, label="gpu0", bound=None, device_index=0)
        _load(cn)
        _load(fn)
        (s_clean, s_fault) = _drive(clock, [clean, res])
        # 20 reads in [10, 20) at 0.5 s spacing, each retried to exhaustion.
        assert res.health.gaps_interpolated == 20
        assert res.health.retries == 20 * res.max_retries
        assert res.health.gap_seconds == pytest.approx(10.0)
        assert res.health.degraded
        # The counter resumes at the true value, so the final read recovers.
        assert s_fault.joules == pytest.approx(s_clean.joules, rel=0.01)

    def test_glitch_rejected_energy_untouched(self):
        clock, (cn, ct), (fn, ft) = _pair(CSCS_A100)
        inject_fault(
            ft, "glitch", "gpu0", probability=1.0, magnitude_watts=50_000.0
        )
        spec = CSCS_A100.node_spec
        bound = GLITCH_MARGIN * spec.card_peak_watts
        clean = pmt.create("nvml", telemetry=ct, device_index=0)
        res = _resilient("nvml", ft, label="gpu0", bound=bound, device_index=0)
        _load(cn)
        _load(fn)
        (s_clean, s_fault) = _drive(clock, [clean, res])
        assert res.health.glitches_rejected == res.health.reads
        # Glitches live in the power register only; energy is exact.
        assert s_fault.joules == s_clean.joules
        assert s_fault.watts <= bound
        # Glitch rejection alone does not degrade the meter.
        assert res.health.status == "ok"


class TestRaplResilient:
    """RAPL (CSCS-A100): unwrapped-register energy, derived watts."""

    def test_freeze_detected_and_extrapolated(self):
        clock, (cn, ct), (fn, ft) = _pair(CSCS_A100)
        inject_fault(ft, "freeze", "cpu", freeze_at=10.0)
        clean = pmt.create("rapl", telemetry=ct)
        res = _resilient("rapl", ft, label="cpu", bound=None)
        _load(cn)
        _load(fn)
        (s_clean, s_fault) = _drive(clock, [clean, res])
        assert res.health.stuck_detections == 1
        # Anchor watts are the last healthy derived power: near-exact
        # extrapolation under constant load.
        assert s_fault.joules == pytest.approx(s_clean.joules, rel=0.05)

    def test_dropout_interpolated_then_recovers(self):
        clock, (cn, ct), (fn, ft) = _pair(CSCS_A100)
        inject_fault(ft, "dropout", "cpu", outage_start=10.0, outage_end=20.0)
        clean = pmt.create("rapl", telemetry=ct)
        res = _resilient("rapl", ft, label="cpu", bound=None)
        _load(cn)
        _load(fn)
        (s_clean, s_fault) = _drive(clock, [clean, res])
        assert res.health.gaps_interpolated == 20
        assert res.health.degraded
        # The register kept counting through the outage; the first read
        # after recovery unwraps the whole 10.5 s interval (below the
        # max safe single-wrap bound), so the total is exact again.
        assert res.inner.suspect_intervals == 0
        assert s_fault.joules == pytest.approx(s_clean.joules, rel=0.01)

    def test_glitch_cannot_corrupt_rapl(self):
        # RAPL has no power register: its watts are derived by differencing
        # energy reads, so a spiked counter power register never enters the
        # measurement — which is also why production wrappers give RAPL no
        # plausibility bound (derived watts legitimately alias high at
        # sub-refresh read spacing).
        clock, (cn, ct), (fn, ft) = _pair(CSCS_A100)
        inject_fault(
            ft, "glitch", "cpu", probability=1.0, magnitude_watts=50_000.0
        )
        clean = pmt.create("rapl", telemetry=ct)
        res = _resilient("rapl", ft, label="cpu", bound=None)
        _load(cn)
        _load(fn)
        (s_clean, s_fault) = _drive(clock, [clean, res])
        assert res.health.glitches_rejected == 0
        assert s_fault.joules == s_clean.joules
        assert s_fault.watts == s_clean.watts


class TestRocmResilient:
    """ROCm (LUMI-G): polling-integration energy path."""

    def test_glitch_clamped_before_integration(self):
        # The clamp must live inside RocmPMT: a glitched power reading
        # would otherwise be integrated into the energy accumulator before
        # any outer wrapper could reject it.
        clock, (cn, ct), (fn, ft) = _pair(LUMI_G)
        clean = pmt.create("rocm", telemetry=ct, device_index=0)
        faulty = pmt.create("rocm", telemetry=ft, device_index=0)
        _load(cn)
        _load(fn)
        clock.advance(0.5)
        clean.read(), faulty.read()  # seed last-good power pre-fault
        inject_fault(
            ft, "glitch", "rocm0", probability=0.3,
            magnitude_watts=100_000.0, seed=1,
        )
        (s_clean, s_fault) = _drive(clock, [clean, faulty])
        assert faulty.glitches_rejected > 0
        assert s_fault.joules == pytest.approx(s_clean.joules, rel=0.05)

    def test_freeze_is_bounded_under_steady_load(self):
        # A frozen power register is undetectable to the accumulator-based
        # stuck detector (the integral keeps growing), but the error stays
        # bounded by the power drift since the freeze — zero here.
        clock, (cn, ct), (fn, ft) = _pair(LUMI_G)
        inject_fault(ft, "freeze", "rocm0", freeze_at=10.0)
        clean = pmt.create("rocm", telemetry=ct, device_index=0)
        res = _resilient("rocm", ft, label="gpu0", bound=None, device_index=0)
        _load(cn)
        _load(fn)
        (s_clean, s_fault) = _drive(clock, [clean, res])
        assert s_fault.joules == pytest.approx(s_clean.joules, rel=0.05)

    def test_dropout_interpolated_then_bridged(self):
        clock, (cn, ct), (fn, ft) = _pair(LUMI_G)
        inject_fault(ft, "dropout", "rocm0", outage_start=10.0, outage_end=20.0)
        clean = pmt.create("rocm", telemetry=ct, device_index=0)
        res = _resilient("rocm", ft, label="gpu0", bound=None, device_index=0)
        _load(cn)
        _load(fn)
        (s_clean, s_fault) = _drive(clock, [clean, res])
        assert res.health.gaps_interpolated == 20
        assert res.health.degraded
        # After recovery the trapezoid spans the whole outage at constant
        # power, so the integral is bridged almost exactly.
        assert s_fault.joules == pytest.approx(s_clean.joules, rel=0.05)


class TestCrayResilient:
    """Cray pm_counters (LUMI-G): multi-measurement single meter."""

    def test_healthy_read_serves_inner_state_unchanged(self):
        clock, (cn, ct), _ = _pair(LUMI_G)
        inner = pmt.create("cray", telemetry=ct)
        inner_states = []
        read_inner = inner.read_state

        def recording_read_state():
            inner_states.append(read_inner())
            return inner_states[-1]

        inner.read_state = recording_read_state
        res = pmt.create(
            "resilient", inner=inner, label="cray",
            plausible_max_watts=GLITCH_MARGIN * LUMI_G.node_spec.peak_watts,
        )
        _load(cn)
        states = []
        for _ in range(3):
            clock.advance(0.5)
            states.append(res.read())
        assert len(inner_states) == 3
        assert all(s is i for s, i in zip(states, inner_states))
        assert res.health.reads == 3 and not res.health.degraded

    def test_freeze_on_node_counter_isolated_per_measurement(self):
        clock, (cn, ct), (fn, ft) = _pair(LUMI_G)
        inject_fault(ft, "freeze", "node", freeze_at=10.0)
        spec = LUMI_G.node_spec
        bound = GLITCH_MARGIN * spec.peak_watts
        clean = pmt.create("cray", telemetry=ct)
        res = _resilient("cray", ft, label="cray", bound=bound)
        _load(cn)
        _load(fn)
        (s_clean, s_fault) = _drive(clock, [clean, res])
        # Only the node accumulator froze; stuck detection is per
        # measurement, so the accel counters stay pristine.
        assert res.health.stuck_detections == 1
        assert s_fault.joules_of("accel0") == s_clean.joules_of("accel0")
        assert s_fault.measurement("accel0").quality == "ok"
        assert s_fault.measurement("node").quality == "extrapolated"
        assert s_fault.joules_of("node") == pytest.approx(
            s_clean.joules_of("node"), rel=0.05
        )

    def test_dropout_on_accel_interpolates_whole_state(self):
        clock, (cn, ct), (fn, ft) = _pair(LUMI_G)
        inject_fault(ft, "dropout", "gpu0", outage_start=10.0, outage_end=20.0)
        clean = pmt.create("cray", telemetry=ct)
        res = _resilient("cray", ft, label="cray", bound=None)
        _load(cn)
        _load(fn)
        (s_clean, s_fault) = _drive(clock, [clean, res])
        # One meter serves all counters: a failing accel file takes the
        # whole read down, so every measurement is interpolated in-window.
        assert res.health.gaps_interpolated == 20
        assert res.health.degraded
        assert s_fault.joules == pytest.approx(s_clean.joules, rel=0.02)

    def test_glitch_on_node_power_rejected(self):
        clock, (cn, ct), (fn, ft) = _pair(LUMI_G)
        spec = LUMI_G.node_spec
        bound = GLITCH_MARGIN * spec.peak_watts
        inject_fault(
            ft, "glitch", "node", probability=1.0,
            magnitude_watts=10.0 * bound,
        )
        clean = pmt.create("cray", telemetry=ct)
        res = _resilient("cray", ft, label="cray", bound=bound)
        _load(cn)
        _load(fn)
        (s_clean, s_fault) = _drive(clock, [clean, res])
        assert res.health.glitches_rejected == res.health.reads
        assert s_fault.joules_of("node") == s_clean.joules_of("node")
        assert s_fault.watts_of("node") <= bound
        assert res.health.status == "ok"


class TestCompositeResilient:
    """Composite over resilient children (the production NVML/RAPL stack)."""

    @staticmethod
    def _meters(ct, ft, resilient=True):
        from repro.experiments.runner import _node_meter

        return _node_meter(ct, resilient=resilient), _node_meter(
            ft, resilient=resilient
        )

    def test_dropout_child_interpolated_not_degraded(self):
        clock, (cn, ct), (fn, ft) = _pair(CSCS_A100)
        inject_fault(ft, "dropout", "gpu0", outage_start=10.0, outage_end=20.0)
        clean, faulty = self._meters(ct, ft)
        _load(cn)
        _load(fn)
        for _ in range(30):  # into the outage window
            clock.advance(0.5)
            s_clean, s_fault = clean.read(), faulty.read()
        # The resilient child absorbed the outage, so the composite never
        # saw a failure: the child is interpolated, not excluded.
        assert s_fault.measurement("gpu0.gpu0").quality == "interpolated"
        assert faulty.degraded_children == ()
        for _ in range(30):
            clock.advance(0.5)
            s_clean, s_fault = clean.read(), faulty.read()
        assert s_fault.joules == pytest.approx(s_clean.joules, rel=0.01)

    def test_dropout_without_resilient_hits_composite_backstop(self):
        clock, (cn, ct), (fn, ft) = _pair(CSCS_A100)
        inject_fault(ft, "dropout", "gpu0", outage_start=10.0, outage_end=20.0)
        clean, faulty = self._meters(ct, ft, resilient=False)
        _load(cn)
        _load(fn)
        clock.advance(5.0)
        clean.read(), faulty.read()  # held state before the outage
        clock.advance(10.0)  # t = 15, inside the window
        s_fault = faulty.read()
        assert faulty.degraded_children == ("gpu0",)
        assert s_fault.measurement("gpu0.gpu0").quality == "degraded"
        assert s_fault.primary.quality == "degraded"
        # Held values are visible but excluded from the primary sum.
        s_clean = clean.read()
        assert s_fault.joules < s_clean.joules

    def test_freeze_child_extrapolated(self):
        clock, (cn, ct), (fn, ft) = _pair(CSCS_A100)
        inject_fault(ft, "freeze", "gpu0", freeze_at=10.0)
        clean, faulty = self._meters(ct, ft)
        _load(cn)
        _load(fn)
        (s_clean, s_fault) = _drive(clock, [clean, faulty])
        assert s_fault.measurement("gpu0.gpu0").quality == "extrapolated"
        assert s_fault.joules == pytest.approx(s_clean.joules, rel=0.02)

    def test_glitch_child_rejected(self):
        clock, (cn, ct), (fn, ft) = _pair(CSCS_A100)
        inject_fault(
            ft, "glitch", "gpu0", probability=1.0, magnitude_watts=50_000.0
        )
        clean, faulty = self._meters(ct, ft)
        _load(cn)
        _load(fn)
        (s_clean, s_fault) = _drive(clock, [clean, faulty])
        assert s_fault.measurement("gpu0.gpu0").quality == "rejected"
        assert s_fault.joules == s_clean.joules

    def test_failure_before_first_read_serves_zero_baseline(self):
        # An outage covering the very first read cannot crash the stack:
        # the resilient child serves a zero-power, zero-energy state in
        # its declared shape, so the composite keeps reading and the gap
        # stays on the child's books.
        clock, (cn, ct), (fn, ft) = _pair(CSCS_A100)
        inject_fault(ft, "dropout", "gpu0", outage_start=0.0, outage_end=1e9)
        _, faulty = self._meters(ct, ft)
        clock.advance(1.0)
        state = faulty.read()
        assert state.measurement("gpu0.gpu0").quality == "interpolated"
        assert state.joules_of("gpu0.gpu0") == 0.0
        assert faulty.degraded_children == ()


class TestNodeMeterLadder:
    """The ladder over the profiler's Slurm node meter (the IPMI sensor on
    CSCS-A100: 1 Hz ticks, and a state stamped with the tick it reflects)."""

    @staticmethod
    def _stack(bound=None):
        """``(clock, clean telemetry, faulty telemetry, wrapped meter)``;
        faults go into the faulty telemetry, read at read time."""
        clock, (cn, ct), (fn, ft) = _pair(CSCS_A100)
        _load(cn)
        _load(fn)
        res = pmt.create(
            "resilient",
            inner=_SlurmNodePMT(ft),
            label="node",
            plausible_max_watts=bound,
        )
        return clock, ct, ft, res

    def test_transparent_on_healthy_sensor(self):
        clock, ct, _, res = self._stack()
        clock.advance_to(5.5)
        state = res.read()
        assert state == _SlurmNodePMT(ct).read()
        assert state.timestamp == 5.0  # the IPMI tick, not the read instant
        assert res.health.reads == 1
        assert res.health.status == "ok"

    def test_interpolates_across_long_outage(self):
        clock, _, ft, res = self._stack()
        inject_fault(ft, "dropout", "node", outage_start=5.0, outage_end=30.0)
        clock.advance_to(4.5)
        before = res.read()
        clock.advance_to(6.0)
        state = res.read()
        assert res.health.gaps_interpolated == 1
        assert res.health.retries == res.max_retries
        assert res.health.retry_successes == 0
        assert res.health.gap_seconds == pytest.approx(1.5)
        assert res.health.status == "degraded"
        assert state.primary.quality == "interpolated"
        # Extrapolated from the last good state's own (tick) timestamp.
        assert before.timestamp == 4.0
        assert state.joules == before.joules + before.watts * (6.0 - 4.0)

    def test_zero_baseline_without_last_good_value(self):
        # An outage covering the very first read cannot crash the run:
        # the ladder bottoms out at a zero-power, zero-energy baseline
        # (accumulators are relative), with the gap on the books.
        clock, _, ft, res = self._stack()
        inject_fault(ft, "dropout", "node", outage_start=0.0, outage_end=100.0)
        clock.advance_to(1.0)
        state = res.read()
        assert state.names() == ("node",)
        assert state.watts == 0.0
        assert state.joules == 0.0
        assert res.health.gaps_interpolated == 1
        assert res.health.status == "degraded"
        # Still held at the zero baseline while the outage lasts.
        clock.advance_to(5.0)
        assert res.read().joules == 0.0
        assert res.health.gap_seconds == pytest.approx(4.0)

    def test_stuck_counter_detected_and_extrapolated(self):
        clock, ct, ft, res = self._stack()
        inject_fault(ft, "freeze", "node", freeze_at=10.5)
        states = []
        for k in range(31):
            clock.advance_to(k + 0.5)
            states.append(res.read())
        assert res.health.stuck_detections == 1
        assert res.health.stuck_reads > 0
        assert res.health.status == "degraded"
        first, frozen, last = states[0], states[10], states[-1]
        assert last.primary.quality == "extrapolated"
        assert last.timestamp == 30.5
        # Extrapolation starts at the frozen tick (10.0, the anchor
        # state's own timestamp), not the read instant that anchored it.
        assert frozen.timestamp == 10.0
        assert last.joules == frozen.joules + last.watts * (30.5 - 10.0)
        # Steady load: the extrapolated energy tracks the true draw.
        truth = ct.ipmi.counter.true_energy
        assert last.joules - first.joules == pytest.approx(
            truth(30.5) - truth(first.timestamp), rel=0.01
        )

    def test_gap_after_a_freeze_continues_from_the_read_instant(self):
        clock, _, ft, res = self._stack()
        inject_fault(ft, "freeze", "node", freeze_at=10.5)
        inject_fault(ft, "dropout", "node", outage_start=35.0, outage_end=50.0)
        for k in range(35):
            clock.advance_to(k + 0.5)
            stuck = res.read()
        clock.advance_to(35.5)
        gap = res.read()
        # The extrapolated state is the energy at its read instant, so the
        # gap is bridged from there, not from the frozen tick.
        assert stuck.primary.quality == "extrapolated"
        assert stuck.timestamp == 34.5
        assert gap.primary.quality == "interpolated"
        assert gap.joules == stuck.joules + stuck.watts * (35.5 - 34.5)

    def test_within_refresh_reads_not_flagged_stuck(self):
        # A healthy sampled counter repeats values inside one refresh
        # period; the grace window must keep that from tripping detection.
        clock, _, _, res = self._stack()
        for k in range(12):
            clock.advance_to(1.0 + 0.25 * k)
            res.read()
        assert res.health.stuck_reads == 0
        assert res.health.status == "ok"

    def test_glitch_rejected_and_substituted(self):
        clock, ct, ft, res = self._stack(bound=1000.0)
        inject_fault(ft, "glitch", "node", probability=1.0, magnitude_watts=9e9)
        clock.advance_to(1.0)
        first = res.read()
        assert first.watts == 1000.0  # no last good: clamped to the bound
        clock.advance_to(2.0)
        second = res.read()
        assert second.watts == 1000.0  # substituted from last good
        assert second.primary.quality == "rejected"
        assert second.joules == _SlurmNodePMT(ct).read().joules
        assert res.health.glitches_rejected == 2
        # Glitch rejection alone never degrades the meter.
        assert res.health.status == "ok"

    def test_non_finite_power_rejected_as_a_glitch(self):
        """A NaN power register fails the plausibility bound like a spike."""

        class NanPower(_SlurmNodePMT):
            def read_state(self):
                state = super().read_state()
                m = state.primary
                nan = Measurement(name=m.name, joules=m.joules, watts=math.nan)
                return State(timestamp=state.timestamp, measurements=(nan,))

        clock, ct, _, _ = self._stack()
        res = pmt.create(
            "resilient", inner=NanPower(ct), label="node", plausible_max_watts=1e3
        )
        clock.advance_to(1.0)
        state = res.read()
        assert state.watts == 1e3
        assert state.primary.quality == "rejected"
        assert state.joules == _SlurmNodePMT(ct).read().joules
        assert res.health.glitches_rejected == 1

    def test_parameter_validation(self):
        _, ct, _, _ = self._stack()
        inner = _SlurmNodePMT(ct)
        with pytest.raises(BackendError):
            pmt.create("resilient", inner=inner, max_retries=-1)
        with pytest.raises(BackendError):
            pmt.create("resilient", inner=inner, stuck_reads=0)
        with pytest.raises(BackendError):
            pmt.create("resilient", inner=inner, plausible_max_watts=0.0)
