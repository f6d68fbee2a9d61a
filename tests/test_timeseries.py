"""Tests for the streaming telemetry subsystem: store, spans, collector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pmt as pmt
from repro.config import CSCS_A100, LUMI_G, SEDOV_BLAST
from repro.errors import AnalysisError, MeasurementError
from repro.hardware import Node, PowerTrace, VirtualClock
from repro.pmt import PmtSampler
from repro.pmt.sampler import SampleTick
from repro.sensors import NodeTelemetry
from repro.timeseries import (
    ChannelSeries,
    LiveView,
    SampleStore,
    SpanRecorder,
    TimeseriesCollector,
    attach_live_printer,
    lttb_indices,
)


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def lumi(clock):
    node = Node("n0", clock, LUMI_G.node_spec)
    return node, NodeTelemetry(node, LUMI_G, clock)


# ---------------------------------------------------------------------------
# SampleStore / ChannelSeries
# ---------------------------------------------------------------------------


class TestChannelSeries:
    def test_append_and_latest(self):
        ch = ChannelSeries()
        ch.append(0.0, 100.0, 0.0)
        ch.append(1.0, 110.0, 105.0, quality="interpolated")
        t, w, j, q = ch.latest
        assert (t, w, j, q) == (1.0, 110.0, 105.0, "interpolated")
        assert ch.total_appended == 2

    def test_rejects_time_regression(self):
        ch = ChannelSeries()
        ch.append(5.0, 1.0, 0.0)
        with pytest.raises(AnalysisError):
            ch.append(4.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "times",
        [[0.0, np.nan, 2.0], [np.nan, 1.0], [1.0, np.nan], [np.nan]],
        ids=["inside", "first", "last", "alone"],
    )
    def test_rejects_nan_times(self, times):
        ch = ChannelSeries()
        zeros = np.zeros(len(times))
        with pytest.raises(AnalysisError):
            ch.extend(np.array(times), zeros, zeros)
        assert ch.total_appended == 0
        assert len(ch.points()["t"]) == 0

    def test_nan_batch_cannot_unlock_a_regression(self):
        """A rejected NaN batch leaves the last stored time in force."""
        ch = ChannelSeries()
        ch.extend(np.array([0.0, 2.0]), np.zeros(2), np.zeros(2))
        with pytest.raises(AnalysisError):
            ch.extend(np.array([np.nan, 3.0]), np.zeros(2), np.zeros(2))
        with pytest.raises(AnalysisError):
            ch.extend(np.array([1.0]), np.zeros(1), np.zeros(1))
        assert ch.points()["t"].tolist() == [0.0, 2.0]

    @pytest.mark.parametrize(
        "times",
        [[0.0, np.inf], [-np.inf, 0.0], [np.inf]],
        ids=["inf-last", "neg-inf-first", "inf-alone"],
    )
    def test_rejects_infinite_times(self, times):
        """An infinite time is refused, and the channel stays writable."""
        ch = ChannelSeries()
        zeros = np.zeros(len(times))
        with pytest.raises(AnalysisError):
            ch.extend(np.array(times), zeros, zeros)
        assert ch.total_appended == 0
        ch.extend(np.array([1.0]), np.zeros(1), np.zeros(1))
        assert ch.points()["t"].tolist() == [1.0]

    def test_rejects_unknown_quality(self):
        ch = ChannelSeries()
        with pytest.raises(AnalysisError):
            ch.append(0.0, 1.0, 0.0, quality="fabricated")

    def test_tiering_drains_raw_into_buckets(self):
        ch = ChannelSeries(raw_capacity=64, bucket_size=8, bucket_capacity=64)
        n = 200
        t = np.arange(n, dtype=float)
        w = np.full(n, 50.0)
        j = 50.0 * t
        ch.extend(t, w, j)
        stats = ch.stats()
        assert stats.total_appended == n
        assert stats.buckets > 0
        assert stats.raw <= 64
        # Every sample is represented: raw + bucketed counts add up.
        buckets = ch.tier_arrays("buckets")
        assert stats.raw + int(buckets["count"].sum()) == n

    def test_store_cap_is_the_channel_cap_per_channel(self):
        caps = dict(
            raw_capacity=40, bucket_size=5, bucket_capacity=7, lttb_capacity=9
        )
        store = SampleStore(**caps)
        per_channel = ChannelSeries(**caps).memory_cap_bytes()
        assert per_channel == 40 * 25 + 7 * 65 + 9 * 25
        assert store.memory_cap_bytes() == per_channel
        for name in ("a", "b", "c"):
            store.channel(0, name)
        assert store.memory_cap_bytes() == 3 * per_channel

    def test_memory_strictly_bounded_on_million_samples(self):
        store = SampleStore()
        ch = store.channel(0, "node")
        n = 1_000_000
        t = np.linspace(0.0, 1e5, n)
        w = 200.0 + 50.0 * np.sin(t / 500.0)
        dt = np.diff(t)
        j = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * dt)])
        ch.extend(t, w, j)
        assert ch.total_appended == n
        assert ch.nbytes <= store.memory_cap_bytes()
        # All three tiers are in play after a million samples.
        stats = ch.stats()
        assert stats.lttb > 0 and stats.buckets > 0 and stats.raw > 0

    def test_full_range_energy_exact_after_downsampling(self):
        ch = ChannelSeries(raw_capacity=64, bucket_size=8, bucket_capacity=32)
        n = 5000
        t = np.arange(n, dtype=float)
        w = 100.0 + (t % 7)
        j = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]))])
        ch.extend(t, w, j)
        # First and last knots are always retained, so the full-range
        # energy query is exact regardless of compression.
        assert ch.energy_between(t[0], t[-1]) == pytest.approx(
            j[-1] - j[0], rel=1e-12
        )

    def test_range_query_bisects(self):
        ch = ChannelSeries()
        t = np.arange(100, dtype=float)
        ch.extend(t, np.full(100, 10.0), 10.0 * t)
        out = ch.range_query(10.0, 20.0)
        assert out["t"][0] == 10.0
        assert out["t"][-1] == 20.0
        assert len(out["t"]) == 11

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(st.integers(0, 3), min_size=0, max_size=300),
        bounds=st.tuples(st.integers(-1, 400), st.integers(-1, 400)),
        on_seam=st.booleans(),
    )
    def test_range_query_equals_slicing_points(self, steps, bounds, on_seam):
        # Integer time steps (zeros repeat a timestamp) fill any mix of
        # tiers; bounds land on retained timestamps, seams included.
        ch = ChannelSeries(
            raw_capacity=16, bucket_size=4, bucket_capacity=8, lttb_capacity=8
        )
        t = np.cumsum(np.asarray(steps, dtype=float))
        ch.extend(t, 1.0 + t % 5, 2.0 * t)
        pts = ch.points()
        t0, t1 = sorted(float(b) for b in bounds)
        if on_seam and len(pts["t"]):
            # The first point of each tier after the first one present.
            seams = pts["t"][np.flatnonzero(np.diff(pts["tier"])) + 1]
            knots = [float(x) for x in seams] or [float(pts["t"][0])]
            t0 = t1 = knots[int(bounds[0]) % len(knots)]
        lo = int(np.searchsorted(pts["t"], t0, side="left"))
        hi = int(np.searchsorted(pts["t"], t1, side="right"))
        got = ch.range_query(t0, t1)
        assert list(got) == list(pts)
        for name, want in pts.items():
            assert got[name].dtype == want.dtype
            np.testing.assert_array_equal(got[name], want[lo:hi])

    def test_energy_between_rejects_reversed(self):
        ch = ChannelSeries()
        ch.append(0.0, 1.0, 0.0)
        with pytest.raises(AnalysisError):
            ch.energy_between(2.0, 1.0)

    def test_bucket_mean_is_energy_preserving(self):
        ch = ChannelSeries(raw_capacity=64, bucket_size=8, bucket_capacity=64)
        n = 128
        t = np.arange(n, dtype=float)
        rng = np.random.default_rng(7)
        w = rng.uniform(50.0, 400.0, n)
        j = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]))])
        ch.extend(t, w, j)
        b = ch.tier_arrays("buckets")
        span = b["t1"] - b["t0"]
        # Bucket rectangles integrate to the exact joules of their spans.
        np.testing.assert_allclose(
            b["watts_mean"] * span, b["joules1"] - b["joules0"], rtol=1e-12
        )

    def test_quality_worst_of_bucket(self):
        ch = ChannelSeries(raw_capacity=16, bucket_size=4, bucket_capacity=16)
        n = 64
        t = np.arange(n, dtype=float)
        q = np.zeros(n, dtype=np.uint8)
        q[5] = 3  # one "interpolated" sample early on
        ch.extend(t, np.full(n, 10.0), 10.0 * t, q)
        b = ch.tier_arrays("buckets")
        assert b["quality"].max() == 3
        assert ch.degraded_points() >= 1


class TestLttb:
    def test_keeps_endpoints(self):
        t = np.linspace(0, 10, 100)
        v = np.sin(t)
        idx = lttb_indices(t, v, 12)
        assert idx[0] == 0
        assert idx[-1] == 99
        assert len(idx) == 12
        assert np.all(np.diff(idx) > 0)

    def test_identity_when_small(self):
        t = np.arange(5.0)
        idx = lttb_indices(t, t, 10)
        assert len(idx) == 5

    def test_keeps_spike(self):
        t = np.arange(1000, dtype=float)
        v = np.zeros(1000)
        v[500] = 100.0  # a single spike must survive downsampling
        idx = lttb_indices(t, v, 50)
        assert 500 in idx


class TestSampleStore:
    def test_channels_sorted(self):
        store = SampleStore()
        store.record(1, "b", 0.0, 1.0, 0.0)
        store.record(0, "z", 0.0, 1.0, 0.0)
        store.record(0, "a", 0.0, 1.0, 0.0)
        assert store.channels() == [(0, "a"), (0, "z"), (1, "b")]
        assert (0, "a") in store
        assert len(store) == 3
        assert store.num_samples == 3


# ---------------------------------------------------------------------------
# Property: downsampled energy integral stays within 1 % of the raw trace
# ---------------------------------------------------------------------------


@st.composite
def power_profiles(draw):
    """A piecewise-constant power profile as (times, watts) breakpoints."""
    num_segments = draw(st.integers(min_value=2, max_value=12))
    durations = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=500.0),
            min_size=num_segments,
            max_size=num_segments,
        )
    )
    watts = draw(
        st.lists(
            st.floats(min_value=10.0, max_value=700.0),
            min_size=num_segments,
            max_size=num_segments,
        )
    )
    return durations, watts


class TestDownsampledIntegralProperty:
    @settings(max_examples=25, deadline=None)
    @given(profile=power_profiles(), seed=st.integers(0, 2**16))
    def test_integral_within_one_percent_of_raw_trace(self, profile, seed):
        durations, watts = profile
        trace = PowerTrace(initial_watts=watts[0])
        t = 0.0
        for dur, w in zip(durations, watts):
            trace.set_power(t, w)
            t += dur
        total_t = t
        # Sample the ground-truth trace densely through a deliberately
        # tiny store so every tier is exercised.
        ch = ChannelSeries(raw_capacity=64, bucket_size=8, bucket_capacity=32)
        times = np.linspace(0.0, total_t, 4000)
        ch.extend(
            times,
            trace.sample(times),
            np.asarray([trace.energy_until(x) for x in times]),
        )
        raw_total = trace.energy_until(total_t)
        # Full range: exact (both endpoints are retained knots).
        assert ch.energy_between(0.0, total_t) == pytest.approx(
            raw_total, rel=1e-9
        )
        # Random sub-ranges: within 1 % of the raw-trace total.
        rng = np.random.default_rng(seed)
        for _ in range(5):
            a, b = np.sort(rng.uniform(0.0, total_t, 2))
            got = ch.energy_between(a, b)
            want = trace.energy_between(a, b)
            assert abs(got - want) <= 0.01 * raw_total + 1e-6

    @settings(max_examples=10, deadline=None)
    @given(profile=power_profiles())
    def test_every_tier_integral_matches_trace_over_its_span(self, profile):
        durations, watts = profile
        trace = PowerTrace(initial_watts=watts[0])
        t = 0.0
        for dur, w in zip(durations, watts):
            trace.set_power(t, w)
            t += dur
        ch = ChannelSeries(raw_capacity=64, bucket_size=8, bucket_capacity=32)
        times = np.linspace(0.0, t, 3000)
        ch.extend(
            times,
            trace.sample(times),
            np.asarray([trace.energy_until(x) for x in times]),
        )
        total = trace.energy_until(t)
        raw = ch.tier_arrays("raw")
        buckets = ch.tier_arrays("buckets")
        lttb = ch.tier_arrays("lttb")
        spans = []
        if len(raw["t"]) > 1:
            spans.append((raw["t"][0], raw["t"][-1], raw["joules"]))
        if len(buckets["t0"]):
            spans.append(
                (buckets["t0"][0], buckets["t1"][-1],
                 np.asarray([buckets["joules0"][0], buckets["joules1"][-1]]))
            )
        if len(lttb["t"]) > 1:
            spans.append((lttb["t"][0], lttb["t"][-1], lttb["joules"]))
        for t0, t1, joules in spans:
            tier_energy = joules[-1] - joules[0]
            want = trace.energy_between(float(t0), float(t1))
            assert abs(tier_energy - want) <= 0.01 * max(total, 1.0)


class TestOversizedBatchProperty:
    """One batch larger than the raw ring must stream through cleanly.

    A wire batch (the telemetry service's ingest unit) can be wider than
    the raw tier, and a raw drain can then produce more buckets than the
    bucket tier holds in total.  Demotion must chunk through both tiers
    instead of overflowing, the memory cap must hold at every instant,
    and the full-range energy must survive exactly.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        bucket_size=st.integers(1, 16),
        raw_mult=st.integers(2, 8),
        bucket_capacity=st.integers(1, 48),
        batch_mult=st.integers(2, 20),
        watts=st.floats(min_value=1.0, max_value=900.0),
    )
    def test_single_oversized_batch_at_the_memory_cap(
        self, bucket_size, raw_mult, bucket_capacity, batch_mult, watts
    ):
        raw_capacity = bucket_size * raw_mult
        ch = ChannelSeries(
            raw_capacity=raw_capacity,
            bucket_size=bucket_size,
            bucket_capacity=bucket_capacity,
            lttb_capacity=8,
        )
        cap = ch.memory_cap_bytes()
        n = raw_capacity * batch_mult  # strictly wider than the raw ring
        times = np.linspace(0.0, 100.0, n)
        joules = watts * times
        ch.extend(times, np.full(n, watts), joules)
        assert ch.total_appended == n
        assert ch.nbytes <= cap
        # Both endpoints are retained knots: full-range energy is exact.
        assert ch.energy_between(0.0, 100.0) == pytest.approx(
            float(joules[-1]), rel=1e-12
        )

    def test_repeated_oversized_batches_stay_capped(self):
        ch = ChannelSeries(
            raw_capacity=64, bucket_size=8, bucket_capacity=8, lttb_capacity=16
        )
        cap = ch.memory_cap_bytes()
        t0 = 0.0
        for _ in range(20):
            times = np.linspace(t0, t0 + 10.0, 500)
            ch.extend(times, np.full(500, 100.0), 100.0 * times)
            t0 += 10.0
            assert ch.nbytes <= cap
        assert ch.total_appended == 10_000


# ---------------------------------------------------------------------------
# SpanRecorder
# ---------------------------------------------------------------------------


class TestSpanRecorder:
    def test_begin_end_roundtrip(self):
        rec = SpanRecorder()
        rec.begin(0, 1.0, node_index=2)
        rec.end(0, "Density", 3.5)
        assert len(rec) == 1
        span = rec.spans[0]
        assert span.function == "Density"
        assert span.seconds == pytest.approx(2.5)
        assert span.node_index == 2
        assert rec.last_function(0) == "Density"

    def test_double_begin_rejected(self):
        rec = SpanRecorder()
        rec.begin(0, 1.0)
        with pytest.raises(MeasurementError):
            rec.begin(0, 2.0)

    def test_end_without_begin_rejected(self):
        rec = SpanRecorder()
        with pytest.raises(MeasurementError):
            rec.end(0, "Density", 1.0)

    def test_function_at_bisects(self):
        rec = SpanRecorder()
        for k, name in enumerate(["A", "B", "C"]):
            rec.begin(0, float(2 * k))
            rec.end(0, name, float(2 * k + 1))
        assert rec.function_at(0, 0.5) == "A"
        assert rec.function_at(0, 2.5) == "B"
        assert rec.function_at(0, 4.5) == "C"
        assert rec.function_at(0, 1.5) is None  # gap between spans
        assert rec.function_at(0, -1.0) is None

    def test_events_sorted_canonical_order(self):
        rec = SpanRecorder()
        rec.begin(1, 0.0)
        rec.end(1, "B", 1.0)
        rec.begin(0, 0.0)
        rec.end(0, "A", 1.0)
        ordered = rec.events_sorted()
        assert [(s.t0, s.function, s.rank) for s in ordered] == [
            (0.0, "A", 0),
            (0.0, "B", 1),
        ]

    def test_current_annotation(self):
        rec = SpanRecorder()
        rec.begin(0, 0.0)
        rec.end(0, "Density", 1.0)
        assert rec.current_annotation(0) == "Density"
        rec.begin(0, 1.0)
        assert rec.current_annotation(0) == "Density…"

    def test_instants(self):
        rec = SpanRecorder()
        rec.instant("app_start", 10.0)
        assert rec.instants[0].name == "app_start"


# ---------------------------------------------------------------------------
# Sampler tick hook (satellite: structured per-tick callback)
# ---------------------------------------------------------------------------


class TestSamplerTickHook:
    def test_listener_receives_every_sample(self, clock, lumi):
        node, tel = lumi
        ticks: list[SampleTick] = []
        sampler = PmtSampler(
            pmt.create("cray", telemetry=tel),
            interval_s=1.0,
            on_sample=ticks.append,
        )
        sampler.start()
        for _ in range(10):
            clock.advance(0.5)
        sampler.stop()
        assert len(ticks) == len(sampler.rows) == 6
        assert [t.timestamp for t in ticks] == [
            r.timestamp for r in sampler.rows
        ]
        assert all(t.segment == 1 for t in ticks)
        assert [t.index for t in ticks] == list(range(6))
        # Structured fields mirror the row values and carry the state.
        assert ticks[0].joules == sampler.rows[0].joules
        assert ticks[0].state.names()[0] == "node"
        assert ticks[0].quality == "ok"
        assert ticks[0].healthy

    def test_restart_rearm_ordering(self, clock, lumi):
        """start → stop → start re-arms the grid; ticks stay ordered."""
        node, tel = lumi
        ticks: list[SampleTick] = []
        sampler = PmtSampler(pmt.create("cray", telemetry=tel), interval_s=1.0)
        sampler.add_listener(ticks.append)
        sampler.start()
        for _ in range(4):
            clock.advance(0.5)
        sampler.stop()  # lands exactly on the t=2.0 boundary: no duplicate
        clock.advance(0.7)  # gap while stopped: no ticks
        assert [t.timestamp for t in ticks] == [0.0, 1.0, 2.0]
        sampler.start()
        for _ in range(3):
            clock.advance(0.5)
        sampler.stop()
        times = [t.timestamp for t in ticks]
        assert times == sorted(times)
        # Second segment re-arms its boundary grid at the restart time
        # (2.7 + k: the old 0-based grid would tick at 3.0 and 4.0).
        second = [t.timestamp for t in ticks if t.segment == 2]
        assert second == pytest.approx([2.7, 3.7, 4.2])
        # Tick indices are globally monotonic across segments.
        assert [t.index for t in ticks] == list(range(len(ticks)))
        assert [t.segment for t in ticks] == [1, 1, 1, 2, 2, 2]

    def test_listeners_fire_in_registration_order(self, clock, lumi):
        node, tel = lumi
        order: list[str] = []
        sampler = PmtSampler(pmt.create("cray", telemetry=tel), interval_s=1.0)
        sampler.add_listener(lambda t: order.append("first"))
        sampler.add_listener(lambda t: order.append("second"))
        sampler.start()
        assert order == ["first", "second"]
        sampler.stop()  # stop() at t=0 emits one more sample
        assert order == ["first", "second"] * 2


# ---------------------------------------------------------------------------
# Collector + live view
# ---------------------------------------------------------------------------


class TestCollector:
    def test_streams_all_measurements(self, clock, lumi):
        node, tel = lumi
        collector = TimeseriesCollector()
        sampler = PmtSampler(pmt.create("cray", telemetry=tel), interval_s=1.0)
        collector.attach(0, sampler)
        sampler.start()
        clock.advance(3.0)
        sampler.stop()
        keys = collector.store.channels()
        # The cray meter exposes node/cpu/memory + one channel per card.
        assert (0, "node") in keys
        assert (0, "cpu") in keys
        assert any(name.startswith("accel") for _, name in keys)
        assert collector.store.num_samples == 4 * len(keys)
        assert collector.num_attached == 1

    def test_node_power_channel_prefers_aggregate(self, clock, lumi):
        node, tel = lumi
        collector = TimeseriesCollector()
        sampler = PmtSampler(pmt.create("cray", telemetry=tel), interval_s=1.0)
        collector.attach(0, sampler)
        sampler.start()
        sampler.stop()
        assert collector.node_power_channel(0) == (0, "node")
        assert collector.node_power_channel(9) is None
        assert collector.nodes() == [0]

    def test_on_sample_hook_fires(self, clock, lumi):
        node, tel = lumi
        collector = TimeseriesCollector()
        seen: list[int] = []
        collector.on_sample = lambda node_index, tick: seen.append(node_index)
        sampler = PmtSampler(pmt.create("cray", telemetry=tel), interval_s=1.0)
        collector.attach(0, sampler)
        sampler.start()
        clock.advance(1.0)
        sampler.stop()
        assert seen == [0, 0]


class TestLiveView:
    def _collector(self, clock, lumi, advance=5.0):
        node, tel = lumi
        collector = TimeseriesCollector()
        sampler = PmtSampler(pmt.create("cray", telemetry=tel), interval_s=1.0)
        collector.attach(0, sampler)
        sampler.start()
        clock.advance(advance)
        sampler.stop()
        return collector

    def test_render_contains_sparkline_and_stats(self, clock, lumi):
        collector = self._collector(clock, lumi)
        collector.spans.begin(0, 0.0, node_index=0)
        collector.spans.end(0, "Density", 1.0)
        frame = LiveView(collector, width=16).render()
        assert "node0" in frame
        assert "samples=" in frame
        assert "W" in frame
        assert "Density" in frame

    def test_render_empty(self):
        assert "no samples" in LiveView(TimeseriesCollector()).render()

    def test_attach_live_printer(self, clock, lumi):
        node, tel = lumi
        collector = TimeseriesCollector()
        frames: list[str] = []
        attach_live_printer(
            collector, every_ticks=2, width=8, print_fn=frames.append
        )
        sampler = PmtSampler(pmt.create("cray", telemetry=tel), interval_s=1.0)
        collector.attach(0, sampler)
        sampler.start()
        clock.advance(3.0)
        sampler.stop()
        rendered = [f for f in frames if f]
        assert rendered, "expected at least one rendered frame"
        assert "node0" in rendered[0]

    def test_rejects_bad_cadence(self):
        with pytest.raises(ValueError):
            attach_live_printer(TimeseriesCollector(), every_ticks=0)


# ---------------------------------------------------------------------------
# End-to-end: runner integration
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestRunnerIntegration:
    def test_sedov_run_collects_samples_and_spans(self):
        from repro.experiments.runner import run_scaled_experiment

        result = run_scaled_experiment(
            CSCS_A100, SEDOV_BLAST, 8, num_steps=2, collector=TimeseriesCollector()
        )
        collector = result.timeseries
        assert collector is not None
        assert collector.store.num_samples > 0
        assert len(collector.spans) > 0
        # Spans carry placement: every span knows its node.
        assert all(s.node_index >= 0 for s in collector.spans.spans)
        # Lifecycle instants bracket the app window.
        names = [i.name for i in collector.spans.instants]
        assert names == ["app_start", "app_end"]

    def test_collector_does_not_perturb_measured_energy(self):
        """Per-region energies are bit-identical with the collector on/off."""
        from repro.experiments.runner import run_scaled_experiment

        base = run_scaled_experiment(CSCS_A100, SEDOV_BLAST, 8, num_steps=2)
        with_ts = run_scaled_experiment(
            CSCS_A100, SEDOV_BLAST, 8, num_steps=2, collector=TimeseriesCollector()
        )
        assert base.timeseries is None
        assert with_ts.timeseries is not None
        assert len(base.run.records) == len(with_ts.run.records)
        for a, b in zip(base.run.records, with_ts.run.records):
            assert a.rank == b.rank and a.function == b.function
            assert a.seconds == b.seconds
            assert a.joules == b.joules
