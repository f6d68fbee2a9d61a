"""Exporter tests: Chrome-trace round-trip, Prometheus text, determinism."""

import json
import re

import numpy as np
import pytest

import repro.pmt as pmt
from repro.config import CSCS_A100, LUMI_G, SEDOV_BLAST
from repro.hardware import Node, PowerTrace, VirtualClock
from repro.instrumentation.reporting import artifact_report
from repro.pmt import PmtSampler
from repro.sensors import NodeTelemetry
from repro.timeseries import (
    SampleStore,
    SpanRecorder,
    TimeseriesCollector,
    chrome_trace,
    escape_label_value,
    export_bundle,
    prometheus_text,
    prometheus_text_multi,
    write_chrome_trace,
    write_csv,
    write_jsonl,
)

#: Keys the Trace Event Format requires on every event.
REQUIRED_EVENT_KEYS = {"name", "ph", "ts", "pid", "tid"}

def _small_store():
    store = SampleStore()
    for k in range(5):
        t = float(k)
        store.record(0, "node", t, 100.0 + k, 100.0 * t)
        store.record(0, "gpu0", t, 40.0, 40.0 * t, quality="ok")
        store.record(1, "node", t, 90.0, 90.0 * t)
    spans = SpanRecorder()
    spans.begin(0, 0.5, node_index=0)
    spans.end(0, "Density", 1.5)
    spans.begin(1, 1.0, node_index=1)
    spans.end(1, "IAD", 2.0)
    spans.instant("app_start", 0.0)
    return store, spans


class TestChromeTrace:
    def test_roundtrip_validates_required_keys(self, tmp_path):
        store, spans = _small_store()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, store, spans, metadata={"case": "unit"})
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["case"] == "unit"
        events = doc["traceEvents"]
        assert events, "trace must contain events"
        for ev in events:
            assert REQUIRED_EVENT_KEYS <= set(ev), f"missing keys in {ev}"
            assert ev["ph"] in {"M", "C", "X", "i"}
            if ev["ph"] == "X":
                assert "dur" in ev and ev["dur"] >= 0
            if ev["ph"] == "C":
                assert "args" in ev and "watts" in ev["args"]

    def test_event_counts_match_store(self):
        store, spans = _small_store()
        doc = chrome_trace(store, spans)
        by_phase = {}
        for ev in doc["traceEvents"]:
            by_phase.setdefault(ev["ph"], []).append(ev)
        assert len(by_phase["C"]) == store.num_samples == 15
        assert len(by_phase["X"]) == len(spans) == 2
        assert len(by_phase["i"]) == 1
        # One process-name metadata record per node.
        names = [
            e for e in by_phase["M"] if e["name"] == "process_name"
        ]
        assert len(names) == 2

    def test_timestamps_are_microseconds_and_sorted(self):
        store, spans = _small_store()
        events = chrome_trace(store, spans)["traceEvents"]
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        density = next(e for e in events if e["ph"] == "X")
        assert density["ts"] == pytest.approx(0.5e6)
        assert density["dur"] == pytest.approx(1.0e6)

    def test_span_names_and_rank_threads(self):
        store, spans = _small_store()
        events = chrome_trace(store, spans)["traceEvents"]
        x = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in x} == {"Density", "IAD"}
        assert all(e["cat"] == "region" for e in x)
        threads = [
            e for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert any("rank" in str(e["args"]) for e in threads)


class TestPrometheus:
    def test_text_format(self):
        store, spans = _small_store()
        text = prometheus_text(store)
        lines = text.splitlines()
        assert "# HELP repro_power_watts" in text
        assert "# TYPE repro_power_watts gauge" in text
        assert "# TYPE repro_energy_joules_total counter" in text
        assert any(
            l.startswith('repro_power_watts{channel="node",node="0"}')
            for l in lines
        )
        assert text.endswith("\n")

    def test_latest_values_exported(self):
        store, spans = _small_store()
        text = prometheus_text(store)
        # Latest node-0 "node" sample is 104 W / 400 J.
        assert 'repro_power_watts{channel="node",node="0"} 104' in text
        assert 'repro_energy_joules_total{channel="node",node="0"} 400' in text
        assert 'repro_samples_total{channel="node",node="0"} 5' in text

    def test_custom_prefix(self):
        store, _ = _small_store()
        assert "myrun_power_watts" in prometheus_text(store, prefix="myrun")


#: One sample line of the exposition format: metric{labels} value — the
#: labels section must be a single line of properly quoted pairs.
SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*\{(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*\} '
    r"-?[0-9.eE+\-]+$"
)


class TestPrometheusEscaping:
    """Hostile channel names must never corrupt the scrape output."""

    HOSTILE = 'gpu"0\\power\nrate'

    def _hostile_store(self):
        store = SampleStore()
        store.record(0, self.HOSTILE, 1.0, 50.0, 50.0)
        return store

    def test_escape_label_value(self):
        assert escape_label_value("plain") == "plain"
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        # Backslash escapes first, so the escape of '"' survives intact.
        assert escape_label_value('\\"') == '\\\\\\"'

    def test_hostile_channel_name_stays_on_one_line(self):
        text = prometheus_text(self._hostile_store())
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            assert SAMPLE_LINE.match(line), f"unparseable sample: {line!r}"
        # The raw newline/quote must not appear unescaped anywhere.
        assert 'channel="gpu\\"0\\\\power\\nrate"' in text

    def test_hostile_tenant_label_escaped_in_multi(self):
        stores = {'ten"ant\n1': self._hostile_store()}
        text = prometheus_text_multi(stores)
        assert 'tenant="ten\\"ant\\n1"' in text
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            assert SAMPLE_LINE.match(line), f"unparseable sample: {line!r}"

    def test_multi_single_header_per_family(self):
        stores = {
            "a": self._hostile_store(),
            "b": self._hostile_store(),
        }
        text = prometheus_text_multi(stores)
        assert text.count("# TYPE repro_power_watts gauge") == 1
        assert text.count("# HELP repro_power_watts") == 1
        # Both tenants' samples present, tenants sorted.
        a = text.index('tenant="a"')
        b = text.index('tenant="b"')
        assert a < b

    def test_extra_labels_escaped(self):
        store = _small_store()[0]
        text = prometheus_text(store, extra_labels={"job": 'x"y'})
        assert 'job="x\\"y"' in text


class TestDumpsAndBundle:
    def test_csv_and_jsonl_agree(self, tmp_path):
        store, _ = _small_store()
        csv_path = tmp_path / "out.csv"
        jsonl_path = tmp_path / "out.jsonl"
        write_csv(csv_path, store)
        write_jsonl(jsonl_path, store)
        csv_rows = csv_path.read_text().strip().splitlines()
        jsonl_rows = jsonl_path.read_text().strip().splitlines()
        assert len(csv_rows) - 1 == len(jsonl_rows) == store.num_samples
        assert csv_rows[0] == "node,channel,tier,time_s,watts,joules,quality"
        first = json.loads(jsonl_rows[0])
        assert set(first) == {
            "node", "channel", "tier", "time_s", "watts", "joules", "quality"
        }

    def test_export_bundle_writes_all_kinds(self, tmp_path):
        store, spans = _small_store()
        artifacts = export_bundle(tmp_path, store, spans, basename="unit")
        assert set(artifacts) == {"chrome-trace", "prometheus", "csv", "jsonl"}
        for path in artifacts.values():
            assert path.exists() and path.stat().st_size > 0
        report = artifact_report(artifacts)
        assert report.startswith("Exported artifacts:")
        for kind in artifacts:
            assert kind in report

    def test_artifact_report_empty(self):
        assert artifact_report({}) == "Exported artifacts: none"


class TestDeterminism:
    """S6: exports must be byte-identical across same-seed runs."""

    def _run_once(self):
        clock = VirtualClock()
        node = Node("n0", clock, LUMI_G.node_spec)
        tel = NodeTelemetry(node, LUMI_G, clock)
        collector = TimeseriesCollector()
        sampler = PmtSampler(pmt.create("cray", telemetry=tel), interval_s=1.0)
        collector.attach(0, sampler)
        sampler.start()
        collector.spans.begin(0, 0.0, node_index=0)
        clock.advance(5.0)
        collector.spans.end(0, "Density", 5.0)
        sampler.stop()
        return collector

    def test_byte_identical_exports(self, tmp_path):
        a = self._run_once()
        b = self._run_once()
        for sub, coll in (("a", a), ("b", b)):
            out = tmp_path / sub
            out.mkdir()
            export_bundle(out, coll.store, coll.spans, basename="run")
        for name in (
            "run.trace.json",
            "run.prom",
            "run.samples.csv",
            "run.samples.jsonl",
        ):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), f"{name} differs between same-seed runs"

    def test_channel_iteration_order_is_insertion_independent(self, tmp_path):
        s1, s2 = SampleStore(), SampleStore()
        s1.record(0, "a", 0.0, 1.0, 0.0)
        s1.record(1, "b", 0.0, 2.0, 0.0)
        s2.record(1, "b", 0.0, 2.0, 0.0)
        s2.record(0, "a", 0.0, 1.0, 0.0)
        assert prometheus_text(s1) == prometheus_text(s2)
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        write_chrome_trace(p1, s1)
        write_chrome_trace(p2, s2)
        assert p1.read_bytes() == p2.read_bytes()


class TestPowerTraceAsArrays:
    """S1: the public read-only view exporters consume."""

    def test_views_match_breakpoints(self):
        trace = PowerTrace(initial_watts=100.0)
        trace.set_power(1.0, 200.0)
        trace.set_power(3.0, 50.0)
        times, watts = trace.as_arrays()
        np.testing.assert_array_equal(times, [0.0, 1.0, 3.0])
        np.testing.assert_array_equal(watts, [100.0, 200.0, 50.0])

    def test_views_are_read_only(self):
        trace = PowerTrace(initial_watts=100.0)
        times, watts = trace.as_arrays()
        with pytest.raises(ValueError):
            times[0] = 5.0
        with pytest.raises(ValueError):
            watts[0] = 5.0

    def test_snapshot_semantics(self):
        trace = PowerTrace(initial_watts=100.0)
        times, watts = trace.as_arrays()
        assert len(times) == 1
        trace.set_power(1.0, 200.0)
        t2, w2 = trace.as_arrays()
        assert len(t2) == 2
        assert len(times) == 1  # earlier view is a stable snapshot



@pytest.mark.filterwarnings("ignore::UserWarning")
class TestEndToEndExport:
    def test_sedov_export_is_valid_and_deterministic(self, tmp_path):
        from repro.experiments.runner import run_scaled_experiment

        def run(out):
            result = run_scaled_experiment(
                CSCS_A100,
                SEDOV_BLAST,
                8,
                num_steps=2,
                collector=TimeseriesCollector(),
            )
            coll = result.timeseries
            out.mkdir(exist_ok=True)
            return export_bundle(out, coll.store, coll.spans, basename="sedov")

        arts_a = run(tmp_path / "a")
        arts_b = run(tmp_path / "b")
        doc = json.loads(arts_a["chrome-trace"].read_text())
        for ev in doc["traceEvents"]:
            assert REQUIRED_EVENT_KEYS <= set(ev)
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert any(e["ph"] == "C" for e in doc["traceEvents"])
        for kind in arts_a:
            assert arts_a[kind].read_bytes() == arts_b[kind].read_bytes()
