"""Streaming telemetry: retained, queryable, exportable power timelines.

The measurement pipeline used to reduce every run to end-of-run scalar
tables; this package retains the *when*.  Sampler ticks stream through a
:class:`~repro.timeseries.collect.TimeseriesCollector` into a bounded,
tiered :class:`~repro.timeseries.store.SampleStore`; profiler region
marks become :class:`~repro.timeseries.spans.SpanRecorder` spans; the
exporters emit Chrome-trace JSON (Perfetto), Prometheus text and flat
dumps; and the live view renders rolling per-node power sparklines while
a run executes.
"""

from repro.timeseries.collect import TimeseriesCollector
from repro.timeseries.export import (
    chrome_trace,
    escape_label_value,
    export_bundle,
    prometheus_text,
    prometheus_text_multi,
    write_chrome_trace,
    write_csv,
    write_jsonl,
    write_prometheus,
)
from repro.timeseries.live import LiveView, attach_live_printer
from repro.timeseries.rolling import RollingMean
from repro.timeseries.spans import Instant, Span, SpanRecorder
from repro.timeseries.store import (
    ChannelSeries,
    SampleStore,
    TierStats,
    lttb_indices,
    quality_code,
    quality_name,
)

__all__ = [
    "ChannelSeries",
    "Instant",
    "LiveView",
    "RollingMean",
    "SampleStore",
    "Span",
    "SpanRecorder",
    "TierStats",
    "TimeseriesCollector",
    "attach_live_printer",
    "chrome_trace",
    "escape_label_value",
    "export_bundle",
    "lttb_indices",
    "prometheus_text",
    "prometheus_text_multi",
    "quality_code",
    "quality_name",
    "write_chrome_trace",
    "write_csv",
    "write_jsonl",
    "write_prometheus",
]
