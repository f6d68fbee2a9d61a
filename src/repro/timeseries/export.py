"""Tool-agnostic exporters for retained telemetry timelines.

Three formats, chosen for what energy practitioners actually load:

* **Chrome trace** (``chrome://tracing`` / Perfetto) — the Trace Event
  Format JSON: one counter track per sensor channel (``ph: "C"``), one
  complete duration event per function-region span (``ph: "X"``), plus
  process/thread metadata so nodes and ranks get readable labels;
* **Prometheus text exposition** — latest power gauge, cumulative energy
  counter and sample/degraded-sample counters per channel, ready for a
  ``node_exporter`` textfile collector or a pushgateway;
* **CSV / JSONL dumps** — every retained point of every tier, for pandas
  and ad-hoc scripts.

All exports are deterministic: channels are sorted by ``(node, name)``,
span events by ``(start, name, rank)``, and JSON keys are sorted — two
runs with the same seed produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.timeseries.spans import SpanRecorder
from repro.timeseries.store import SampleStore, quality_name

#: Seconds -> Trace Event Format microseconds.
_US = 1e6


# -- Chrome trace -----------------------------------------------------------


def chrome_trace_events(
    store: SampleStore,
    spans: SpanRecorder | None = None,
    node_names: dict[int, str] | None = None,
) -> list[dict]:
    """The ``traceEvents`` list of the Trace Event Format export."""
    events: list[dict] = []

    nodes = sorted({node for node, _ in store.channels()})
    if spans is not None:
        span_nodes = {s.node_index for s in spans.spans if s.node_index >= 0}
        nodes = sorted(set(nodes) | span_nodes)
    for node in nodes:
        label = (node_names or {}).get(node, f"node{node}")
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": node,
                "tid": 0,
                "ts": 0,
                "args": {"name": label},
            }
        )

    # Counter tracks: one per channel, samples in time order (ties broken
    # by the sorted channel iteration).
    for node, name in store.channels():
        series = store.channel(node, name)
        pts = series.points()
        for t, w, j in zip(pts["t"], pts["watts"], pts["joules"]):
            events.append(
                {
                    "ph": "C",
                    "name": f"{name} [W]",
                    "pid": node,
                    "tid": 0,
                    "ts": float(t) * _US,
                    "args": {"watts": float(w)},
                }
            )

    if spans is not None:
        ranks = sorted({s.rank for s in spans.spans})
        rank_nodes = {s.rank: s.node_index for s in spans.spans}
        for rank in ranks:
            node = rank_nodes.get(rank, -1)
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": node if node >= 0 else 0,
                    "tid": rank,
                    "ts": 0,
                    "args": {"name": f"rank{rank}"},
                }
            )
        for span in spans.events_sorted():
            events.append(
                {
                    "ph": "X",
                    "name": span.function,
                    "cat": "region",
                    "pid": span.node_index if span.node_index >= 0 else 0,
                    "tid": span.rank,
                    "ts": span.t0 * _US,
                    "dur": span.seconds * _US,
                    "args": {},
                }
            )
        for mark in spans.instants:
            events.append(
                {
                    "ph": "i",
                    "s": "g",
                    "name": mark.name,
                    "pid": 0,
                    "tid": 0,
                    "ts": mark.t * _US,
                    "args": {},
                }
            )
    # Canonical order: stable sort over the fields every event carries.
    events.sort(key=lambda e: (e["ts"], e["ph"], e["pid"], e["tid"], e["name"]))
    return events


def chrome_trace(
    store: SampleStore,
    spans: SpanRecorder | None = None,
    node_names: dict[int, str] | None = None,
    metadata: dict | None = None,
) -> dict:
    """The full Trace Event Format document (JSON-object flavour)."""
    doc = {
        "traceEvents": chrome_trace_events(store, spans, node_names),
        "displayTimeUnit": "ms",
    }
    if metadata:
        doc["otherData"] = {k: metadata[k] for k in sorted(metadata)}
    return doc


def write_chrome_trace(
    path: str | Path,
    store: SampleStore,
    spans: SpanRecorder | None = None,
    node_names: dict[int, str] | None = None,
    metadata: dict | None = None,
) -> Path:
    """Write the Chrome-trace JSON; returns the path."""
    path = Path(path)
    doc = chrome_trace(store, spans, node_names, metadata)
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return path


# -- Prometheus text exposition ---------------------------------------------


def escape_label_value(value: str) -> str:
    """Escape one label value per the Prometheus exposition format.

    Backslash, double-quote and newline are the three characters the text
    format requires escaping inside quoted label values; anything else
    passes through verbatim (a hostile channel name must never corrupt
    the scrape output or smuggle in extra samples).
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` docstring (backslash and newline only)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_str(labels: dict[str, str]) -> str:
    inner = ",".join(
        f'{k}="{escape_label_value(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


#: The exposed metric families: suffix -> (type, help text).
_PROM_FAMILIES = {
    "power_watts": ("gauge", "Latest sampled power per sensor channel."),
    "energy_joules_total": ("counter", "Cumulative energy counter per channel."),
    "samples_total": ("counter", "Samples ingested per channel."),
    "degraded_points": ("gauge", "Retained points with a non-ok quality tag."),
}


def _store_samples(
    store: SampleStore, extra_labels: dict[str, str]
) -> dict[str, list[str]]:
    """``family suffix -> sample lines`` for one store (labels pre-applied)."""
    out: dict[str, list[str]] = {suffix: [] for suffix in _PROM_FAMILIES}
    for node, name in store.channels():
        series = store.channel(node, name)
        _t, watts, joules, _quality = series.latest
        labels = _label_str(
            {**extra_labels, "node": str(node), "channel": name}
        )
        out["power_watts"].append(f"{labels} {watts:.6g}")
        out["energy_joules_total"].append(f"{labels} {joules:.6g}")
        out["samples_total"].append(f"{labels} {series.total_appended}")
        out["degraded_points"].append(f"{labels} {series.degraded_points()}")
    return out


def _render_families(
    per_store: list[dict[str, list[str]]], prefix: str
) -> str:
    lines: list[str] = []
    for suffix, (kind, help_text) in _PROM_FAMILIES.items():
        metric = f"{prefix}_{suffix}"
        lines.append(f"# HELP {metric} {_escape_help(help_text)}")
        lines.append(f"# TYPE {metric} {kind}")
        for samples in per_store:
            lines.extend(f"{metric}{rest}" for rest in samples[suffix])
    return "\n".join(lines) + "\n"


def prometheus_text(
    store: SampleStore,
    prefix: str = "repro",
    extra_labels: dict[str, str] | None = None,
) -> str:
    """Render the store's current state in Prometheus text format.

    Exposes, per ``(node, channel)``: the newest power reading as a gauge,
    the cumulative energy counter, total samples ingested, and how many
    retained points carry a non-``ok`` quality tag.  ``extra_labels`` are
    added to every sample (the telemetry service scrapes with a
    ``tenant`` label); every ``# HELP``/``# TYPE`` header appears exactly
    once per metric family and label values are escaped per the
    exposition format.
    """
    return _render_families([_store_samples(store, extra_labels or {})], prefix)


def prometheus_text_multi(
    stores: dict[str, SampleStore], prefix: str = "repro"
) -> str:
    """One exposition document over many tenant stores.

    ``stores`` maps a tenant name to its store; samples carry a
    ``tenant`` label and each metric family keeps a single
    ``# HELP``/``# TYPE`` header (repeating headers per tenant would be
    an invalid exposition).  Tenants render in sorted order.
    """
    per_store = [
        _store_samples(stores[tenant], {"tenant": tenant})
        for tenant in sorted(stores)
    ]
    return _render_families(per_store, prefix)


def write_prometheus(
    path: str | Path, store: SampleStore, prefix: str = "repro"
) -> Path:
    """Write the Prometheus exposition file; returns the path."""
    path = Path(path)
    path.write_text(prometheus_text(store, prefix))
    return path


# -- flat dumps -------------------------------------------------------------

_DUMP_HEADER = ("node", "channel", "tier", "time_s", "watts", "joules", "quality")


def _dump_rows(store: SampleStore):
    from repro.timeseries.store import TIERS

    for node, name in store.channels():
        pts = store.channel(node, name).points()
        for t, w, j, q, tier in zip(
            pts["t"], pts["watts"], pts["joules"], pts["quality"], pts["tier"]
        ):
            yield (
                node,
                name,
                TIERS[int(tier)],
                float(t),
                float(w),
                float(j),
                quality_name(int(q)),
            )


def write_csv(path: str | Path, store: SampleStore) -> Path:
    """Write every retained point as CSV; returns the path."""
    path = Path(path)
    lines = [",".join(_DUMP_HEADER)]
    for node, name, tier, t, w, j, q in _dump_rows(store):
        lines.append(f"{node},{name},{tier},{t:.9g},{w:.9g},{j:.9g},{q}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_jsonl(path: str | Path, store: SampleStore) -> Path:
    """Write every retained point as JSON lines; returns the path."""
    path = Path(path)
    with path.open("w") as fh:
        for node, name, tier, t, w, j, q in _dump_rows(store):
            fh.write(
                json.dumps(
                    {
                        "node": node,
                        "channel": name,
                        "tier": tier,
                        "time_s": t,
                        "watts": w,
                        "joules": j,
                        "quality": q,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    return path


def export_bundle(
    out_dir: str | Path,
    store: SampleStore,
    spans: SpanRecorder | None = None,
    node_names: dict[int, str] | None = None,
    metadata: dict | None = None,
    basename: str = "run",
) -> dict[str, Path]:
    """Write the full artifact set into ``out_dir``.

    Returns ``{kind: path}`` for the trace JSON, Prometheus text, CSV and
    JSONL dumps — the dict the reporting layer links into the run report.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return {
        "chrome-trace": write_chrome_trace(
            out_dir / f"{basename}.trace.json", store, spans, node_names, metadata
        ),
        "prometheus": write_prometheus(out_dir / f"{basename}.prom", store),
        "csv": write_csv(out_dir / f"{basename}.samples.csv", store),
        "jsonl": write_jsonl(out_dir / f"{basename}.samples.jsonl", store),
    }
