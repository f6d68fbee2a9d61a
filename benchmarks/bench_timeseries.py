"""Observability smoke: export a Sedov run's telemetry trace and bound it.

Runs one small Sedov blast job with the streaming telemetry collector on,
writes the full artifact bundle (Chrome trace, Prometheus text, CSV/JSONL
dumps), and asserts the structural invariants the exporters promise:

* every trace event carries the Trace Event Format required keys;
* one counter event per retained store point, one duration event per
  recorded region span;
* artifact sizes stay inside sane bounds (non-trivial but far below the
  raw-sample volume — the store's tiering has to have engaged upstream);
* re-running the same seed reproduces the trace byte-for-byte.
"""

import json

import pytest
from conftest import write_result

from repro.config import CSCS_A100, SEDOV_BLAST
from repro.experiments.runner import run_scaled_experiment
from repro.timeseries import TimeseriesCollector, export_bundle

REQUIRED_EVENT_KEYS = {"name", "ph", "ts", "pid", "tid"}

NUM_CARDS = 8
NUM_STEPS = 4


def _run_and_export(out_dir):
    result = run_scaled_experiment(
        CSCS_A100,
        SEDOV_BLAST,
        NUM_CARDS,
        num_steps=NUM_STEPS,
        collector=TimeseriesCollector(),
    )
    collector = result.timeseries
    artifacts = export_bundle(
        out_dir,
        collector.store,
        collector.spans,
        metadata={"case": SEDOV_BLAST.name, "system": CSCS_A100.name},
        basename="sedov_smoke",
    )
    return collector, artifacts


@pytest.mark.filterwarnings("ignore::UserWarning")
def bench_smoke_timeseries(results_dir, tmp_path):
    """Sedov trace export smoke (`make bench-smoke` / `make bench-timeseries`)."""
    collector, artifacts = _run_and_export(tmp_path / "a")

    doc = json.loads(artifacts["chrome-trace"].read_text())
    events = doc["traceEvents"]
    for ev in events:
        assert REQUIRED_EVENT_KEYS <= set(ev), f"malformed event {ev}"
    counts = {}
    for ev in events:
        counts[ev["ph"]] = counts.get(ev["ph"], 0) + 1

    num_points = sum(
        len(collector.store.channel(n, c).points()["t"])
        for n, c in collector.store.channels()
    )
    assert counts["C"] == num_points
    assert counts["X"] == len(collector.spans)
    assert counts.get("i", 0) == 2  # app_start / app_end

    sizes = {kind: path.stat().st_size for kind, path in artifacts.items()}
    # Non-trivial content, but bounded: the store's tiering caps retained
    # points, so even this multi-node multi-channel run stays small.
    for kind, size in sizes.items():
        assert 200 < size < 4_000_000, f"{kind} size {size} out of bounds"

    # Determinism: the same seed reproduces every artifact byte-for-byte.
    _, again = _run_and_export(tmp_path / "b")
    for kind in artifacts:
        assert artifacts[kind].read_bytes() == again[kind].read_bytes(), (
            f"{kind} not byte-identical across same-seed runs"
        )

    lines = [
        f"Sedov observability smoke: {SEDOV_BLAST.name} on {CSCS_A100.name}, "
        f"{NUM_CARDS} cards, {NUM_STEPS} steps",
        f"channels: {len(collector.store.channels())}",
        f"samples ingested: {collector.store.num_samples}",
        f"retained points: {num_points}",
        f"region spans: {len(collector.spans)}",
        f"store bytes: {collector.store.nbytes}",
        "trace events: "
        + ", ".join(f"{ph}:{counts[ph]}" for ph in sorted(counts)),
        "artifact sizes [bytes]: "
        + ", ".join(f"{kind}:{sizes[kind]}" for kind in sorted(sizes)),
        "determinism: byte-identical across same-seed runs",
    ]
    write_result(results_dir, "timeseries_smoke", "\n".join(lines))
