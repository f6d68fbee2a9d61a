"""Load generator of the ``service_ingest_query`` workload.

The telemetry service under test runs in the workload process
(``workloads.py``, on a ``ServiceThread``).  This process is its client,
as a real publisher and dashboard would be, so the load threads do not
compete with the service for one interpreter lock.  It pre-encodes the
batch frames, prints ``ready``, streams them over one wait-mode session
while a second thread issues range queries back-to-back.  After the
last sync it reads back a few nodes' full ranges and compares them with
what it published, then prints one JSON result line.

Usage: python perfbench/loadgen.py HOST PORT HTTP_PORT TENANT SEED TRACE
"""

from __future__ import annotations

import json
import sys
import threading
import time

NODES = 500
ROUNDS = 4
BATCH = 200  # samples per batch frame: 0.2 s at 1 kHz

_QUERY_KEYS = ("tenant", "t0", "t1", "n", "t", "watts", "joules", "tier")


def check_nodes(seed: int) -> tuple[int, ...]:
    """Nodes whose full range is read back after the last sync."""
    return tuple(sorted({0, seed % NODES, NODES - 1}))


def encode_frames(
    tenant: str, checked: tuple[int, ...]
) -> tuple[list[list[bytes]], dict[int, dict[str, list]]]:
    """Pre-encoded 1 kHz batch frames, ``[round][node]``, for one tenant,
    and the ``t`` and ``watts`` columns published for each checked node.

    Built here rather than by ``repro.service.load``'s harness, so that
    the benchmark's input stays fixed when that harness changes.
    """
    from repro.service import protocol
    from repro.service.load import POWERSENSOR3_HZ, SyntheticSource

    sources = [
        SyntheticSource(tenant, node, "ch0", POWERSENSOR3_HZ)
        for node in range(NODES)
    ]
    published = {node: {"t": [], "watts": []} for node in checked}
    rounds = []
    for _ in range(ROUNDS):
        frames = []
        for src in sources:
            columns = src.batch(BATCH)
            if src.node in published:
                for name, column in published[src.node].items():
                    column.extend(columns[name])
            frames.append(protocol.encode_frame(
                protocol.batch_message(src.node, {src.channel: columns})
            ))
        rounds.append(frames)
    return rounds, published


def read_back(host, http_port, tenant, published) -> list[str]:
    """Full-range queries of the checked nodes; what differs from the
    published samples."""
    from repro.service.client import http_get_json

    mismatches = []
    for node, sent in published.items():
        path = f"/query/range?tenant={tenant}&node={node}&channel=ch0"
        try:
            body = http_get_json(host, http_port, path)
        except Exception as exc:
            mismatches.append(f"node {node}: {exc!r}")
            continue
        got = {name: body.get(name) for name in sent}
        if body.get("n") != len(sent["t"]) or got != sent:
            mismatches.append(
                f"node {node}: {body.get('n')} points returned, "
                f"{len(sent['t'])} published"
                + ("" if body.get("n") != len(sent["t"]) else ", values differ")
            )
    return mismatches


def query_loop(host, http_port, tenant, seed, done, latencies, failures):
    """Closed loop: the next range query leaves when the previous returns."""
    import numpy as np

    from repro.service.client import http_get_json

    rng = np.random.default_rng([seed, 0x5E7])
    horizon = ROUNDS * BATCH / 1000.0
    while not done.is_set():
        node = int(rng.integers(0, NODES))
        t0 = float(rng.uniform(0.0, horizon / 2))
        t1 = t0 + float(rng.uniform(0.0, horizon / 2))
        path = (f"/query/range?tenant={tenant}&node={node}&channel=ch0"
                f"&t0={t0:.6f}&t1={t1:.6f}")
        t = time.perf_counter()
        try:
            body = http_get_json(host, http_port, path)
        except Exception as exc:
            failures.append(repr(exc))
            continue
        latencies.append(time.perf_counter() - t)
        ok = isinstance(body, dict) and all(k in body for k in _QUERY_KEYS)
        ok = ok and all(len(body[c]) == body["n"] for c in ("t", "watts", "joules"))
        if not ok:
            failures.append(f"malformed response to {path}")


def stream(host, port, http_port, tenant, seed, rounds) -> dict:
    """Publish every round, syncing after each, while one thread queries."""
    from repro.service.client import ServiceClient

    done = threading.Event()
    latencies, failures = [], []
    query = threading.Thread(
        target=query_loop,
        args=(host, http_port, tenant, seed, done, latencies, failures),
    )
    try:
        t = time.perf_counter()
        with ServiceClient(host, port, tenant, source="perfbench",
                           backpressure="wait") as client:
            for r, frames in enumerate(rounds):
                for frame in frames:
                    client.publish_encoded(frame, BATCH)
                client.sync()
                if r == 0:
                    query.start()  # every channel now exists
            elapsed = time.perf_counter() - t
    finally:
        done.set()
        if query.is_alive():
            query.join()
    return {
        "elapsed_s": elapsed,
        "published_samples": client.published_samples,
        "latencies_s": latencies,
        "failures": failures,
    }


def main() -> int:
    host, port, http_port, tenant, seed, trace = sys.argv[1:7]
    tracer = None
    if trace == "1":
        from repro.service import protocol
        from repro.service.client import ServiceClient
        from tracer import Tracer, wrap

        tracer = Tracer()
        wrap(tracer, protocol, "encode_frame", "service.encode_frame")
        wrap(tracer, ServiceClient, "publish_encoded", "service.publish_encoded")
        wrap(tracer, ServiceClient, "sync", "service.sync")
    checked = check_nodes(int(seed))
    rounds, published = encode_frames(tenant, checked)
    encode_spans = tracer.snapshot() if tracer is not None else {}
    print("ready", flush=True)
    out = stream(host, int(port), int(http_port), tenant, int(seed), rounds)
    out["read_back_nodes"] = len(checked)
    out["read_back_mismatches"] = read_back(host, int(http_port), tenant,
                                            published)
    out["frame_bytes"] = sum(len(f) for r in rounds for f in r)
    out["encode_spans"] = encode_spans
    out["stream_spans"] = tracer.snapshot() if tracer is not None else {}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
