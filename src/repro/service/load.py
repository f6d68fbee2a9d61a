"""Deterministic load harness for the telemetry service.

Drives a topology x scale matrix of simulated fleets — ``tenants x
nodes x channels`` publishing batched samples at a configured cadence —
against an in-process service instance over real loopback sockets, with
concurrent range queries.  Sources are synthetic but deterministic:
every ``(tenant, node, channel)`` stream is generated by a
blake2s-seeded rng, so the post-run ingest ledger of a ``wait``-mode run
is byte-identical across runs (the determinism CI gate diffs it).

Two cadence profiles bracket the related work: ``PM_COUNTERS_HZ`` is
the paper's 10 Hz Cray pm_counters cadence, ``POWERSENSOR3_HZ`` the
kHz-class external sensor rate of PowerSensor3 — two orders of
magnitude more samples per simulated second, which is exactly why the
wire format is columnar batches rather than per-sample messages.

Wall-clock throughput/latency numbers are only computed when the caller
injects a ``timer`` (the benchmarks pass ``time.perf_counter``); the
library itself never reads a host clock, keeping the simulated-code
audit lint clean and the deterministic outputs free of timing.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.service import protocol
from repro.service.client import ServiceClient, http_get_json
from repro.service.server import ServiceThread, TelemetryService
from repro.service.tenants import TenantConfig, TenantRegistry

#: The paper's Cray pm_counters cadence (samples per simulated second).
PM_COUNTERS_HZ = 10.0

#: PowerSensor3-class external sensor cadence.
POWERSENSOR3_HZ = 1000.0


def _seed_for(tenant: str, node: int, channel: str) -> int:
    digest = hashlib.blake2s(
        f"{tenant}/{node}/{channel}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class SyntheticSource:
    """One deterministic ``(tenant, node, channel)`` sample stream.

    Power is a node-specific base plus a slow sinusoid and seeded noise;
    cumulative joules integrate the generated powers at the source (the
    service stores joules knots verbatim, so the full-range energy query
    must return exactly what the source integrated).
    """

    def __init__(
        self, tenant: str, node: int, channel: str, rate_hz: float
    ) -> None:
        if rate_hz <= 0:
            raise ConfigurationError("source rate must be positive")
        self.tenant = tenant
        self.node = int(node)
        self.channel = channel
        self.dt = 1.0 / float(rate_hz)
        rng = np.random.default_rng(_seed_for(tenant, node, channel))
        self._base = 200.0 + float(rng.uniform(0.0, 300.0))
        self._amp = float(rng.uniform(5.0, 50.0))
        self._phase = float(rng.uniform(0.0, 2.0 * np.pi))
        self._rng = rng
        self._tick = 0
        self._joules = 0.0

    def batch(self, num_samples: int) -> dict[str, list]:
        """The next ``num_samples`` samples as wire columns."""
        k = np.arange(self._tick, self._tick + num_samples, dtype=np.float64)
        t = k * self.dt
        watts = (
            self._base
            + self._amp * np.sin(0.1 * t + self._phase)
            + self._rng.normal(0.0, 1.0, num_samples)
        )
        joules = self._joules + np.cumsum(watts) * self.dt
        self._tick += num_samples
        self._joules = float(joules[-1])
        return {
            "t": t.tolist(),
            "watts": watts.tolist(),
            "joules": joules.tolist(),
        }


@dataclass(frozen=True)
class LoadSpec:
    """One topology x scale point of the request matrix."""

    name: str
    tenants: int = 4
    nodes_per_tenant: int = 16
    channels_per_node: int = 1
    rate_hz: float = PM_COUNTERS_HZ
    batch_samples: int = 100
    batches_per_node: int = 5
    backpressure: str = "wait"
    queries: int = 50
    query_workers: int = 2
    tenant_config: TenantConfig = field(default_factory=TenantConfig)

    @property
    def total_nodes(self) -> int:
        return self.tenants * self.nodes_per_tenant

    @property
    def total_samples(self) -> int:
        return (
            self.total_nodes
            * self.channels_per_node
            * self.batch_samples
            * self.batches_per_node
        )

    def tenant_names(self) -> list[str]:
        return [f"tenant{i}" for i in range(self.tenants)]


#: The matrix the full benchmark sweeps: wide-and-shallow to
#: narrow-and-deep topologies at both cadence profiles.
TOPOLOGY_SCALE_MATRIX = (
    LoadSpec(
        name="4x16 pm_counters",
        tenants=4,
        nodes_per_tenant=16,
        rate_hz=PM_COUNTERS_HZ,
        batch_samples=50,
        batches_per_node=4,
    ),
    LoadSpec(
        name="8x32 pm_counters",
        tenants=8,
        nodes_per_tenant=32,
        rate_hz=PM_COUNTERS_HZ,
        batch_samples=50,
        batches_per_node=4,
    ),
    LoadSpec(
        name="4x250 powersensor3",
        tenants=4,
        nodes_per_tenant=250,
        rate_hz=POWERSENSOR3_HZ,
        batch_samples=200,
        batches_per_node=3,
    ),
)


@dataclass
class LoadReport:
    """What one load run produced.

    ``accounting_summary`` and the identity/cap verdicts are
    deterministic; the throughput/latency fields are ``None`` unless the
    caller injected a timer.
    """

    spec: LoadSpec
    accounting_summary: str
    published_batches: int
    published_samples: int
    offered_samples: int
    ingested_samples: int
    shed_samples: int
    rejected_samples: int
    pending_samples: int
    memory_within_cap: bool
    queries_served: int
    elapsed_s: float | None = None
    samples_per_sec: float | None = None
    query_p50_ms: float | None = None
    query_p99_ms: float | None = None

    @property
    def accounting_identity_holds(self) -> bool:
        """offered == ingested + shed + rejected + pending, nothing silent."""
        return self.offered_samples == (
            self.ingested_samples
            + self.shed_samples
            + self.rejected_samples
            + self.pending_samples
        )

    def deterministic_text(self) -> str:
        """The byte-stable part (what the smoke benchmark commits)."""
        lines = [
            f"load point: {self.spec.name} — {self.spec.tenants} tenants x "
            f"{self.spec.nodes_per_tenant} nodes x "
            f"{self.spec.channels_per_node} channels @ "
            f"{self.spec.rate_hz:g} Hz ({self.spec.backpressure})",
            f"published: {self.published_batches} batches / "
            f"{self.published_samples} samples",
            f"ledger: offered={self.offered_samples} "
            f"ingested={self.ingested_samples} shed={self.shed_samples} "
            f"rejected={self.rejected_samples} pending={self.pending_samples}",
            f"accounting identity: {self.accounting_identity_holds}",
            f"memory within per-tenant cap: {self.memory_within_cap}",
            self.accounting_summary,
        ]
        return "\n".join(lines)

    def perf_text(self) -> str:
        """The timing part (never committed to determinism-diffed files)."""
        if self.samples_per_sec is None:
            return "perf: not measured (no timer injected)"
        return (
            f"perf: {self.samples_per_sec:,.0f} samples/s sustained over "
            f"{self.elapsed_s:.2f} s; {self.queries_served} queries, "
            f"p50 {self.query_p50_ms:.2f} ms, p99 {self.query_p99_ms:.2f} ms"
        )


def _prebuild_frames(
    spec: LoadSpec, sources: list[SyntheticSource]
) -> list[list[bytes]]:
    """Pre-encode every wire frame one tenant will publish, per round.

    Generating and encoding batches is the load *generator's* CPU
    cost, not the service's; building the frames before the timed window
    opens keeps the harness from perturbing the latency it measures
    (the standard pre-generated-payload discipline of HTTP load tools).
    """
    rounds: list[list[bytes]] = []
    for _round in range(spec.batches_per_node):
        rounds.append(
            [
                protocol.encode_frame(
                    protocol.batch_message(
                        src.node, {src.channel: src.batch(spec.batch_samples)}
                    )
                )
                for src in sources
            ]
        )
    return rounds


def _publisher(
    spec: LoadSpec,
    host: str,
    port: int,
    tenant: str,
    rounds: list[list[bytes]],
    ready: threading.Event,
    errors: list[BaseException],
) -> None:
    try:
        with ServiceClient(
            host, port, tenant, source="load", backpressure=spec.backpressure
        ) as client:
            # Round 0 creates every channel, then a sync barrier so query
            # workers always find their targets.
            for frame in rounds[0]:
                client.publish_encoded(frame, spec.batch_samples)
            client.sync()
            ready.set()
            for frames in rounds[1:]:
                for frame in frames:
                    client.publish_encoded(frame, spec.batch_samples)
            client.sync()
    except BaseException as exc:  # noqa: BLE001 - surfaced by run_load
        ready.set()
        errors.append(exc)


def _query_worker(
    spec: LoadSpec,
    host: str,
    http_port: int,
    worker_index: int,
    done: threading.Event,
    latencies: list[float],
    served: list[int],
    errors: list[BaseException],
    timer: Callable[[], float] | None,
) -> None:
    rng = np.random.default_rng(_seed_for("queries", worker_index, spec.name))
    tenants = spec.tenant_names()
    count = 0
    try:
        while count < spec.queries and not done.is_set():
            tenant = tenants[int(rng.integers(0, spec.tenants))]
            node = int(rng.integers(0, spec.nodes_per_tenant))
            channel = f"ch{int(rng.integers(0, spec.channels_per_node))}"
            horizon = spec.batch_samples * spec.batches_per_node / spec.rate_hz
            t0 = float(rng.uniform(0.0, horizon / 2))
            t1 = t0 + float(rng.uniform(0.0, horizon / 2))
            path = (
                f"/query/range?tenant={tenant}&node={node}"
                f"&channel={channel}&t0={t0:.6f}&t1={t1:.6f}"
            )
            start = timer() if timer is not None else 0.0
            http_get_json(host, http_port, path)
            if timer is not None:
                latencies.append((timer() - start) * 1e3)
            count += 1
    except BaseException as exc:  # noqa: BLE001 - surfaced by run_load
        errors.append(exc)
    finally:
        served[worker_index] = count


def run_load(
    spec: LoadSpec, timer: Callable[[], float] | None = None
) -> LoadReport:
    """Run one load point against a fresh in-process service instance."""
    registry = TenantRegistry(spec.tenant_config)
    with ServiceThread(TelemetryService(registry=registry)) as handle:
        host, port, http_port = handle.host, handle.port, handle.http_port
        errors: list[BaseException] = []
        ready_events: list[threading.Event] = []
        publishers: list[threading.Thread] = []
        clients_meta: list[tuple[str, list[list[bytes]]]] = []
        for tenant in spec.tenant_names():
            sources = [
                SyntheticSource(tenant, node, f"ch{c}", spec.rate_hz)
                for node in range(spec.nodes_per_tenant)
                for c in range(spec.channels_per_node)
            ]
            clients_meta.append((tenant, _prebuild_frames(spec, sources)))

        start = timer() if timer is not None else None
        for tenant, rounds in clients_meta:
            ready = threading.Event()
            ready_events.append(ready)
            thread = threading.Thread(
                target=_publisher,
                args=(spec, host, port, tenant, rounds, ready, errors),
                daemon=True,
            )
            publishers.append(thread)
            thread.start()
        for ready in ready_events:
            ready.wait()

        done = threading.Event()
        latencies: list[float] = []
        served = [0] * spec.query_workers
        query_threads = [
            threading.Thread(
                target=_query_worker,
                args=(
                    spec, host, http_port, i, done, latencies, served,
                    errors, timer,
                ),
                daemon=True,
            )
            for i in range(spec.query_workers)
        ]
        for thread in query_threads:
            thread.start()
        for thread in publishers:
            thread.join()
        elapsed = (timer() - start) if timer is not None else None
        done.set()
        for thread in query_threads:
            thread.join()
        if errors:
            raise ConfigurationError(f"load harness failed: {errors[0]!r}")

        # Everything acked; the ledger below is the post-apply state.
        totals = {
            k: sum(snap[k] for snap in registry.snapshot())
            for k in (
                "samples_offered",
                "samples_ingested",
                "samples_shed",
                "samples_rejected",
                "pending_samples",
            )
        }
        memory_ok = all(
            snap["store_bytes"] <= snap["memory_cap_bytes"]
            for snap in registry.snapshot()
        )
        report = LoadReport(
            spec=spec,
            accounting_summary=registry.accounting_summary(),
            published_batches=spec.total_nodes
            * spec.channels_per_node
            * spec.batches_per_node,
            published_samples=spec.total_samples,
            offered_samples=totals["samples_offered"],
            ingested_samples=totals["samples_ingested"],
            shed_samples=totals["samples_shed"],
            rejected_samples=totals["samples_rejected"],
            pending_samples=totals["pending_samples"],
            memory_within_cap=memory_ok,
            queries_served=sum(served),
            elapsed_s=elapsed,
        )
        if timer is not None and elapsed:
            report.samples_per_sec = spec.total_samples / elapsed
            if latencies:
                report.query_p50_ms = float(np.percentile(latencies, 50))
                report.query_p99_ms = float(np.percentile(latencies, 99))
    return report
