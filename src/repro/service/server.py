"""The asyncio telemetry service: multi-tenant ingest + query tier.

One :class:`TelemetryService` owns a :class:`~repro.service.tenants.
TenantRegistry` and exposes it on two loopback-friendly listeners:

* a **stream port** speaking the length-prefixed frame protocol
  (:mod:`repro.service.protocol`) — the high-rate ingest path.  A
  ``wait``-mode session gets real backpressure: while its tenant's write
  queue is saturated the server simply stops reading the socket, so the
  TCP window fills and the publisher blocks.  A ``shed``-mode session
  (kHz sources that must never block) is never paused; saturated batches
  are shed *with accounting* and the counters travel back in every ack;
* an **HTTP port** for the query tier: time-range and energy queries
  (served off the store's energy-preserving cumulative-joules knots),
  the multi-tenant Prometheus scrape, tenant accounting snapshots, JSON
  ingest for low-rate publishers, and an SSE live-watch stream the
  ``watch --url`` CLI attaches to.

A single drainer task applies queued batches to the tiered stores in
bounded chunks, yielding between chunks so query latency stays flat
under sustained ingest.  Range/energy queries serve the *applied* state
(the ack contract is per-session: a ``sync`` ack drains its tenant
fully, so anything a publisher has had acked is visible); the ledger
views (``/tenants``, ``/metrics``) drain first, trading scrape latency
for an exact snapshot.

The service never reads a host clock: sample timestamps arrive on the
wire, and scheduling uses events, not time — a scripted feed produces a
byte-identical accounting summary on every run.
"""

from __future__ import annotations

import asyncio
import json
import threading
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigurationError
from repro.service import protocol
from repro.service.tenants import (
    Tenant,
    TenantConfig,
    TenantRegistry,
    batch_samples,
)
from repro.timeseries.collect import TimeseriesCollector
from repro.timeseries.export import prometheus_text_multi
from repro.timeseries.live import LiveView

#: Batches applied per tenant per drainer pass.  Small on purpose: the
#: drainer yields between passes, so this bounds the longest stretch the
#: event loop spends applying samples before a queued query handler runs
#: — the knob that keeps p99 query latency flat under kHz-class ingest.
DRAIN_CHUNK_BATCHES = 8

#: Ceiling on one HTTP request head + body.
MAX_HTTP_BYTES = 32 * 1024 * 1024

#: Pending live-watch frames per SSE subscriber before frames are dropped
#: (with accounting — a slow watcher terminal must not stall ingest).
WATCH_QUEUE_FRAMES = 64


class _Watcher:
    """One SSE subscription to a tenant's live frames."""

    def __init__(self, tenant: str, every_samples: int, width: int) -> None:
        self.tenant = tenant
        self.every_samples = max(1, int(every_samples))
        self.width = int(width)
        self.queue: asyncio.Queue[str] = asyncio.Queue(maxsize=WATCH_QUEUE_FRAMES)
        self.samples_since_frame = 0
        self.frames_sent = 0
        self.frames_dropped = 0


class TelemetryService:
    """Asyncio ingest/query service over per-tenant tiered stores.

    Parameters
    ----------
    registry:
        The tenant registry (created with ``tenant_config`` when omitted).
    host:
        Bind address for both listeners (default loopback).
    port / http_port:
        Stream / HTTP listen ports; ``0`` binds an ephemeral port
        (read back from :attr:`port` / :attr:`http_port` after start).
    """

    def __init__(
        self,
        registry: TenantRegistry | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        http_port: int = 0,
        tenant_config: TenantConfig | None = None,
    ) -> None:
        self.registry = (
            registry if registry is not None else TenantRegistry(tenant_config)
        )
        self.host = host
        self._want_port = int(port)
        self._want_http_port = int(http_port)
        self._stream_server: asyncio.AbstractServer | None = None
        self._http_server: asyncio.AbstractServer | None = None
        self._drainer: asyncio.Task | None = None
        self._work: asyncio.Event | None = None
        self._drained: asyncio.Condition | None = None
        self._watchers: dict[str, list[_Watcher]] = {}
        self._sse_tasks: set[asyncio.Task] = set()
        #: Frames/requests processed (the serve CLI's idle detector).
        self.activity = 0
        #: Per-tenant live-watch frame ledger (sent/dropped), by name.
        self.watch_frames_sent: dict[str, int] = {}
        self.watch_frames_dropped: dict[str, int] = {}
        #: Errors swallowed to keep the drainer alive (surfaced on /tenants).
        self.drain_errors = 0
        self.last_drain_error: str | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        if self._stream_server is None:
            raise ConfigurationError("service is not started")
        return self._stream_server.sockets[0].getsockname()[1]

    @property
    def http_port(self) -> int:
        if self._http_server is None:
            raise ConfigurationError("service is not started")
        return self._http_server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._work = asyncio.Event()
        self._drained = asyncio.Condition()
        self._stream_server = await asyncio.start_server(
            self._handle_stream, self.host, self._want_port
        )
        self._http_server = await asyncio.start_server(
            self._handle_http, self.host, self._want_http_port
        )
        self._drainer = asyncio.create_task(self._drain_loop())

    async def stop(self) -> None:
        for server in (self._stream_server, self._http_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        # SSE handlers park on their frame queue; cancel them explicitly so
        # nothing survives the loop.
        for task in list(self._sse_tasks):
            task.cancel()
        if self._sse_tasks:
            await asyncio.gather(*self._sse_tasks, return_exceptions=True)
        self._sse_tasks.clear()
        if self._drainer is not None:
            self._drainer.cancel()
            try:
                await self._drainer
            except asyncio.CancelledError:
                pass
        self._stream_server = self._http_server = self._drainer = None

    # -- drainer -------------------------------------------------------------

    async def _drain_loop(self) -> None:
        assert self._work is not None and self._drained is not None
        while True:
            await self._work.wait()
            self._work.clear()
            # An escaping exception must never kill the drainer: ingest
            # would stop being applied and wait-mode publishers would
            # block forever in _wait_capacity.  Record it and carry on;
            # waiters are notified no matter what.
            try:
                applied = self.registry.drain_all(DRAIN_CHUNK_BATCHES)
                if any(applied.values()):
                    self._push_watch_frames(applied)
            except Exception as exc:  # noqa: BLE001 - drainer must survive
                self._record_drain_error(exc)
            finally:
                async with self._drained:
                    self._drained.notify_all()
            if any(
                self.registry.get(name).pending_batches
                for name in self.registry.names()
            ):
                self._work.set()
                # Yield so queries interleave with a deep backlog.
                await asyncio.sleep(0)

    async def _drain_tenant(self, tenant: Tenant) -> None:
        """Apply everything queued for ``tenant`` (queries call this)."""
        while tenant.pending_batches:
            applied = tenant.drain(DRAIN_CHUNK_BATCHES)
            if applied:
                try:
                    self._push_watch_frames({tenant.name: applied})
                except Exception as exc:  # noqa: BLE001 - see _drain_loop
                    self._record_drain_error(exc)
            async with self._drained:
                self._drained.notify_all()
            await asyncio.sleep(0)

    def _record_drain_error(self, exc: BaseException) -> None:
        self.drain_errors += 1
        self.last_drain_error = f"{type(exc).__name__}: {exc}"

    def _kick(self) -> None:
        if self._work is not None:
            self._work.set()

    async def _wait_capacity(self, tenant: Tenant, num_samples: int) -> None:
        """Block (backpressure) until ``num_samples`` more samples fit.

        A batch larger than the queue bound itself can never "fit"; for
        that case waiting ends once the queue is fully drained, and the
        caller force-enqueues (one-batch overshoot) — wait mode is
        lossless, so such a batch must land, not shed.
        """
        assert self._drained is not None
        while (
            tenant.pending_samples > 0
            and tenant.pending_samples + num_samples
            > tenant.config.max_pending_samples
        ):
            self._kick()
            async with self._drained:
                await self._drained.wait()

    # -- live watch ----------------------------------------------------------

    def _push_watch_frames(self, applied_by_tenant: dict[str, int]) -> None:
        """Credit each tenant's watchers with that tenant's applied samples.

        A watcher's ``every`` cadence counts only its own tenant's ingest
        — tenant B's traffic must not make tenant A's watcher emit.
        """
        for name, applied in applied_by_tenant.items():
            watchers = self._watchers.get(name)
            if not applied or not watchers:
                continue
            tenant = self.registry.get(name)
            for watcher in watchers:
                watcher.samples_since_frame += applied
                if watcher.samples_since_frame < watcher.every_samples:
                    continue
                watcher.samples_since_frame = 0
                frame = self._render_frame(tenant, watcher.width)
                try:
                    watcher.queue.put_nowait(frame)
                    watcher.frames_sent += 1
                    self.watch_frames_sent[name] = (
                        self.watch_frames_sent.get(name, 0) + 1
                    )
                except asyncio.QueueFull:
                    watcher.frames_dropped += 1
                    self.watch_frames_dropped[name] = (
                        self.watch_frames_dropped.get(name, 0) + 1
                    )

    @staticmethod
    def _render_frame(tenant: Tenant, width: int) -> str:
        """One SSE payload: the tenant's live dashboard frame as JSON."""
        view = LiveView(TimeseriesCollector(store=tenant.store), width=width)
        return json.dumps(
            {
                "tenant": tenant.name,
                "samples": tenant.store.num_samples,
                "channels": len(tenant.store),
                "frame": view.render(),
            },
            sort_keys=True,
        )

    # -- stream protocol -----------------------------------------------------

    async def _handle_stream(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = protocol.FrameDecoder()
        tenant: Tenant | None = None
        backpressure = "wait"
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                try:
                    messages = decoder.feed(data)
                except protocol.ProtocolError as exc:
                    await self._send_frame(
                        writer, {"kind": "error", "message": str(exc)}
                    )
                    break
                for message in messages:
                    self.activity += 1
                    kind = message.get("kind")
                    if kind == "hello":
                        try:
                            tenant, backpressure = self._on_hello(message)
                        except protocol.ProtocolError as exc:
                            await self._send_frame(
                                writer, {"kind": "error", "message": str(exc)}
                            )
                            return
                    elif kind == "batch":
                        if tenant is None:
                            await self._send_frame(
                                writer,
                                {"kind": "error", "message": "hello first"},
                            )
                            return
                        await self._on_batch(tenant, backpressure, message)
                        # Yield between batches so query handlers interleave
                        # at batch granularity under sustained ingest.
                        await asyncio.sleep(0)
                    elif kind == "sync":
                        if tenant is not None:
                            await self._drain_tenant(tenant)
                        await self._send_frame(writer, self._ack(tenant))
                    elif kind == "bye":
                        if tenant is not None:
                            await self._drain_tenant(tenant)
                        await self._send_frame(writer, self._ack(tenant))
                        return
                    else:
                        await self._send_frame(
                            writer,
                            {"kind": "error", "message": f"unknown kind {kind!r}"},
                        )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    def _on_hello(self, message: dict) -> tuple[Tenant, str]:
        if message.get("protocol") not in protocol.SUPPORTED_PROTOCOL_VERSIONS:
            raise protocol.ProtocolError(
                f"protocol version {message.get('protocol')!r} is not one of "
                f"{protocol.SUPPORTED_PROTOCOL_VERSIONS}"
            )
        backpressure = message.get("backpressure", "wait")
        if backpressure not in protocol.BACKPRESSURE_MODES:
            raise protocol.ProtocolError(
                f"unknown backpressure mode {backpressure!r}"
            )
        name = str(message.get("tenant", ""))
        if not name:
            raise protocol.ProtocolError("hello carries no tenant")
        return self.registry.get_or_create(name), backpressure

    async def _on_batch(
        self, tenant: Tenant, backpressure: str, message: dict
    ) -> None:
        try:
            node, channels = protocol.parse_batch(message)
        except protocol.ProtocolError as exc:
            tenant.reject(str(exc), protocol.batch_num_samples(message))
            return
        if backpressure == "wait":
            # Lossless contract: block until this batch *fits* (not
            # merely until the queue is unsaturated — a batch straddling
            # the remaining space would be shed), then enqueue
            # unconditionally.
            await self._wait_capacity(tenant, batch_samples(channels))
            tenant.offer(node, channels, force=True)
        else:
            tenant.offer(node, channels)
        self._kick()

    def _ack(self, tenant: Tenant | None) -> dict:
        if tenant is None:
            return {"kind": "ack", "tenant": None}
        return {"kind": "ack", **tenant.snapshot()}

    @staticmethod
    async def _send_frame(writer: asyncio.StreamWriter, message: dict) -> None:
        writer.write(protocol.encode_frame(message))
        await writer.drain()

    # -- HTTP ----------------------------------------------------------------

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                return
            request_line, _, header_block = head.partition(b"\r\n")
            try:
                method, target, _version = (
                    request_line.decode("latin-1").split(" ", 2)
                )
            except ValueError:
                await self._respond(writer, 400, "malformed request line")
                return
            headers = {}
            for line in header_block.decode("latin-1").split("\r\n"):
                key, sep, value = line.partition(":")
                if sep:
                    headers[key.strip().lower()] = value.strip()
            body = b""
            length = int(headers.get("content-length", "0") or 0)
            if length > MAX_HTTP_BYTES:
                await self._respond(writer, 413, "body too large")
                return
            if length:
                body = await reader.readexactly(length)
            self.activity += 1
            await self._route(writer, method, target, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _route(
        self, writer: asyncio.StreamWriter, method: str, target: str, body: bytes
    ) -> None:
        parts = urlsplit(target)
        path = parts.path
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        try:
            if method == "GET" and path == "/healthz":
                await self._respond(writer, 200, "ok")
            elif method == "GET" and path == "/metrics":
                await self._drain_known(query.get("tenant"))
                text = prometheus_text_multi(self.registry.stores())
                await self._respond(
                    writer, 200, text, "text/plain; version=0.0.4"
                )
            elif method == "GET" and path == "/tenants":
                await self._drain_known(None)
                payload = {
                    "tenants": self.registry.snapshot(),
                    "watch_frames_sent": dict(
                        sorted(self.watch_frames_sent.items())
                    ),
                    "watch_frames_dropped": dict(
                        sorted(self.watch_frames_dropped.items())
                    ),
                    "drain_errors": self.drain_errors,
                    "last_drain_error": self.last_drain_error,
                }
                await self._respond_json(writer, 200, payload)
            elif method == "GET" and path == "/query/range":
                await self._query_range(writer, query)
            elif method == "GET" and path == "/query/energy":
                await self._query_energy(writer, query)
            elif method == "POST" and path == "/ingest":
                await self._http_ingest(writer, query, body)
            elif method == "GET" and path == "/watch":
                await self._watch_sse(writer, query)
            else:
                await self._respond(writer, 404, f"no route {method} {path}")
        except ConfigurationError as exc:
            await self._respond(writer, 400, str(exc))

    async def _drain_known(self, tenant_name: str | None) -> None:
        if tenant_name is not None:
            await self._drain_tenant(self.registry.get(tenant_name))
            return
        for name in self.registry.names():
            await self._drain_tenant(self.registry.get(name))

    def _series(self, query: dict):
        tenant = self.registry.get(query.get("tenant", ""))
        try:
            node = int(query["node"])
            channel = query["channel"]
        except (KeyError, ValueError):
            raise ConfigurationError(
                "range/energy queries need tenant, node and channel"
            ) from None
        key = (node, channel)
        if key not in tenant.store:
            raise ConfigurationError(
                f"tenant {tenant.name!r} has no channel {key!r}"
            )
        return tenant, tenant.store.channel(node, channel)

    @staticmethod
    def _query_number(query: dict, key: str, default, convert):
        """``convert(query[key])`` or ``default``; a typed 400 on junk."""
        raw = query.get(key)
        if raw is None:
            return default
        try:
            return convert(raw)
        except ValueError:
            raise ConfigurationError(
                f"query parameter {key}={raw!r} is not a number"
            ) from None

    @classmethod
    def _bounds(cls, query: dict, series) -> tuple[float, float]:
        pts = series.points()
        t_lo = float(pts["t"][0]) if len(pts["t"]) else 0.0
        t_hi = float(pts["t"][-1]) if len(pts["t"]) else 0.0
        t0 = cls._query_number(query, "t0", t_lo, float)
        t1 = cls._query_number(query, "t1", t_hi, float)
        return t0, t1

    async def _query_range(self, writer: asyncio.StreamWriter, query: dict) -> None:
        # Range/energy queries serve the *applied* state: a batch is only
        # guaranteed visible once its session synced (which drains fully),
        # so skipping the inline drain keeps query latency flat under
        # sustained ingest without weakening the ack contract.
        tenant, series = self._series(query)
        t0, t1 = self._bounds(query, series)
        pts = series.range_query(t0, t1)
        await self._respond_json(
            writer,
            200,
            {
                "tenant": tenant.name,
                "t0": t0,
                "t1": t1,
                "n": int(len(pts["t"])),
                "t": [float(v) for v in pts["t"]],
                "watts": [float(v) for v in pts["watts"]],
                "joules": [float(v) for v in pts["joules"]],
                "tier": [int(v) for v in pts["tier"]],
            },
        )

    async def _query_energy(self, writer: asyncio.StreamWriter, query: dict) -> None:
        tenant, series = self._series(query)
        t0, t1 = self._bounds(query, series)
        await self._respond_json(
            writer,
            200,
            {
                "tenant": tenant.name,
                "t0": t0,
                "t1": t1,
                "joules": series.energy_between(t0, t1),
            },
        )

    async def _http_ingest(
        self, writer: asyncio.StreamWriter, query: dict, body: bytes
    ) -> None:
        tenant = self.registry.get_or_create(query.get("tenant", "") or "default")
        try:
            doc = protocol.loads(body)
        except ValueError as exc:
            tenant.reject(f"body not JSON: {exc}")
            await self._respond(writer, 400, "body is not JSON")
            return
        if isinstance(doc, protocol.RepeatedKeys) and "batches" in doc:
            # Only the last repeat would be read: refuse the whole body,
            # booking the samples of every repeat.
            listed = [
                batch
                for key, value in doc.pairs
                if key == "batches"
                for batch in (value if isinstance(value, list) else [value])
            ]
            samples = sum(protocol.batch_num_samples(batch) for batch in listed)
            tenant.reject("body repeats 'batches'", samples)
            await self._respond(writer, 400, "body repeats 'batches'")
            return
        batches = doc.get("batches", [doc]) if isinstance(doc, dict) else doc
        if not isinstance(batches, list):
            batches = [batches]
        accepted = shed = rejected = 0
        for message in batches:
            self.activity += 1
            try:
                node, channels = protocol.parse_batch(message)
            except protocol.ProtocolError as exc:
                tenant.reject(str(exc), protocol.batch_num_samples(message))
                rejected += 1
                continue
            if tenant.offer(node, channels):
                accepted += 1
            else:
                shed += 1
        self._kick()
        await self._drain_tenant(tenant)
        await self._respond_json(
            writer,
            200,
            {
                "accepted": accepted,
                "shed": shed,
                "rejected": rejected,
                **tenant.snapshot(),
            },
        )

    async def _watch_sse(self, writer: asyncio.StreamWriter, query: dict) -> None:
        name = query.get("tenant", "")
        if not name:
            raise ConfigurationError("watch needs a tenant")
        tenant = self.registry.get_or_create(name)
        watcher = _Watcher(
            name,
            every_samples=self._query_number(query, "every", 1, int),
            width=self._query_number(query, "width", 48, int),
        )
        self._watchers.setdefault(name, []).append(watcher)
        task = asyncio.current_task()
        if task is not None:
            self._sse_tasks.add(task)
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n"
                b"Connection: close\r\n\r\n"
            )
            # An immediate first frame so an attaching watcher renders the
            # current state without waiting for the next ingest round.
            writer.write(
                f"data: {self._render_frame(tenant, watcher.width)}\n\n".encode()
            )
            await writer.drain()
            while True:
                frame = await watcher.queue.get()
                writer.write(f"data: {frame}\n\n".encode())
                await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            self._watchers[name].remove(watcher)
            if task is not None:
                self._sse_tasks.discard(task)

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        body: str,
        content_type: str = "text/plain",
    ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found", 413: "Too Large"}
        data = body.encode()
        writer.write(
            (
                f"HTTP/1.1 {status} {reason.get(status, 'Status')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(data)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode()
            + data
        )
        await writer.drain()

    @classmethod
    async def _respond_json(
        cls, writer: asyncio.StreamWriter, status: int, payload: dict | list
    ) -> None:
        await cls._respond(
            writer,
            status,
            json.dumps(payload, sort_keys=True),
            "application/json",
        )


class ServiceThread:
    """Run a :class:`TelemetryService` on a daemon thread's event loop.

    The simulation side of this codebase is synchronous (the virtual
    clock advances inline), so tests, benchmarks and the ``publish`` CLI
    host the service here and talk to it over loopback sockets exactly
    like a remote service.
    """

    def __init__(self, service: TelemetryService | None = None, **kwargs) -> None:
        self.service = service if service is not None else TelemetryService(**kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> "ServiceThread":
        if self._thread is not None:
            raise ConfigurationError("service thread already started")
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise ConfigurationError(
                f"service failed to start: {self._startup_error}"
            )
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.service.start())
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.service.stop())
            loop.close()

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def http_port(self) -> int:
        return self.service.http_port

    @property
    def host(self) -> str:
        return self.service.host

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop = self._thread = None
