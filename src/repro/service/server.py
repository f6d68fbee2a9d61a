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
  ``watch --url`` CLI attaches to.  Connections persist (HTTP/1.1
  keep-alive), and a range query answers in the columnar body of
  :func:`~repro.service.protocol.encode_range` when the request's
  ``Accept`` names it, in JSON otherwise.

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


#: ``(status, body, content type)`` of one HTTP response.
_Response = tuple[int, str | bytes, str]


def _header_tokens(headers: dict[str, str], name: str) -> set[str]:
    """The comma-separated values of one header, parameters stripped."""
    return {
        item.split(";", 1)[0].strip().lower()
        for item in headers.get(name, "").split(",")
    }


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
        #: Handler tasks of open connections on either listener.
        self._conn_tasks: set[asyncio.Task] = set()
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
            self._tracked(self._handle_stream), self.host, self._want_port
        )
        self._http_server = await asyncio.start_server(
            self._tracked(self._handle_http), self.host, self._want_http_port
        )
        self._drainer = asyncio.create_task(self._drain_loop())

    def _tracked(self, handler):
        """``handler`` registered in :attr:`_conn_tasks` while it runs."""

        async def run(reader, writer) -> None:
            task = asyncio.current_task()
            self._conn_tasks.add(task)
            try:
                await handler(reader, writer)
            except asyncio.CancelledError:
                # Only stop() cancels a connection, and the handler has
                # closed it.  Ending quietly keeps Python 3.11's stream
                # callback from logging the cancelled task as an error.
                pass
            finally:
                self._conn_tasks.discard(task)

        return run

    async def stop(self) -> None:
        servers = [
            s for s in (self._stream_server, self._http_server) if s is not None
        ]
        for server in servers:
            server.close()
        # Idle keep-alive clients, SSE watchers and open stream sessions
        # park their handlers on a socket read; cancel them, or
        # ``wait_closed`` (which waits for every connection on Python
        # >= 3.12) never returns.
        while self._conn_tasks:
            tasks = list(self._conn_tasks)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            self._conn_tasks.difference_update(tasks)
        for server in servers:
            await server.wait_closed()
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
        """Serve requests on one connection until either side ends it."""
        try:
            while await self._serve_http(reader, writer):
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _serve_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Answer one request; whether the connection stays open after it.

        HTTP/1.1 connections persist unless the request says
        ``Connection: close``.  A 400 or 413 ends the connection, since
        the framing of whatever follows can no longer be trusted, and so
        does the ``/watch`` stream.
        """
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return False
        request_line, _, header_block = head.partition(b"\r\n")
        try:
            method, target, version = request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            await self._respond(writer, 400, "malformed request line")
            return False
        headers = {}
        for line in header_block.decode("latin-1").split("\r\n"):
            key, sep, value = line.partition(":")
            if sep:
                headers[key.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            await self._respond(writer, 400, "bad Content-Length")
            return False
        if length > MAX_HTTP_BYTES:
            await self._respond(writer, 413, "body too large")
            return False
        body = await reader.readexactly(length) if length else b""
        self.activity += 1
        try:
            response = await self._route(writer, method, target, headers, body)
        except ConfigurationError as exc:
            response = 400, str(exc), "text/plain"
        if response is None:
            return False
        status, data, content_type = response
        keep_alive = (
            status != 400
            and version == "HTTP/1.1"
            and "close" not in _header_tokens(headers, "connection")
        )
        await self._respond(writer, status, data, content_type, keep_alive)
        return keep_alive

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
    ) -> _Response | None:
        """The response to one request, or None once ``/watch`` owned the
        connection."""
        parts = urlsplit(target)
        path = parts.path
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        if method == "GET" and path == "/healthz":
            return 200, "ok", "text/plain"
        if method == "GET" and path == "/metrics":
            await self._drain_known(query.get("tenant"))
            text = prometheus_text_multi(self.registry.stores())
            return 200, text, "text/plain; version=0.0.4"
        if method == "GET" and path == "/tenants":
            await self._drain_known(None)
            return self._json(
                {
                    "tenants": self.registry.snapshot(),
                    "watch_frames_sent": dict(sorted(self.watch_frames_sent.items())),
                    "watch_frames_dropped": dict(
                        sorted(self.watch_frames_dropped.items())
                    ),
                    "drain_errors": self.drain_errors,
                    "last_drain_error": self.last_drain_error,
                }
            )
        if method == "GET" and path == "/query/range":
            return self._query_range(query, headers)
        if method == "GET" and path == "/query/energy":
            return self._query_energy(query)
        if method == "POST" and path == "/ingest":
            return await self._http_ingest(query, body)
        if method == "GET" and path == "/watch":
            await self._watch_sse(writer, query)
            return None
        return 404, f"no route {method} {path}", "text/plain"

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
        """The query's ``t0``/``t1``; a missing one defaults to the series'
        first or last point."""
        t0 = cls._query_number(query, "t0", None, float)
        t1 = cls._query_number(query, "t1", None, float)
        if t0 is None or t1 is None:
            first, last = series.time_span()
            t0 = first if t0 is None else t0
            t1 = last if t1 is None else t1
        return t0, t1

    def _query_range(self, query: dict, headers: dict[str, str]) -> _Response:
        # Range/energy queries serve the *applied* state: a batch is only
        # guaranteed visible once its session synced (which drains fully),
        # so skipping the inline drain keeps query latency flat under
        # sustained ingest without weakening the ack contract.
        tenant, series = self._series(query)
        t0, t1 = self._bounds(query, series)
        pts = series.range_query(t0, t1)
        columns = {name: pts[name] for name in ("t", "watts", "joules", "tier")}
        if protocol.RANGE_MEDIA_TYPE in _header_tokens(headers, "accept"):
            body = protocol.encode_range(tenant.name, t0, t1, columns)
            return 200, body, protocol.RANGE_MEDIA_TYPE
        return self._json(
            {
                "tenant": tenant.name,
                "t0": t0,
                "t1": t1,
                "n": len(pts["t"]),
                **{name: col.tolist() for name, col in columns.items()},
            }
        )

    def _query_energy(self, query: dict) -> _Response:
        tenant, series = self._series(query)
        t0, t1 = self._bounds(query, series)
        return self._json(
            {
                "tenant": tenant.name,
                "t0": t0,
                "t1": t1,
                "joules": series.energy_between(t0, t1),
            }
        )

    async def _http_ingest(self, query: dict, body: bytes) -> _Response:
        tenant = self.registry.get_or_create(query.get("tenant", "") or "default")
        try:
            doc = protocol.loads(body)
        except ValueError as exc:
            tenant.reject(f"body not JSON: {exc}")
            return 400, "body is not JSON", "text/plain"
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
            return 400, "body repeats 'batches'", "text/plain"
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
        return self._json(
            {
                "accepted": accepted,
                "shed": shed,
                "rejected": rejected,
                **tenant.snapshot(),
            }
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

    @staticmethod
    def _json(payload: dict | list) -> _Response:
        return 200, json.dumps(payload, sort_keys=True), "application/json"

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        body: str | bytes,
        content_type: str = "text/plain",
        keep_alive: bool = False,
    ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found", 413: "Too Large"}
        data = body.encode() if isinstance(body, str) else body
        writer.write(
            (
                f"HTTP/1.1 {status} {reason.get(status, 'Status')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(data)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
            ).encode()
            + data
        )
        await writer.drain()


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
