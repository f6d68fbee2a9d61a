"""Synchronous clients of the telemetry service.

The simulation stack is synchronous (the virtual clock advances inline
with the step loop), so publishers talk to the asyncio service over
plain blocking sockets:

* :class:`ServiceClient` — one framed-protocol session.  In ``wait``
  mode the server applies real backpressure by pausing socket reads, so
  ``publish`` blocks exactly when the tenant's write queue is saturated;
  in ``shed`` mode it never blocks and the ack ledger reports what was
  dropped;
* :class:`ServiceCollector` — a :class:`~repro.timeseries.collect.
  TimeseriesCollector` that *additionally* republishes every sampler
  tick to a service, batched per node.  It keeps the observational
  design of the PR 3 collector: it only reads tick payloads already
  delivered to listeners, never touches meters or the clock, so a run
  publishes with **zero perturbation** — per-region energies and report
  artifacts are bit-identical with the publisher on or off;
* small HTTP/SSE helpers the ``watch --url`` CLI and the tests use.
  GETs keep one persistent connection per thread and server and ask
  for the columnar range body; POSTs get a connection each and are
  never resent.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from typing import Callable, Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.service import protocol
from repro.service.protocol import ProtocolError
from repro.timeseries.collect import TimeseriesCollector
from repro.timeseries.spans import SpanRecorder
from repro.timeseries.store import SampleStore, quality_code


def _strip_scheme(url: str) -> str:
    text = url.strip()
    for prefix in ("telemetry://", "tcp://", "http://"):
        if text.startswith(prefix):
            return text[len(prefix) :]
    return text


def parse_endpoint(url: str, default_host: str = "127.0.0.1") -> tuple[str, int]:
    """``[scheme://]host:port[/tenant]`` -> the ``(host, port)`` pair.

    Accepted schemes: ``telemetry://``, ``tcp://``, ``http://`` (or
    none).  Any ``/tenant`` path is ignored here — use
    :func:`endpoint_tenant` to read it.
    """
    text, _, _ = _strip_scheme(url).partition("/")
    host, sep, port_text = text.rpartition(":")
    if not sep:
        raise ConfigurationError(
            f"endpoint {url!r} must look like host:port"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(f"endpoint {url!r} has no integer port") from None
    return (host or default_host), port


def endpoint_tenant(url: str) -> str | None:
    """The ``/tenant`` path of a ``telemetry://host:port/tenant`` URL.

    Returns ``None`` when the URL carries no path, so callers can fall
    back to an explicit ``--tenant`` flag.
    """
    _, _, path = _strip_scheme(url).partition("/")
    return path.strip("/") or None


class ServiceClient:
    """One framed-protocol publisher session."""

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str,
        source: str = "client",
        backpressure: str = "wait",
        timeout_s: float = 30.0,
    ) -> None:
        self.tenant = tenant
        self._decoder = protocol.FrameDecoder()
        self._frames: list[dict] = []
        self._sock = socket.create_connection((host, int(port)), timeout=timeout_s)
        self._closed = False
        self.published_batches = 0
        self.published_samples = 0
        self._send(protocol.hello_message(tenant, source, backpressure))

    # -- wire ----------------------------------------------------------------

    def _send(self, message: dict) -> None:
        if self._closed:
            raise ConfigurationError("client session is closed")
        self._sock.sendall(protocol.encode_frame(message))

    def _recv_frame(self) -> dict:
        while not self._frames:
            data = self._sock.recv(65536)
            if not data:
                raise ConfigurationError("service closed the connection")
            self._frames.extend(self._decoder.feed(data))
        return self._frames.pop(0)

    def _expect_ack(self) -> dict:
        frame = self._recv_frame()
        if frame.get("kind") == "error":
            raise ProtocolError(f"service error: {frame.get('message')}")
        if frame.get("kind") != "ack":
            raise ProtocolError(f"expected ack, got {frame.get('kind')!r}")
        return frame

    # -- publishing ----------------------------------------------------------

    def publish(self, node: int, channels: dict[str, dict[str, list]]) -> None:
        """Publish one batch message (fire-and-forget; ack via sync)."""
        message = protocol.batch_message(node, channels)
        self._send(message)
        self.published_batches += 1
        self.published_samples += protocol.batch_num_samples(message)

    def publish_encoded(self, frame: bytes, num_samples: int) -> None:
        """Publish a pre-encoded batch frame.

        Load harnesses pre-build their wire frames so that generation and
        encode cost stays out of the measured window; this sends one
        such frame verbatim (it must be an ``encode_frame``-framed batch
        for this client's tenant).
        """
        if self._closed:
            raise ConfigurationError("client session is closed")
        self._sock.sendall(frame)
        self.published_batches += 1
        self.published_samples += int(num_samples)

    def sync(self) -> dict:
        """Drain-and-ack barrier: the tenant's ledger after full apply."""
        self._send(protocol.sync_message())
        return self._expect_ack()

    def close(self) -> dict:
        """Send ``bye``, collect the final ledger ack, close the socket."""
        if self._closed:
            raise ConfigurationError("client session is already closed")
        self._send(protocol.bye_message())
        ack = self._expect_ack()
        self._closed = True
        self._sock.close()
        return ack

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._closed:
            self.close()


class ServiceCollector(TimeseriesCollector):
    """A collector that republishes its tick stream to a service.

    Ticks buffer per node and ship as one columnar batch every
    ``batch_ticks`` ticks (plus a final flush on :meth:`close`), so a
    10 Hz sampler costs one frame per ``batch_ticks`` sampling periods,
    not one syscall per sample.

    The publisher is a pure observer of the listener tap: the local
    store/spans (and therefore every report artifact derived from them)
    are identical to a plain :class:`TimeseriesCollector`'s, and nothing
    here can reach the profiler's meters — the zero-perturbation argument
    of the PR 3 collector carries over verbatim.
    """

    def __init__(
        self,
        client: ServiceClient,
        store: SampleStore | None = None,
        spans: SpanRecorder | None = None,
        batch_ticks: int = 32,
    ) -> None:
        super().__init__(store=store, spans=spans)
        if batch_ticks < 1:
            raise ConfigurationError("batch_ticks must be >= 1")
        self.client = client
        self.batch_ticks = int(batch_ticks)
        #: node -> channel -> column lists pending publication.
        self._buffer: dict[int, dict[str, dict[str, list]]] = {}
        self._buffered_ticks: dict[int, int] = {}

    def _on_tick(self, node_index: int, tick) -> None:
        super()._on_tick(node_index, tick)
        channels = self._buffer.setdefault(node_index, {})
        for m in tick.state.measurements:
            cols = channels.setdefault(
                m.name, {"t": [], "watts": [], "joules": [], "quality": []}
            )
            cols["t"].append(tick.timestamp)
            cols["watts"].append(m.watts)
            cols["joules"].append(m.joules)
            cols["quality"].append(quality_code(m.quality))
        count = self._buffered_ticks.get(node_index, 0) + 1
        if count >= self.batch_ticks:
            self._publish_node(node_index)
        else:
            self._buffered_ticks[node_index] = count

    def _publish_node(self, node_index: int) -> None:
        channels = self._buffer.pop(node_index, None)
        self._buffered_ticks[node_index] = 0
        if channels:
            self.client.publish(node_index, channels)

    def flush(self) -> None:
        """Publish every buffered tick (nodes in sorted order)."""
        for node_index in sorted(self._buffer):
            self._publish_node(node_index)

    def close(self) -> dict:
        """Flush, close the session, and return the service's ledger ack."""
        self.flush()
        return self.client.close()


# -- HTTP helpers ------------------------------------------------------------

#: Sent with every request: the columnar range body first, anything else
#: (JSON, text) after it.
_ACCEPT = f"{protocol.RANGE_MEDIA_TYPE}, */*;q=0.5"

#: Pooled connections per thread; the least recently opened is closed
#: past this, so a thread that talked to many services holds few sockets.
_POOL_SIZE = 8


class _Connections(dict):
    """One thread's persistent GET connections, keyed by ``(host, port)``.

    Closed when the thread ends and its thread-local storage drops them.
    """

    def __del__(self) -> None:
        for conn in self.values():
            conn.close()


_pool = threading.local()


def _pooled(host: str, port: int, timeout_s: float) -> http.client.HTTPConnection:
    conns = getattr(_pool, "conns", None)
    if conns is None:
        conns = _pool.conns = _Connections()
    conn = conns.get((host, port))
    if conn is None:
        if len(conns) >= _POOL_SIZE:
            conns.pop(next(iter(conns))).close()
        conn = conns[(host, port)] = http.client.HTTPConnection(
            host, port, timeout=timeout_s
        )
    conn.timeout = timeout_s
    if conn.sock is not None:
        conn.sock.settimeout(timeout_s)
    return conn


def _exchange(
    conn: http.client.HTTPConnection, method: str, path: str, body: bytes | None
) -> tuple[int, str, bytes]:
    headers = {"Accept": _ACCEPT}
    if body:
        headers["Content-Length"] = str(len(body))
    if method != "GET":
        headers["Connection"] = "close"
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.getheader("Content-Type", ""), response.read()
    except BaseException:
        conn.close()
        raise


def _http(
    host: str,
    port: int,
    path: str,
    method: str = "GET",
    body: bytes | None = None,
    timeout_s: float = 30.0,
) -> tuple[int, str, bytes]:
    """``(status, content type, body)`` of one request.

    A GET reuses this thread's persistent connection to ``(host, port)``
    and, when the server has closed that connection meanwhile, is sent
    once more on a fresh one.  Any other method gets a connection of its
    own and is never resent: a replayed ``POST /ingest`` could be applied
    twice.
    """
    if method != "GET":
        conn = http.client.HTTPConnection(host, int(port), timeout=timeout_s)
        try:
            return _exchange(conn, method, path, body)
        finally:
            conn.close()
    conn = _pooled(host, int(port), timeout_s)
    reused = conn.sock is not None
    try:
        return _exchange(conn, method, path, body)
    except ConnectionError:
        if not reused:
            raise
    return _exchange(conn, method, path, body)


def http_request(
    host: str,
    port: int,
    path: str,
    method: str = "GET",
    body: bytes | None = None,
    timeout_s: float = 30.0,
) -> tuple[int, bytes]:
    status, _, data = _http(host, port, path, method, body, timeout_s)
    return status, data


def _decode_body(content_type: str, data: bytes):
    """A response body by its content type: columnar range or JSON."""
    if content_type == protocol.RANGE_MEDIA_TYPE:
        return {
            key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in protocol.decode_range(data).items()
        }
    return json.loads(data)


def http_get_json(host: str, port: int, path: str, timeout_s: float = 30.0):
    status, content_type, data = _http(host, port, path, timeout_s=timeout_s)
    if status != 200:
        raise ConfigurationError(
            f"GET {path} -> {status}: {data.decode(errors='replace')}"
        )
    return _decode_body(content_type, data)


def http_get_text(host: str, port: int, path: str, timeout_s: float = 30.0) -> str:
    status, data = http_request(host, port, path, timeout_s=timeout_s)
    if status != 200:
        raise ConfigurationError(
            f"GET {path} -> {status}: {data.decode(errors='replace')}"
        )
    return data.decode()


def http_post_json(
    host: str, port: int, path: str, payload: dict | list, timeout_s: float = 30.0
):
    status, data = http_request(
        host,
        port,
        path,
        method="POST",
        body=json.dumps(payload, sort_keys=True).encode(),
        timeout_s=timeout_s,
    )
    if status != 200:
        raise ConfigurationError(
            f"POST {path} -> {status}: {data.decode(errors='replace')}"
        )
    return json.loads(data)


def watch_sse(
    host: str,
    port: int,
    tenant: str,
    every: int = 1,
    width: int = 48,
    max_frames: int | None = None,
    timeout_s: float = 30.0,
    on_connect: Callable[[], None] | None = None,
) -> Iterator[dict]:
    """Attach to the live-watch SSE stream; yields decoded frame payloads.

    ``max_frames`` bounds the subscription (the CLI's ``--frames``);
    ``None`` streams until the server closes or the socket times out.
    """
    sock = socket.create_connection((host, int(port)), timeout=timeout_s)
    try:
        request = (
            f"GET /watch?tenant={tenant}&every={int(every)}&width={int(width)} "
            "HTTP/1.1\r\n"
            f"Host: {host}\r\nAccept: text/event-stream\r\n\r\n"
        )
        sock.sendall(request.encode())
        fh = sock.makefile("rb")
        status_line = fh.readline().decode("latin-1")
        if " 200 " not in status_line:
            raise ConfigurationError(f"watch rejected: {status_line.strip()}")
        while fh.readline().strip():  # skip response headers
            pass
        if on_connect is not None:
            on_connect()
        yielded = 0
        while max_frames is None or yielded < max_frames:
            line = fh.readline()
            if not line:
                return
            text = line.decode().strip()
            if not text.startswith("data: "):
                continue
            yield json.loads(text[len("data: ") :])
            yielded += 1
    finally:
        sock.close()
