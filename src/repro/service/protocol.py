"""Wire protocol of the telemetry service.

Every frame is a 4-byte big-endian payload length followed by the
payload; the length prefix makes framing trivial under partial reads and
lets the receiver reject an oversized frame *before* buffering it.  A
payload is one of two self-describing formats, told apart by its first
byte:

* **JSON** — a UTF-8 JSON object.  Every control message (``hello``,
  ``sync``, ``bye``, ``ack``, ``error``) travels as JSON, as does any
  batch whose columns do not convert to arrays; JSON keeps the protocol
  debuggable (``nc`` + a hex dump reads it).  The same batch objects are
  the body of the HTTP ``POST /ingest`` endpoint.
* **Columnar batch** — a ``batch`` whose columns convert to arrays, in
  the fixed little-endian layout below, decoded with ``np.frombuffer``
  into zero-copy columns instead of parsing float text.  Its first byte,
  ``0xC1``, is not valid UTF-8, so no JSON payload can start with it.

Columnar batch payload (all integers little-endian)::

    u8   magic 0xC1
    i64  node
    u32  channel count
    per channel, in name order:
      u32  name length, then that many UTF-8 bytes of the name
      u32  sample count n
      u8   has-quality flag (0 or 1)
      f8[n] t, f8[n] watts, f8[n] joules
      u8[n] quality            (only when the flag is 1)

Both formats decode to the same ``{"kind": "batch", "node", "channels"}``
message and go through the same validator (:func:`parse_batch`), so the
server cannot tell which one a publisher sent.  The format needs no
negotiation: :func:`encode_frame` picks it per message, and a protocol-1
publisher that only sends JSON keeps working.

HTTP range-query responses have a columnar form of their own
(:func:`encode_range`), served as :data:`RANGE_MEDIA_TYPE` to a client
whose ``Accept`` names it (all integers little-endian)::

    u8   magic 0xC2
    f8   t0, f8 t1
    u64  point count n
    u32  column count
    u32  tenant length, then that many UTF-8 bytes of the tenant
    per column: u32 name length + UTF-8 name, u32 dtype length + ASCII
                NumPy dtype string ("<f8" or "|u1")
    per column, in header order: n values of its dtype

Message kinds, client -> server:

* ``hello`` — opens a session: tenant name, a source label, the protocol
  version, and the backpressure mode (``wait`` blocks the socket when the
  tenant's write queue is saturated; ``shed`` never blocks and lets the
  server drop the batch *with accounting*);
* ``batch`` — one node's samples for one or more channels, columnar
  (``t``/``watts``/``joules`` and optional ``quality`` code arrays);
* ``sync`` — requests an ``ack`` carrying the tenant's ingest counters
  (the explicit backpressure/accounting handshake);
* ``bye`` — closes the session; the server acks and disconnects.

Server -> client: ``ack`` (counters snapshot) and ``error``.  ``error``
frames answer frame- and session-level violations: an undecodable
frame, a bad ``hello``, a ``batch`` before ``hello``, an unknown kind.
A structurally invalid *batch* on an established session is rejected
ledger-only — counted in the tenant's ``rejected`` counters and visible
in every ``ack``, but no ``error`` frame is sent, so the hot ingest
path never stalls behind a publisher that isn't reading.  Either way a
bad input is counted, never silently ignored.  That includes a batch
that names a channel (or any key) twice, in either format: both
decoders keep every repetition (:class:`RepeatedKeys`), so the whole
batch is rejected with all of its samples instead of the earlier
channels vanishing.
"""

from __future__ import annotations

import json
import struct
from collections import Counter
from math import isfinite

import numpy as np

from repro.errors import ConfigurationError

#: Protocol version sent in ``hello``.  Version 2 added the columnar
#: batch frame; the server still accepts version-1 (JSON-only) sessions.
PROTOCOL_VERSION = 2

#: Every ``hello`` version the server accepts.
SUPPORTED_PROTOCOL_VERSIONS = (1, 2)

#: Hard ceiling on one frame's payload (16 MiB): a corrupt length
#: prefix must not make the server buffer gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Backpressure modes a session can request.
BACKPRESSURE_MODES = ("wait", "shed")

#: First payload byte of a columnar batch frame (never valid UTF-8).
BATCH_MAGIC = 0xC1

#: First byte of a columnar range-query body.
RANGE_MAGIC = 0xC2

#: Media type of the columnar range-query body.
RANGE_MEDIA_TYPE = "application/vnd.repro.range"

_LEN = struct.Struct(">I")
_BATCH_HEAD = struct.Struct("<BqI")  # magic, node, channel count
_NAME_LEN = struct.Struct("<I")
_CHANNEL_HEAD = struct.Struct("<IB")  # sample count, has-quality flag
_F8 = np.dtype("<f8")
_U1 = np.dtype("u1")
_INT64 = np.iinfo(np.int64)
_FLOAT_COLUMNS = ("t", "watts", "joules")
_FLOATS = frozenset(_FLOAT_COLUMNS)
_FLOAT_ROW_BYTES = len(_FLOAT_COLUMNS) * _F8.itemsize
_RANGE_HEAD = struct.Struct("<BddQI")  # magic, t0, t1, n, column count
#: Column dtypes a range body may carry, by their wire string.
_RANGE_DTYPES = {_F8.str: _F8, _U1.str: _U1}


class ProtocolError(ConfigurationError):
    """Raised on malformed frames or invalid protocol usage."""


class RepeatedKeys(dict):
    """A decoded object that names one key more than once.

    It maps each key to its last value, as ``json.loads`` would, and
    :attr:`pairs` keeps every ``(key, value)`` in wire order.  A batch
    holding one anywhere is malformed (:func:`parse_batch` rejects it),
    and :func:`batch_num_samples` counts the samples of every pair, so a
    repeated channel is booked as rejected instead of silently lost.
    """

    def __init__(self, pairs: list[tuple]) -> None:
        super().__init__(pairs)
        self.pairs = pairs


def _object(pairs: list[tuple]) -> dict:
    obj = dict(pairs)
    return obj if len(obj) == len(pairs) else RepeatedKeys(pairs)


def loads(data: bytes | str):
    """``json.loads`` that keeps repeated object keys as :class:`RepeatedKeys`."""
    return json.loads(data, object_pairs_hook=_object)


def encode_frame(message: dict) -> bytes:
    """One wire frame for ``message``.

    A ``batch`` whose columns convert to arrays becomes a columnar frame;
    every other message is JSON.
    """
    payload = _columnar_payload(message) if message.get("kind") == "batch" else None
    if payload is None:
        payload = json.dumps(message, sort_keys=True, separators=(",", ":")).encode()
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling"
        )
    return _LEN.pack(len(payload)) + payload


def _columnar_payload(message: dict) -> bytes | None:
    """The columnar payload of a batch, or None when it does not convert.

    Columns convert with the same ``np.asarray`` casts :func:`batch_columns`
    applies, so the decoded batch validates to bit-identical arrays.  A
    batch that fails to convert (a ragged or non-numeric column, a quality
    code that is not an integer in ``0..255``, an unknown key) is left to
    JSON, where the server rejects it with the validator's own message.
    """
    node = message.get("node")
    channels = message.get("channels")
    if (
        not isinstance(node, (int, np.integer))
        or not _INT64.min <= node <= _INT64.max
        or not isinstance(channels, dict)
    ):
        return None
    if not all(isinstance(name, str) for name in channels):
        return None
    parts = [_BATCH_HEAD.pack(BATCH_MAGIC, int(node), len(channels))]
    # Channels in name order, as the JSON encoder's ``sort_keys`` writes
    # them, so both formats validate channels (and fail) in one order.
    for name, payload in sorted(channels.items()):
        if not isinstance(payload, dict) or payload.keys() - {"quality"} != _FLOATS:
            return None
        try:
            name_field = _text_field(name)
            columns = [np.asarray(payload[key], dtype=_F8) for key in _FLOAT_COLUMNS]
            if "quality" in payload:
                columns.append(_quality_codes(payload["quality"]))
        except (TypeError, ValueError, OverflowError):
            return None
        shape = columns[0].shape
        if len(shape) != 1 or any(col.shape != shape for col in columns):
            return None
        parts += [
            name_field,
            _CHANNEL_HEAD.pack(shape[0], "quality" in payload),
            *(col.tobytes() for col in columns),
        ]
    return b"".join(parts)


def _check_room(payload: bytes, offset: int, nbytes: int, what: str) -> None:
    """Raise unless ``payload`` holds ``nbytes`` more bytes at ``offset``."""
    if offset + nbytes > len(payload):
        raise ProtocolError(
            f"columnar payload truncated: {what} needs {nbytes} bytes at "
            f"offset {offset}, payload has {len(payload)}"
        )


def _read_text(payload: bytes, offset: int, what: str) -> tuple[str, int]:
    """The length-prefixed UTF-8 string at ``offset`` and the offset after it."""
    _check_room(payload, offset, _NAME_LEN.size, f"{what} length")
    (length,) = _NAME_LEN.unpack_from(payload, offset)
    offset += _NAME_LEN.size
    _check_room(payload, offset, length, what)
    try:
        text = payload[offset : offset + length].decode()
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"{what} is not UTF-8: {exc}") from None
    return text, offset + length


def _text_field(text: str) -> bytes:
    raw = text.encode()
    return _NAME_LEN.pack(len(raw)) + raw


def _decode_columnar(payload: bytes) -> dict:
    """The batch message of one columnar payload, with zero-copy columns."""
    _check_room(payload, 0, _BATCH_HEAD.size, "header")
    _, node, num_channels = _BATCH_HEAD.unpack_from(payload)
    offset = _BATCH_HEAD.size
    pairs = []
    for _ in range(num_channels):
        name, offset = _read_text(payload, offset, "channel name")
        _check_room(payload, offset, _CHANNEL_HEAD.size, "channel header")
        n, has_quality = _CHANNEL_HEAD.unpack_from(payload, offset)
        offset += _CHANNEL_HEAD.size
        if has_quality > 1:
            raise ProtocolError(f"bad has-quality flag {has_quality}")
        row_bytes = _FLOAT_ROW_BYTES + has_quality
        _check_room(payload, offset, n * row_bytes, "sample columns")
        # One zero-copy (3, n) view; its rows are the contiguous columns.
        t, watts, joules = np.frombuffer(payload, _F8, 3 * n, offset).reshape(3, n)
        offset += _FLOAT_ROW_BYTES * n
        columns = {"t": t, "watts": watts, "joules": joules}
        if has_quality:
            columns["quality"] = np.frombuffer(payload, _U1, n, offset)
            offset += n
        pairs.append((name, columns))
    if offset != len(payload):
        raise ProtocolError(
            f"columnar batch has {len(payload) - offset} trailing bytes"
        )
    return {"kind": "batch", "node": node, "channels": _object(pairs)}


def encode_range(
    tenant: str, t0: float, t1: float, columns: dict[str, np.ndarray]
) -> bytes:
    """The columnar body of one range-query answer.

    ``columns`` maps each column name to a one-dimensional array of one
    common length; each travels in its little-endian dtype, which must be
    one of ``<f8`` or ``|u1``.
    """
    arrays = [np.asarray(col) for col in columns.values()]
    n = len(arrays[0]) if arrays else 0
    head = [
        _RANGE_HEAD.pack(RANGE_MAGIC, t0, t1, n, len(arrays)),
        _text_field(tenant),
    ]
    data = []
    for name, arr in zip(columns, arrays):
        wire = arr.dtype.newbyteorder("<")
        if wire.str not in _RANGE_DTYPES or arr.shape != (n,):
            raise ProtocolError(
                f"range column {name!r} of dtype {arr.dtype.str} and shape "
                f"{arr.shape} does not travel columnar"
            )
        head += [_text_field(name), _text_field(wire.str)]
        data.append(arr.astype(wire, copy=False).tobytes())
    return b"".join(head + data)


def decode_range(payload: bytes) -> dict:
    """The range-query answer of one columnar body.

    Returns ``{"tenant", "t0", "t1", "n", <column>: array, ...}`` with
    zero-copy read-only columns.  Every offset is checked before it is
    read, so a truncated body, a lying count or an unknown dtype raises
    :class:`ProtocolError` and nothing else.
    """
    _check_room(payload, 0, _RANGE_HEAD.size, "range header")
    magic, t0, t1, n, num_columns = _RANGE_HEAD.unpack_from(payload)
    if magic != RANGE_MAGIC:
        raise ProtocolError(f"range body starts with 0x{magic:02X}, not 0xC2")
    tenant, offset = _read_text(payload, _RANGE_HEAD.size, "tenant")
    out = {"tenant": tenant, "t0": t0, "t1": t1, "n": n}
    layout = []
    for _ in range(num_columns):
        name, offset = _read_text(payload, offset, "column name")
        code, offset = _read_text(payload, offset, "column dtype")
        if code not in _RANGE_DTYPES:
            raise ProtocolError(f"range column {name!r} has unknown dtype {code!r}")
        if name in out:
            raise ProtocolError(f"range body repeats key {name!r}")
        out[name] = None
        layout.append((name, _RANGE_DTYPES[code]))
    for name, dtype in layout:
        _check_room(payload, offset, n * dtype.itemsize, f"column {name!r}")
        out[name] = np.frombuffer(payload, dtype, n, offset)
        offset += n * dtype.itemsize
    if offset != len(payload):
        raise ProtocolError(f"range body has {len(payload) - offset} trailing bytes")
    return out


class FrameDecoder:
    """Incremental frame decoder over an arbitrary byte-chunk stream."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        """Buffer ``data`` and return every completed frame's message."""
        self._buf.extend(data)
        out: list[dict] = []
        while True:
            if len(self._buf) < _LEN.size:
                return out
            (length,) = _LEN.unpack_from(self._buf)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"incoming frame of {length} bytes exceeds the "
                    f"{MAX_FRAME_BYTES}-byte frame ceiling"
                )
            if len(self._buf) < _LEN.size + length:
                return out
            payload = bytes(self._buf[_LEN.size : _LEN.size + length])
            del self._buf[: _LEN.size + length]
            if payload and payload[0] == BATCH_MAGIC:
                out.append(_decode_columnar(payload))
                continue
            try:
                message = loads(payload)
            except ValueError as exc:
                raise ProtocolError(f"frame payload is not JSON: {exc}") from None
            if not isinstance(message, dict) or "kind" not in message:
                raise ProtocolError("frame payload must be an object with 'kind'")
            out.append(message)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buf)


# -- messages ---------------------------------------------------------------


def hello_message(
    tenant: str, source: str = "client", backpressure: str = "wait"
) -> dict:
    if backpressure not in BACKPRESSURE_MODES:
        raise ProtocolError(
            f"unknown backpressure mode {backpressure!r}; "
            f"expected one of {BACKPRESSURE_MODES}"
        )
    if not tenant:
        raise ProtocolError("tenant name must be non-empty")
    return {
        "kind": "hello",
        "tenant": str(tenant),
        "source": str(source),
        "protocol": PROTOCOL_VERSION,
        "backpressure": backpressure,
    }


def batch_message(node: int, channels: dict[str, dict[str, list]]) -> dict:
    """One ingest batch: ``channels`` maps a name to its sample columns."""
    return {"kind": "batch", "node": int(node), "channels": channels}


def sync_message() -> dict:
    return {"kind": "sync"}


def bye_message() -> dict:
    return {"kind": "bye"}


# -- batch validation -------------------------------------------------------


def _quality_codes(column) -> np.ndarray:
    """A quality column as ``uint8`` codes.

    Raises ``ValueError`` (or the cast's ``TypeError``/``OverflowError``)
    unless every code is an integer in ``0..255``: the cast alone would
    truncate ``1.7`` to code 1 and wrap an int64 ``300`` to 44.
    """
    codes = np.asarray(column, dtype=np.uint8)
    if not (isinstance(column, np.ndarray) and column.dtype == np.uint8):
        if not np.array_equal(codes, np.asarray(column, dtype=np.float64)):
            raise ValueError("quality codes must be integers in 0..255")
    return codes


def _refuse_repeats(obj, what: str) -> None:
    if isinstance(obj, RepeatedKeys):
        counts = Counter(key for key, _ in obj.pairs)
        repeated = sorted(key for key, n in counts.items() if n > 1)
        raise ProtocolError(f"{what} repeats {repeated!r}")


def batch_columns(channel_payload: dict) -> tuple[np.ndarray, ...]:
    """Validated ``(t, watts, joules, quality)`` columns of one channel.

    The quality column is optional on the wire (all-``ok`` when absent).
    Every column must be one-dimensional, column lengths must agree and
    times must be finite and non-decreasing *within the batch*
    (cross-batch ordering is the store's check).
    """
    if not isinstance(channel_payload, dict):
        raise ProtocolError("malformed batch columns: channel is not an object")
    _refuse_repeats(channel_payload, "batch channel")
    try:
        t = np.asarray(channel_payload["t"], dtype=np.float64)
        watts = np.asarray(channel_payload["watts"], dtype=np.float64)
        joules = np.asarray(channel_payload["joules"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed batch columns: {exc}") from None
    if "quality" in channel_payload:
        try:
            quality = _quality_codes(channel_payload["quality"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"malformed quality column: {exc}") from None
    else:
        quality = np.zeros(t.shape, dtype=np.uint8)
    if not t.ndim == watts.ndim == joules.ndim == quality.ndim == 1:
        raise ProtocolError(
            "malformed batch columns: every column must be a 1-d array, got "
            f"t:{t.ndim}-d watts:{watts.ndim}-d joules:{joules.ndim}-d "
            f"quality:{quality.ndim}-d"
        )
    if not (len(t) == len(watts) == len(joules) == len(quality)):
        raise ProtocolError(
            "batch columns must have equal length, got "
            f"t:{len(t)} watts:{len(watts)} joules:{len(joules)} "
            f"quality:{len(quality)}"
        )
    if len(t) == 0:
        raise ProtocolError("batch channel carries no samples")
    # Any NaN fails the ``>=``; with the order holding, an infinity can
    # only sit at an end.
    if not (np.all(np.diff(t) >= 0) and isfinite(t[0]) and isfinite(t[-1])):
        raise ProtocolError("batch sample times must be finite and non-decreasing")
    return t, watts, joules, quality


def parse_batch(message: dict) -> tuple[int, dict[str, tuple[np.ndarray, ...]]]:
    """Validated ``(node, {channel: columns})`` of one batch message."""
    if not isinstance(message, dict):
        raise ProtocolError("batch message must be an object")
    if message.get("kind") != "batch":
        raise ProtocolError(f"expected a batch message, got {message.get('kind')!r}")
    _refuse_repeats(message, "batch message")
    try:
        node = int(message["node"])
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ProtocolError("batch message carries no integer 'node'") from None
    channels = message.get("channels")
    if not isinstance(channels, dict) or not channels:
        raise ProtocolError("batch message carries no channels")
    _refuse_repeats(channels, "batch channel name")
    return node, {
        str(name): batch_columns(payload) for name, payload in channels.items()
    }


def batch_num_samples(message: dict) -> int:
    """Samples a batch message carries, as its ``t`` columns count them.

    Used to account rejected batches, so it never raises: a shape it
    cannot read (no channel object, a channel or ``t`` column that is not
    a sequence) counts 0.  A repeated channel name counts every channel
    sent under it.
    """
    channels = message.get("channels") if isinstance(message, dict) else None
    if not isinstance(channels, dict):
        return 0
    pairs = channels.pairs if isinstance(channels, RepeatedKeys) else channels.items()
    total = 0
    for _, payload in pairs:
        t = payload.get("t") if isinstance(payload, dict) else None
        if isinstance(t, (list, tuple)) or (isinstance(t, np.ndarray) and t.ndim == 1):
            total += len(t)
    return total
