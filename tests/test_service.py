"""Telemetry service tests: protocol, tenants, loopback server, collector.

The deterministic core (framing, validation, queue accounting) is tested
synchronously; the asyncio server is exercised over real loopback
sockets through :class:`ServiceThread`, exactly as the CLI and the load
harness use it.
"""

import http.client
import json
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CSCS_A100, OBSERVABILITY_CASES
from repro.errors import ConfigurationError
from repro.experiments.runner import run_scaled_experiment
from repro.instrumentation.reporting import service_qc_summary
from repro.service import (
    LoadSpec,
    ServiceClient,
    ServiceCollector,
    ServiceThread,
    SyntheticSource,
    Tenant,
    TenantConfig,
    TenantRegistry,
    endpoint_tenant,
    http_get_json,
    http_get_text,
    http_post_json,
    parse_endpoint,
    run_load,
)
from repro.service import client as client_module
from repro.service import protocol
from repro.service.client import http_request
from repro.service.server import TelemetryService
from repro.service.protocol import ProtocolError
from repro.timeseries import TimeseriesCollector


def _columns(n=8, t0=0.0, watts=100.0):
    t = [t0 + 0.1 * k for k in range(n)]
    return {
        "t": t,
        "watts": [watts] * n,
        "joules": [watts * (x - t[0]) for x in t],
    }


def _parsed(n=8, t0=0.0):
    return protocol.parse_batch(
        protocol.batch_message(0, {"p": _columns(n, t0)})
    )[1]


def _assert_same_batch(got, want):
    """Two ``parse_batch`` results are equal bit for bit.

    NaNs compare by position: JSON text carries no NaN payload bits.
    """
    assert got[0] == want[0]
    assert list(got[1]) == list(want[1])
    for name, columns in want[1].items():
        assert len(got[1][name]) == len(columns)
        for a, b in zip(got[1][name], columns):
            assert a.dtype == b.dtype and a.shape == b.shape
            nan = np.isnan(a) if a.dtype.kind == "f" else np.zeros(a.shape, bool)
            assert np.array_equal(nan, np.isnan(b) if b.dtype.kind == "f" else nan)
            assert a[~nan].tobytes() == b[~nan].tobytes()


class TestProtocol:
    def test_roundtrip_single_frame(self):
        message = protocol.hello_message("acme", "test", "shed")
        decoder = protocol.FrameDecoder()
        out = decoder.feed(protocol.encode_frame(message))
        assert out == [message]
        assert decoder.pending_bytes == 0

    def test_roundtrip_byte_by_byte(self):
        messages = [
            protocol.hello_message("a"),
            protocol.batch_message(3, {"p": _columns(4)}),
            protocol.sync_message(),
        ]
        wire = b"".join(protocol.encode_frame(m) for m in messages)
        decoder = protocol.FrameDecoder()
        out = []
        for i in range(len(wire)):
            out.extend(decoder.feed(wire[i : i + 1]))
        assert decoder.pending_bytes == 0
        assert [out[0], out[2]] == [messages[0], messages[2]]
        # The batch decodes to array columns: compare what the validator
        # makes of it, bit for bit.
        _assert_same_batch(
            protocol.parse_batch(out[1]), protocol.parse_batch(messages[1])
        )

    def test_oversized_frame_rejected_before_buffering(self):
        decoder = protocol.FrameDecoder()
        header = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="ceiling"):
            decoder.feed(header)

    def test_payload_must_be_object_with_kind(self):
        bad = json.dumps([1, 2]).encode()
        frame = len(bad).to_bytes(4, "big") + bad
        with pytest.raises(ProtocolError, match="kind"):
            protocol.FrameDecoder().feed(frame)

    def test_payload_must_be_json(self):
        frame = len(b"nope").to_bytes(4, "big") + b"nope"
        with pytest.raises(ProtocolError, match="not JSON"):
            protocol.FrameDecoder().feed(frame)

    def test_hello_validation(self):
        with pytest.raises(ProtocolError, match="backpressure"):
            protocol.hello_message("a", backpressure="drop")
        with pytest.raises(ProtocolError, match="tenant"):
            protocol.hello_message("")

    def test_batch_columns_quality_defaults_ok(self):
        t, watts, joules, quality = protocol.batch_columns(_columns(4))
        assert len(t) == 4
        assert quality.dtype == np.uint8
        assert not quality.any()

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda c: c.pop("watts"), "malformed"),
            (lambda c: c["watts"].pop(), "equal length"),
            (lambda c: c.update(t=[]), "equal length"),
            (lambda c: c.update(t=list(reversed(c["t"]))), "non-decreasing"),
            (lambda c: c["t"].__setitem__(3, float("nan")), "finite"),
            (lambda c: c["t"].__setitem__(7, float("inf")), "finite"),
            (lambda c: c["t"].__setitem__(0, float("-inf")), "finite"),
            (lambda c: c.update(t=[np.nan], watts=[1.0], joules=[1.0]), "finite"),
            (lambda c: c.update(t=c["t"], watts=["x"] * 8), "malformed"),
            (lambda c: c.update(quality=[1.7] * 8), "quality"),
            (lambda c: c.update(quality=np.full(8, 300)), "quality"),
        ],
    )
    def test_batch_columns_rejections(self, mutate, match):
        cols = _columns()
        mutate(cols)
        with pytest.raises(ProtocolError, match=match):
            protocol.batch_columns(cols)

    def test_batch_with_no_samples_rejected(self):
        empty = {"t": [], "watts": [], "joules": []}
        with pytest.raises(ProtocolError, match="no samples"):
            protocol.batch_columns(empty)

    def test_parse_batch_rejections(self):
        with pytest.raises(ProtocolError, match="expected a batch"):
            protocol.parse_batch(protocol.sync_message())
        with pytest.raises(ProtocolError, match="node"):
            protocol.parse_batch({"kind": "batch", "channels": {"p": _columns()}})
        with pytest.raises(ProtocolError, match="no channels"):
            protocol.parse_batch({"kind": "batch", "node": 0, "channels": {}})

    def test_parse_endpoint(self):
        assert parse_endpoint("tcp://10.0.0.1:9000") == ("10.0.0.1", 9000)
        assert parse_endpoint("http://localhost:81/") == ("localhost", 81)
        assert parse_endpoint(":7777") == ("127.0.0.1", 7777)
        assert parse_endpoint("telemetry://10.0.0.1:9000/demo") == (
            "10.0.0.1",
            9000,
        )
        with pytest.raises(ConfigurationError):
            parse_endpoint("no-port")
        with pytest.raises(ConfigurationError):
            parse_endpoint("host:abc")

    def test_endpoint_tenant(self):
        assert endpoint_tenant("telemetry://10.0.0.1:9000/demo") == "demo"
        assert endpoint_tenant("tcp://10.0.0.1:9000") is None
        assert endpoint_tenant("host:9000/") is None


def _json_frame(message):
    """The protocol-1 JSON frame of ``message`` (what old publishers send)."""
    payload = json.dumps(message, sort_keys=True, separators=(",", ":")).encode()
    return len(payload).to_bytes(4, "big") + payload


_SPECIAL_FLOATS = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310)


@st.composite
def _wire_batches(draw):
    """Batch messages as a publisher builds them: Python float columns,
    1-4 unicode-named channels of 1-300 samples, with and without quality.

    Columns come from a drawn rng seed, so hypothesis spends its entropy
    on the shape; a fifth of the values are ±inf, ±0.0, NaN or subnormal,
    and a few drawn floats land at drawn positions.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extra = draw(st.lists(st.floats(), max_size=4))

    def column(n):
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        special = rng.random(n) < 0.2
        values[special] = rng.choice(_SPECIAL_FLOATS, int(special.sum()))
        values[rng.integers(0, n, len(extra))] = extra
        return values.tolist()

    channels = {}
    names = st.lists(st.text(max_size=6), min_size=1, max_size=4, unique=True)
    for name in draw(names):
        n = draw(st.integers(1, 300))
        t = column(n)
        if draw(st.booleans()):
            t = sorted(t, key=lambda v: (v != v, v))  # NaNs last
        channels[name] = {"t": t, "watts": column(n), "joules": column(n)}
        if draw(st.booleans()):
            channels[name]["quality"] = rng.integers(0, 256, n).tolist()
    node = draw(st.integers(-(2**63), 2**63 - 1))
    return protocol.batch_message(node, channels)


def _parse_or_error(message):
    try:
        return protocol.parse_batch(message), None
    except ProtocolError as exc:
        return None, str(exc)


class TestColumnarFrames:
    def test_batches_travel_columnar_and_control_messages_json(self):
        batch = protocol.batch_message(3, {"p": _columns(200)})
        frame = protocol.encode_frame(batch)
        assert frame[4] == protocol.BATCH_MAGIC
        assert len(frame) < len(_json_frame(batch))
        for message in (protocol.hello_message("a"), protocol.sync_message()):
            assert protocol.encode_frame(message) == _json_frame(message)

    @pytest.mark.parametrize(
        "channels",
        [
            {"p": {**_columns(2), "quality": [0, 300]}},
            {"p": {**_columns(2), "quality": [0, 1.7]}},
            {"p": {**_columns(2), "watts": [1.0]}},
            {"p": {**_columns(2), "note": "x"}},
            {"p": {"t": 5, "watts": [1.0], "joules": [1.0]}},
            [_columns(2)],
        ],
        ids=[
            "quality-range",
            "quality-fraction",
            "ragged",
            "extra-key",
            "scalar",
            "list",
        ],
    )
    def test_batches_that_do_not_convert_stay_json(self, channels):
        batch = protocol.batch_message(0, channels)
        assert protocol.encode_frame(batch) == _json_frame(batch)

    @settings(max_examples=60, deadline=None)
    @given(_wire_batches())
    def test_columnar_frame_validates_like_json(self, message):
        frame = protocol.encode_frame(message)
        assert frame[4] == protocol.BATCH_MAGIC
        (columnar,) = protocol.FrameDecoder().feed(frame)
        (from_json,) = protocol.FrameDecoder().feed(_json_frame(message))
        got, got_error = _parse_or_error(columnar)
        want, want_error = _parse_or_error(from_json)
        assert got_error == want_error
        if want is not None:
            _assert_same_batch(got, want)

    @settings(max_examples=150, deadline=None)
    @given(
        _wire_batches(),
        st.sampled_from(["truncate", "garble", "append", "lie-count", "lie-length"]),
        st.data(),
    )
    def test_damaged_columnar_payload_raises_only_protocol_error(
        self, message, damage, data
    ):
        payload = bytearray(protocol.encode_frame(message)[4:])
        if damage == "truncate":
            del payload[data.draw(st.integers(0, len(payload) - 1)) :]
        elif damage == "garble":
            for _ in range(data.draw(st.integers(1, 8))):
                i = data.draw(st.integers(0, len(payload) - 1))
                payload[i] = data.draw(st.integers(0, 255))
        elif damage == "append":
            payload += data.draw(st.binary(min_size=1, max_size=32))
        elif damage == "lie-count":
            # Overwrite the channel count, the first name length, or four
            # bytes mid-payload with an arbitrary u32.
            i = data.draw(st.sampled_from([9, 13, 13 + len(payload) // 2]))
            lie = data.draw(st.integers(0, 2**32 - 1))
            payload[i : i + 4] = struct.pack("<I", lie)[: len(payload[i : i + 4])]
        frame = len(payload).to_bytes(4, "big") + bytes(payload)
        if damage == "lie-length":
            # The prefix claims fewer bytes than follow: the decoder must
            # cut the frame there and treat the rest as the next frame.
            cut = data.draw(st.integers(0, len(payload) - 1))
            frame = cut.to_bytes(4, "big") + bytes(payload)
        decoder = protocol.FrameDecoder()
        try:
            messages = decoder.feed(frame + protocol.encode_frame({"kind": "sync"}))
        except ProtocolError:
            return
        for decoded in messages:
            if decoded.get("kind") == "batch":
                _parse_or_error(decoded)

    def test_truncated_header_and_flag_rejected(self):
        frame = protocol.encode_frame(protocol.batch_message(1, {"p": _columns(3)}))
        with pytest.raises(ProtocolError, match="truncated"):
            protocol.FrameDecoder().feed(b"\x00\x00\x00\x05" + frame[4:9])
        payload = bytearray(frame[4:])
        payload[13 + 4 + 1 + 4] = 2  # has-quality flag of channel "p"
        with pytest.raises(ProtocolError, match="has-quality"):
            protocol.FrameDecoder().feed(frame[:4] + bytes(payload))
        with pytest.raises(ProtocolError, match="trailing"):
            protocol.FrameDecoder().feed(
                (len(payload) + 1).to_bytes(4, "big") + frame[4:] + b"\x00"
            )

    def test_ceiling_fires_before_buffering_a_columnar_payload(self):
        decoder = protocol.FrameDecoder()
        header = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="ceiling"):
            decoder.feed(header + bytes([protocol.BATCH_MAGIC]))
        assert decoder.pending_bytes == 5

    def test_columns_are_zero_copy_views_of_the_frame(self):
        (message,) = protocol.FrameDecoder().feed(
            protocol.encode_frame(protocol.batch_message(0, {"p": _columns(5)}))
        )
        t = message["channels"]["p"]["t"]
        assert t.base is not None and not t.flags.writeable


class TestTenantAccounting:
    def test_offer_drain_identity(self):
        tenant = Tenant("a", TenantConfig(max_pending_samples=100))
        assert tenant.offer(0, _parsed(8))
        assert tenant.pending_samples == 8
        assert tenant.drain() == 8
        c = tenant.counters
        assert (c.samples_offered, c.samples_ingested) == (8, 8)
        assert c.samples_shed == c.samples_rejected == 0

    def test_shed_with_accounting_on_overflow(self):
        tenant = Tenant("a", TenantConfig(max_pending_samples=20))
        assert tenant.offer(0, _parsed(16))
        assert tenant.saturated is False
        # 16 + 16 > 20: the second batch is shed, with accounting.
        assert not tenant.offer(0, _parsed(16, t0=10.0))
        c = tenant.counters
        assert c.samples_offered == 32
        assert c.samples_shed == 16
        assert c.batches_shed == 1
        # Identity: offered == ingested + pending + shed + rejected.
        assert c.samples_offered == (
            c.samples_ingested
            + tenant.pending_samples
            + c.samples_shed
            + c.samples_rejected
        )

    def test_regressed_timestamps_rejected_on_drain(self):
        tenant = Tenant("a")
        tenant.offer(0, _parsed(8, t0=100.0))
        tenant.offer(0, _parsed(8, t0=0.0))  # regresses: store will refuse
        tenant.drain()
        c = tenant.counters
        assert c.samples_ingested == 8
        assert c.samples_rejected == 8
        assert c.rejection_reasons  # the exception type is recorded

    def test_reject_records_reason(self):
        tenant = Tenant("a")
        tenant.reject("bad columns", 5)
        tenant.reject("bad columns", 3)
        assert tenant.counters.rejection_reasons == {"bad columns": 2}
        assert tenant.counters.samples_rejected == 8

    def test_empty_tenant_name_rejected(self):
        with pytest.raises(ConfigurationError):
            Tenant("")

    def test_nonpositive_queue_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            TenantConfig(max_pending_samples=0)

    def test_memory_cap_holds_under_sustained_ingest(self):
        config = TenantConfig(
            raw_capacity=256,
            bucket_size=8,
            bucket_capacity=64,
            lttb_capacity=32,
            max_pending_samples=10_000,
        )
        tenant = Tenant("a", config)
        for b in range(40):
            tenant.offer(0, _parsed(100, t0=100.0 * b))
            tenant.drain()
        snap = tenant.snapshot()
        assert snap["store_bytes"] <= snap["memory_cap_bytes"]
        assert snap["samples_ingested"] == 4000

    def test_registry_summary_is_deterministic(self):
        def build():
            registry = TenantRegistry()
            for name in ("beta", "alpha"):
                tenant = registry.get_or_create(name)
                tenant.offer(0, _parsed(8))
                tenant.drain()
            return registry.accounting_summary()

        first, second = build(), build()
        assert first == second
        lines = first.splitlines()
        assert "tenant" in lines[0] and "bytes<=cap" in lines[0]
        # Tenants listed sorted, not in creation order.
        assert lines[1].split()[0] == "alpha"
        assert lines[2].split()[0] == "beta"

    def test_registry_unknown_tenant(self):
        with pytest.raises(ConfigurationError, match="unknown tenant"):
            TenantRegistry().get("ghost")


class TestServiceQcSummary:
    def test_ok_verdict(self):
        tenant = Tenant("a")
        tenant.offer(0, _parsed(8))
        tenant.drain()
        text = service_qc_summary([tenant.snapshot()])
        assert text.startswith("Service QC: ok")
        assert "8 of 8" in text

    def test_degraded_lists_tenants(self):
        tenant = Tenant("a", TenantConfig(max_pending_samples=10))
        tenant.offer(0, _parsed(8))
        tenant.offer(0, _parsed(8, t0=10.0))  # shed
        tenant.drain()
        text = service_qc_summary([tenant.snapshot()])
        assert "DEGRADED" in text
        assert "a: shed 8" in text

    def test_watch_drops_reported(self):
        tenant = Tenant("a")
        text = service_qc_summary(
            [tenant.snapshot()], {"a": 5}, {"a": 2}
        )
        assert "2 frames dropped" in text

    def test_no_tenants(self):
        assert service_qc_summary([]) == "Service QC: no tenants"


@pytest.fixture(scope="module")
def service():
    """One loopback service shared by the HTTP/stream round-trip tests."""
    with ServiceThread(tenant_config=TenantConfig()) as handle:
        yield handle


class TestServerRoundTrip:
    def test_publish_sync_query_energy(self, service):
        with ServiceClient(service.host, service.port, "rt") as client:
            client.publish(7, {"cpu": _columns(50, watts=100.0)})
            ack = client.sync()
        assert ack["samples_ingested"] == 50
        energy = http_get_json(
            service.host,
            service.http_port,
            "/query/energy?tenant=rt&node=7&channel=cpu&t0=0&t1=4.9",
        )
        # The store interpolates cumulative-joules knots: exact energy.
        assert energy["joules"] == pytest.approx(490.0, abs=1e-9)

    def test_range_query_returns_columns(self, service):
        with ServiceClient(service.host, service.port, "rq") as client:
            client.publish(1, {"gpu": _columns(20, watts=50.0)})
            client.sync()
        out = http_get_json(
            service.host,
            service.http_port,
            "/query/range?tenant=rq&node=1&channel=gpu",
        )
        assert out["n"] == 20
        assert len(out["t"]) == len(out["watts"]) == len(out["joules"]) == 20
        assert set(out["tier"]) <= {0, 1, 2}

    def test_healthz_and_404(self, service):
        assert http_get_text(service.host, service.http_port, "/healthz") == "ok"
        from repro.service.client import http_request

        status, _ = http_request(service.host, service.http_port, "/nope")
        assert status == 404

    def test_unknown_tenant_is_400(self, service):
        from repro.service.client import http_request

        status, body = http_request(
            service.host,
            service.http_port,
            "/query/range?tenant=ghost&node=0&channel=x",
        )
        assert status == 400
        assert b"unknown tenant" in body

    def test_http_ingest_single_list_and_batches(self, service):
        host, port = service.host, service.http_port
        batch = protocol.batch_message(0, {"p": _columns(4)})
        out = http_post_json(host, port, "/ingest?tenant=hi", batch)
        assert out["accepted"] == 1
        out = http_post_json(
            host,
            port,
            "/ingest?tenant=hi",
            [protocol.batch_message(0, {"p": _columns(4, t0=10.0)})],
        )
        assert out["accepted"] == 1
        out = http_post_json(
            host,
            port,
            "/ingest?tenant=hi",
            {"batches": [protocol.batch_message(0, {"p": _columns(4, t0=20.0)})]},
        )
        assert out["accepted"] == 1
        assert out["samples_ingested"] == 12

    def test_http_ingest_malformed_batch_accounted(self, service):
        out = http_post_json(
            service.host,
            service.http_port,
            "/ingest?tenant=bad",
            {"kind": "batch", "node": 0, "channels": {"p": {"t": [1, 0]}}},
        )
        assert out["rejected"] == 1
        assert out["batches_rejected"] == 1

    def test_tenants_endpoint_lists_sorted(self, service):
        out = http_get_json(service.host, service.http_port, "/tenants")
        names = [s["tenant"] for s in out["tenants"]]
        assert names == sorted(names)
        assert "watch_frames_sent" in out

    def test_wrong_protocol_version_gets_error_frame(self, service):
        import socket as socketlib

        hello = protocol.hello_message("v")
        hello["protocol"] = 999
        sock = socketlib.create_connection(
            (service.host, service.port), timeout=10
        )
        try:
            sock.sendall(protocol.encode_frame(hello))
            decoder = protocol.FrameDecoder()
            frames = []
            while not frames:
                frames = decoder.feed(sock.recv(65536))
            assert frames[0]["kind"] == "error"
            assert "protocol version" in frames[0]["message"]
        finally:
            sock.close()

    def test_wait_mode_never_sheds(self):
        # A queue bound far smaller than the published volume: wait-mode
        # backpressure must absorb it all without shedding a sample.
        config = TenantConfig(max_pending_samples=64)
        with ServiceThread(tenant_config=config) as handle:
            with ServiceClient(
                handle.host, handle.port, "w", backpressure="wait"
            ) as client:
                for b in range(20):
                    client.publish(0, {"p": _columns(32, t0=3.2 * b)})
                ack = client.sync()
        assert ack["samples_shed"] == 0
        assert ack["samples_ingested"] == 640

    def test_wait_mode_never_sheds_on_straddling_batches(self):
        # Regression: a batch that straddles the remaining queue space
        # (32 does not divide 50, so saturation hits mid-batch) must
        # wait for room, not shed — and a single batch larger than the
        # whole queue bound must still land losslessly once the queue
        # drains empty.
        config = TenantConfig(max_pending_samples=50)
        with ServiceThread(tenant_config=config) as handle:
            with ServiceClient(
                handle.host, handle.port, "w2", backpressure="wait"
            ) as client:
                for b in range(10):
                    client.publish(0, {"p": _columns(32, t0=3.2 * b)})
                client.publish(0, {"p": _columns(80, t0=32.0)})
                ack = client.sync()
        assert ack["samples_shed"] == 0
        assert ack["samples_ingested"] == 10 * 32 + 80

    def test_malformed_query_params_are_400(self, service):
        from repro.service.client import http_request

        with ServiceClient(service.host, service.port, "qp") as client:
            client.publish(0, {"p": _columns(4)})
            client.sync()
        status, body = http_request(
            service.host,
            service.http_port,
            "/query/range?tenant=qp&node=0&channel=p&t0=abc",
        )
        assert status == 400
        assert b"t0" in body
        status, body = http_request(
            service.host,
            service.http_port,
            "/watch?tenant=qp&every=abc",
        )
        assert status == 400
        assert b"every" in body

    def test_drainer_survives_watch_frame_failure(self):
        # A live-frame rendering failure must not kill the drainer:
        # ingest keeps being applied and the error is recorded.
        import asyncio

        from repro.service.server import TelemetryService, _Watcher

        async def run():
            service = TelemetryService()
            await service.start()
            try:
                tenant = service.registry.get_or_create("t")
                service._watchers["t"] = [_Watcher("t", 1, 8)]

                def boom(tenant, width):
                    raise RuntimeError("render exploded")

                service._render_frame = boom
                for b in range(2):
                    tenant.offer(0, _parsed(8, t0=10.0 * b))
                    service._kick()
                    while tenant.pending_batches:
                        await asyncio.sleep(0.01)
            finally:
                await service.stop()
            return service, tenant

        service, tenant = asyncio.run(run())
        assert tenant.counters.samples_ingested == 16
        assert service.drain_errors >= 1
        assert "render exploded" in service.last_drain_error


def _with_time(n, k, value):
    cols = _columns(n)
    cols["t"][k] = value
    return cols


#: ``case: (channels, samples the batch carries)``.  The non-finite
#: times keep each batch otherwise in order, so only the finiteness
#: check can refuse them.
_BAD_CHANNELS = {
    "time-nan": ({"p": _with_time(3, 1, float("nan"))}, 3),
    "time-inf-last": ({"p": _with_time(3, 2, float("inf"))}, 3),
    "time-inf-first": ({"p": _with_time(3, 0, float("-inf"))}, 3),
    "quality-above-255": ({"p": {**_columns(2), "quality": [0, 300]}}, 2),
    "quality-negative": ({"p": {**_columns(1), "quality": [-1]}}, 1),
    "quality-non-integral": ({"p": {**_columns(2), "quality": [0, 1.7]}}, 2),
    "scalar-column": ({"p": {"t": 5, "watts": [1.0], "joules": [1.0]}}, 0),
    "channels-list": ([_columns(2)], 0),
    "channel-not-object": ({"p": [1, 2, 3]}, 0),
}


def _assert_one_rejected(ledger, rejected_samples, ingested_samples):
    assert ledger["batches_rejected"] == 1
    assert ledger["samples_rejected"] == rejected_samples
    assert ledger["samples_ingested"] == ingested_samples
    assert ledger["samples_offered"] == (
        ledger["samples_ingested"]
        + ledger["samples_shed"]
        + ledger["samples_rejected"]
        + ledger["pending_samples"]
    )


class TestMalformedBatchesAccounted:
    """A malformed batch is one counted rejection; the session lives on."""

    @pytest.mark.parametrize("case", sorted(_BAD_CHANNELS))
    def test_stream_session_survives(self, service, case):
        channels, samples = _BAD_CHANNELS[case]
        with ServiceClient(service.host, service.port, f"s-{case}") as client:
            client.publish(0, channels)
            client.publish(0, {"p": _columns(8)})
            ack = client.sync()
            published = client.published_samples
        _assert_one_rejected(ack, samples, 8)
        assert ack["samples_offered"] == published
        out = http_get_json(
            service.host,
            service.http_port,
            f"/query/range?tenant=s-{case}&node=0&channel=p",
        )
        assert out["n"] == ack["samples_ingested"]

    @pytest.mark.parametrize("case", sorted(_BAD_CHANNELS))
    def test_http_ingest_survives(self, service, case):
        channels, samples = _BAD_CHANNELS[case]
        path = f"/ingest?tenant=h-{case}"
        bad = protocol.batch_message(0, channels)
        out = http_post_json(service.host, service.http_port, path, bad)
        assert out["rejected"] == 1
        out = http_post_json(
            service.host,
            service.http_port,
            path,
            protocol.batch_message(0, {"p": _columns(8)}),
        )
        assert out["accepted"] == 1
        _assert_one_rejected(out, samples, 8)
        assert out["samples_offered"] == samples + 8

    def test_http_ingest_non_object_batches_rejected(self, service):
        out = http_post_json(
            service.host, service.http_port, "/ingest?tenant=h-odd", {"batches": 5}
        )
        assert out["rejected"] == 1 and out["samples_rejected"] == 0

    def test_batch_num_samples_counts_unreadable_shapes_as_zero(self):
        assert protocol.batch_num_samples({"channels": [_columns(2)]}) == 0
        assert protocol.batch_num_samples({"channels": {"p": [1, 2]}}) == 0
        assert protocol.batch_num_samples({"channels": {"p": {"t": 5}}}) == 0
        assert protocol.batch_num_samples([1]) == 0
        two = {"a": _columns(2), "b": _columns(3)}
        assert protocol.batch_num_samples(protocol.batch_message(0, two)) == 5


def _repeated_channel_json(n_first, n_second):
    """A JSON batch payload naming channel ``p`` twice (no dict can)."""
    first = json.dumps(_columns(n_first))
    second = json.dumps(_columns(n_second, t0=5.0))
    return (
        '{"kind":"batch","node":0,"channels":{"p":%s,"p":%s}}' % (first, second)
    ).encode()


def _repeated_channel_columnar(n_first, n_second):
    """A columnar batch payload naming channel ``p`` twice."""
    message = protocol.batch_message(
        0, {"p": _columns(n_first), "q": _columns(n_second, t0=5.0)}
    )
    payload = protocol.encode_frame(message)[4:]
    head = struct.pack("<I", 1)
    assert payload.count(head + b"q") == 1
    return payload.replace(head + b"q", head + b"p")


def _frame(payload):
    return len(payload).to_bytes(4, "big") + payload


class TestRepeatedChannelNames:
    """A batch naming a channel twice is one counted rejection of every
    sample it carries; decoding keeps the last, so without the check the
    first channel's samples vanish while the server-side ledger balances.
    """

    def test_loads_keeps_every_repeated_pair(self):
        obj = protocol.loads('{"a": 1, "b": 2, "a": 3}')
        assert isinstance(obj, protocol.RepeatedKeys)
        assert obj == {"a": 3, "b": 2}
        assert obj.pairs == [("a", 1), ("b", 2), ("a", 3)]
        assert type(protocol.loads('{"a": {"b": 1}}')["a"]) is dict

    @pytest.mark.parametrize(
        "payload", [_repeated_channel_json, _repeated_channel_columnar]
    )
    def test_decoded_batch_rejected_with_every_sample(self, payload):
        (message,) = protocol.FrameDecoder().feed(_frame(payload(3, 4)))
        with pytest.raises(ProtocolError, match=r"channel name repeats \['p'\]"):
            protocol.parse_batch(message)
        assert protocol.batch_num_samples(message) == 7

    def test_repeated_column_key_rejected(self):
        text = '{"kind":"batch","node":0,"channels":{"p":%s}}' % (
            json.dumps(_columns(2))[:-1] + ', "t": [0.0, 0.1]}'
        )
        (message,) = protocol.FrameDecoder().feed(_frame(text.encode()))
        with pytest.raises(ProtocolError, match=r"channel repeats \['t'\]"):
            protocol.parse_batch(message)

    @pytest.mark.parametrize(
        "payload", [_repeated_channel_json, _repeated_channel_columnar]
    )
    def test_stream_ledger_counts_what_was_published(self, service, payload):
        tenant = f"dup-{payload.__name__}"
        with ServiceClient(service.host, service.port, tenant) as client:
            client.publish_encoded(_frame(payload(3, 4)), 7)
            client.publish(0, {"p": _columns(8, t0=20.0)})
            ack = client.sync()
            published = client.published_samples
        _assert_one_rejected(ack, 7, 8)
        assert published == 15 == ack["samples_offered"]

    def test_http_ingest_rejects_repeated_channel(self, service):
        path = "/ingest?tenant=h-dup"
        status, body = http_request(
            service.host,
            service.http_port,
            path,
            method="POST",
            body=_repeated_channel_json(3, 4),
        )
        assert status == 200 and json.loads(body)["rejected"] == 1
        out = http_post_json(
            service.host,
            service.http_port,
            path,
            protocol.batch_message(0, {"p": _columns(8, t0=20.0)}),
        )
        _assert_one_rejected(out, 7, 8)
        assert out["samples_offered"] == 15


    def test_http_ingest_rejects_repeated_batches_wrapper(self, service):
        path = "/ingest?tenant=h-dup-wrapper"
        first = json.dumps(protocol.batch_message(0, {"p": _columns(3)}))
        second = json.dumps(protocol.batch_message(0, {"p": _columns(4, t0=5.0)}))
        body = '{"batches": [%s], "batches": [%s]}' % (first, second)
        status, _ = http_request(
            service.host, service.http_port, path, method="POST", body=body.encode()
        )
        assert status == 400
        out = http_post_json(
            service.host,
            service.http_port,
            path,
            protocol.batch_message(0, {"p": _columns(8, t0=20.0)}),
        )
        _assert_one_rejected(out, 7, 8)
        assert out["samples_offered"] == 15


class TestProtocolVersions:
    def test_v1_json_client_ingests_losslessly(self, service):
        cols = SyntheticSource("v1", 0, "p", 1000.0).batch(50)
        hello = protocol.hello_message("v1")
        hello["protocol"] = 1
        wire = b"".join(
            _json_frame(m)
            for m in (
                hello,
                protocol.batch_message(0, {"p": cols}),
                protocol.sync_message(),
            )
        )
        sock = socket.create_connection((service.host, service.port), timeout=10)
        try:
            sock.sendall(wire)
            decoder = protocol.FrameDecoder()
            frames = []
            while not frames:
                frames = decoder.feed(sock.recv(65536))
        finally:
            sock.close()
        assert frames[0]["kind"] == "ack"
        assert frames[0]["samples_ingested"] == 50
        assert frames[0]["batches_rejected"] == 0
        body = http_get_json(
            service.host, service.http_port, "/query/range?tenant=v1&node=0&channel=p"
        )
        assert {k: body[k] for k in cols} == cols

    def test_columnar_client_matches_json_client(self, service):
        cols = SyntheticSource("v2", 0, "p", 1000.0).batch(50)
        with ServiceClient(service.host, service.port, "v2") as client:
            client.publish(0, {"p": cols})
            client.sync()
        body = http_get_json(
            service.host, service.http_port, "/query/range?tenant=v2&node=0&channel=p"
        )
        assert {k: body[k] for k in cols} == cols


class TestPrometheusScrape:
    def test_metrics_endpoint_multi_tenant(self, service):
        with ServiceClient(service.host, service.port, "promA") as client:
            client.publish(0, {"node": _columns(5)})
            client.sync()
        with ServiceClient(service.host, service.port, "promB") as client:
            client.publish(0, {"node": _columns(5)})
            client.sync()
        text = http_get_text(service.host, service.http_port, "/metrics")
        assert 'tenant="promA"' in text and 'tenant="promB"' in text
        # One HELP/TYPE header per metric family, no matter how many
        # tenants export it.
        assert text.count("# TYPE repro_power_watts gauge") == 1
        assert text.count("# HELP repro_power_watts") == 1
        assert text.count("# TYPE repro_energy_joules_total counter") == 1


class TestServiceCollectorZeroPerturbation:
    """The publisher must not move a single measured joule."""

    CASE = OBSERVABILITY_CASES["Sedov Blast"]

    def _run(self, collector=None):
        return run_scaled_experiment(
            CSCS_A100,
            self.CASE,
            4,
            num_steps=6,
            collector=collector if collector is not None else TimeseriesCollector(),
        )

    def test_publisher_on_off_bit_identical(self, tmp_path):
        baseline = self._run()
        with ServiceThread() as handle:
            client = ServiceClient(handle.host, handle.port, "exp")
            collector = ServiceCollector(client, batch_ticks=16)
            published = self._run(collector=collector)
            ack = collector.close()

        # Per-region energies and every other measured quantity agree
        # bit-for-bit: compare the serialized measurement records.
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        baseline.run.write(path_a)
        published.run.write(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

        # The local stores retained identical telemetry too.
        store_a = baseline.timeseries.store
        store_b = published.timeseries.store
        assert store_a.num_samples == store_b.num_samples
        for node, name in store_a.channels():
            sa = store_a.channel(node, name).points()
            sb = store_b.channel(node, name).points()
            np.testing.assert_array_equal(sa["t"], sb["t"])
            np.testing.assert_array_equal(sa["joules"], sb["joules"])

        # And the service ingested everything the collector retained.
        assert ack["samples_ingested"] == store_b.num_samples
        assert ack["samples_shed"] == 0

    def test_collector_batches_and_flushes(self):
        with ServiceThread() as handle:
            client = ServiceClient(handle.host, handle.port, "fl")
            collector = ServiceCollector(client, batch_ticks=1000)
            self._run(collector=collector)
            # Nothing shipped yet (batch_ticks larger than the run).
            assert client.published_samples == 0
            ack = collector.close()
        assert ack["samples_ingested"] == collector.store.num_samples
        assert ack["samples_ingested"] > 0

    def test_batch_ticks_validated(self):
        with ServiceThread() as handle:
            client = ServiceClient(handle.host, handle.port, "bt")
            with pytest.raises(ConfigurationError):
                ServiceCollector(client, batch_ticks=0)
            client.close()


class TestLoadHarness:
    SPEC = LoadSpec(
        name="test 2x3",
        tenants=2,
        nodes_per_tenant=3,
        channels_per_node=1,
        rate_hz=100.0,
        batch_samples=40,
        batches_per_node=3,
        queries=6,
        query_workers=2,
    )

    def test_synthetic_source_is_deterministic(self):
        a = SyntheticSource("t", 1, "p", 1000.0)
        b = SyntheticSource("t", 1, "p", 1000.0)
        assert a.batch(64) == b.batch(64)
        other = SyntheticSource("t", 2, "p", 1000.0)
        assert a.batch(64) != other.batch(64)

    def test_synthetic_source_energy_is_cumulative(self):
        src = SyntheticSource("t", 0, "p", 1000.0)
        first, second = src.batch(32), src.batch(32)
        joules = first["joules"] + second["joules"]
        assert joules == sorted(joules)
        assert second["t"][0] > first["t"][-1] - 1e-12

    def test_run_load_accounting(self):
        report = run_load(self.SPEC)
        assert report.accounting_identity_holds
        assert report.memory_within_cap
        assert report.ingested_samples == self.SPEC.total_samples
        assert report.shed_samples == 0
        assert report.queries_served > 0
        assert report.samples_per_sec is None  # no timer injected

    def test_run_load_deterministic_text(self):
        first = run_load(self.SPEC).deterministic_text()
        second = run_load(self.SPEC).deterministic_text()
        assert first == second
        assert "accounting identity: True" in first


# -- HTTP read path: JSON pins, columnar range body, keep-alive --------------

#: Small tiers, so the fixed feed below fills lttb, buckets and raw.
_PIN_CONFIG = TenantConfig(
    raw_capacity=16, bucket_size=4, bucket_capacity=4, lttb_capacity=8
)


def _pin_feed(svc) -> None:
    """40 samples of node 3 channel ``gpu``, one watts value NaN."""
    t = [0.25 * k for k in range(40)]
    watts = [100.0 + (k % 7) * 0.3 for k in range(40)]
    joules, acc = [], 0.0
    for w in watts:
        joules.append(acc)
        acc += w * 0.25
    watts[37] = float("nan")
    quality = [k % 3 for k in range(40)]
    with ServiceClient(svc.host, svc.port, "pin") as client:
        client.publish(
            3, {"gpu": {"t": t, "watts": watts, "joules": joules, "quality": quality}}
        )
        client.sync()


def _plain_get(svc, path: str) -> tuple[str, bytes]:
    """Content type and body of a GET that sends no ``Accept`` header."""
    conn = http.client.HTTPConnection(svc.host, svc.http_port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.getheader("Content-Type"), response.read()
    finally:
        conn.close()


_PIN = "/query/{}?tenant=pin&node=3&channel=gpu"

#: JSON bodies of the fixed feed, as the service wrote them before the
#: columnar range body and keep-alive existed.
_PINNED_JSON = {
    _PIN.format("range"): (
        b'{"joules": [0.0, 100.44999999999999, 201.575, 302.325, '
        b"403.22499999999997, 504.275, 604.95, 630.1750000000001, 655.475, "
        b"680.85, 706.3000000000001, 731.3000000000001, 756.3750000000001, "
        b"781.5250000000001, 806.7500000000001, 832.0500000000001, "
        b"857.4250000000001, 882.8750000000001, 907.8750000000001, "
        b'932.9500000000002, 958.1000000000001, 983.3250000000002], "n": 22, '
        b'"t": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 6.25, 6.5, 6.75, 7.0, 7.25, '
        b'7.5, 7.75, 8.0, 8.25, 8.5, 8.75, 9.0, 9.25, 9.5, 9.75], "t0": 0.0, '
        b'"t1": 9.75, "tenant": "pin", "tier": [0, 0, 1, 1, 1, 1, 2, 2, 2, 2, '
        b'2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2], "watts": [100.3, 101.5, '
        b"100.59999999999998, 101.09999999999998, 100.90000000000002, "
        b"100.70000000000012, 100.9, 101.2, 101.5, 101.8, 100.0, 100.3, 100.6, "
        b"100.9, 101.2, 101.5, 101.8, 100.0, 100.3, NaN, 100.9, 101.2]}"
    ),
    _PIN.format("range") + "&t0=2.1&t1=8.6": (
        b'{"joules": [302.325, 403.22499999999997, 504.275, 604.95, '
        b"630.1750000000001, 655.475, 680.85, 706.3000000000001, "
        b"731.3000000000001, 756.3750000000001, 781.5250000000001, "
        b"806.7500000000001, 832.0500000000001, 857.4250000000001], "
        b'"n": 14, "t": [3.0, 4.0, 5.0, 6.0, 6.25, 6.5, 6.75, 7.0, 7.25, 7.5, '
        b'7.75, 8.0, 8.25, 8.5], "t0": 2.1, "t1": 8.6, "tenant": "pin", '
        b'"tier": [1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2], "watts": '
        b"[101.09999999999998, 100.90000000000002, 100.70000000000012, 100.9, "
        b"101.2, 101.5, 101.8, 100.0, 100.3, 100.6, 100.9, 101.2, 101.5, "
        b"101.8]}"
    ),
    _PIN.format("range") + "&t0=20&t1=30": (
        b'{"joules": [], "n": 0, "t": [], "t0": 20.0, "t1": 30.0, '
        b'"tenant": "pin", "tier": [], "watts": []}'
    ),
    _PIN.format("energy"): (
        b'{"joules": 983.3250000000002, "t0": 0.0, "t1": 9.75, "tenant": "pin"}'
    ),
    _PIN.format("energy") + "&t0=1.3": (
        b'{"joules": 852.5375000000001, "t0": 1.3, "t1": 9.75, "tenant": "pin"}'
    ),
}


@pytest.fixture(scope="module")
def pinned():
    with ServiceThread(tenant_config=_PIN_CONFIG) as handle:
        _pin_feed(handle)
        yield handle


def _float_bits(column) -> bytes:
    return np.asarray(column, dtype=np.float64).tobytes()


class TestRangeBody:
    @pytest.mark.parametrize("path", sorted(_PINNED_JSON))
    def test_json_body_is_pinned(self, pinned, path):
        content_type, body = _plain_get(pinned, path)
        assert content_type == "application/json"
        assert body == _PINNED_JSON[path]

    @pytest.mark.parametrize(
        "path", [p for p in sorted(_PINNED_JSON) if "/range" in p]
    )
    def test_columnar_body_decodes_to_the_json_body(self, pinned, path):
        _, json_body = _plain_get(pinned, path)
        want = json.loads(json_body)
        status, content_type, data = client_module._http(
            pinned.host, pinned.http_port, path
        )
        assert (status, content_type) == (200, protocol.RANGE_MEDIA_TYPE)
        got = http_get_json(pinned.host, pinned.http_port, path)
        assert got.keys() == want.keys()
        for key in ("tenant", "n", "tier"):
            assert got[key] == want[key]
        for key in ("t0", "t1", "t", "watts", "joules"):
            assert _float_bits(got[key]) == _float_bits(want[key])
        assert all(type(v) is float for v in got["watts"])
        assert all(type(v) is int for v in got["tier"])
        raw = protocol.decode_range(data)
        assert raw["watts"].dtype == np.float64 and raw["tier"].dtype == np.uint8

    def test_empty_range_round_trips(self):
        body = protocol.encode_range(
            "x", 2.0, 1.5, {"t": np.empty(0), "tier": np.empty(0, np.uint8)}
        )
        out = protocol.decode_range(body)
        assert (out["tenant"], out["t0"], out["t1"], out["n"]) == ("x", 2.0, 1.5, 0)
        assert len(out["t"]) == len(out["tier"]) == 0

    @staticmethod
    def _body(n=5):
        return protocol.encode_range(
            "tenant-a",
            0.0,
            1.0,
            {
                "t": np.linspace(0.0, 1.0, n),
                "watts": np.full(n, np.nan),
                "tier": np.arange(n, dtype=np.uint8),
            },
        )

    def test_every_truncation_raises_protocol_error(self):
        body = self._body()
        for cut in range(len(body)):
            with pytest.raises(ProtocolError):
                protocol.decode_range(body[:cut])
        with pytest.raises(ProtocolError, match="trailing"):
            protocol.decode_range(body + b"\x00")

    @pytest.mark.parametrize("lie", [0, 4, 6, 2**40, 2**64 - 1])
    def test_lying_point_count_raises_protocol_error(self, lie):
        body = bytearray(self._body())
        body[17:25] = struct.pack("<Q", lie)  # after magic, t0, t1
        with pytest.raises(ProtocolError):
            protocol.decode_range(bytes(body))

    def test_unknown_dtype_and_magic_raise_protocol_error(self):
        body = self._body()
        with pytest.raises(ProtocolError, match="unknown dtype"):
            protocol.decode_range(body.replace(b"<f8", b"<f4", 1))
        with pytest.raises(ProtocolError, match="0xC2"):
            protocol.decode_range(b"\xc1" + body[1:])
        with pytest.raises(ProtocolError, match="does not travel"):
            protocol.encode_range("x", 0.0, 1.0, {"t": np.zeros(2, np.float32)})

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_garbled_body_raises_only_protocol_error(self, data):
        body = bytearray(self._body(data.draw(st.integers(0, 6))))
        for _ in range(data.draw(st.integers(1, 6))):
            body[data.draw(st.integers(0, len(body) - 1))] = data.draw(
                st.integers(0, 255)
            )
        try:
            out = protocol.decode_range(bytes(body))
        except ProtocolError:
            return
        assert isinstance(out["n"], int)


class _CountingService(TelemetryService):
    """Counts the HTTP connections the service accepted; can drop a
    ``POST /ingest`` after applying it, before answering."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.http_connections = 0
        self.drop_ingest_reply = False

    async def _handle_http(self, reader, writer) -> None:
        self.http_connections += 1
        await super()._handle_http(reader, writer)

    async def _http_ingest(self, query, body):
        response = await super()._http_ingest(query, body)
        if self.drop_ingest_reply:
            raise ConnectionResetError("reply dropped on purpose")
        return response


def _in_thread(fn):
    """Run ``fn`` on a fresh thread (an empty connection pool); its result."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=30)
    assert out, "request thread failed"
    return out[0]


def _exchange_raw(sock, request: bytes) -> tuple[bytes, dict]:
    """Send one request; the response status line and headers (body read)."""
    sock.sendall(request)
    fh = sock.makefile("rb")
    status = fh.readline()
    headers = {}
    while (line := fh.readline().strip()):
        key, _, value = line.decode().partition(":")
        headers[key.strip().lower()] = value.strip()
    fh.read(int(headers.get("content-length", 0)))
    return status, headers


def _closed_by_server(sock) -> bool:
    sock.settimeout(5)
    return sock.recv(1) == b""


class TestKeepAlive:
    def test_gets_from_one_thread_share_one_connection(self):
        service = _CountingService()
        with ServiceThread(service) as svc:
            texts = _in_thread(
                lambda: [
                    http_get_text(svc.host, svc.http_port, "/healthz")
                    for _ in range(10)
                ]
            )
            assert texts == ["ok"] * 10
            assert service.http_connections == 1

    def test_keep_alive_is_the_default_and_announced(self, service):
        with socket.create_connection((service.host, service.http_port)) as sock:
            for _ in range(3):
                status, headers = _exchange_raw(
                    sock, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                assert status.startswith(b"HTTP/1.1 200")
                assert headers["connection"] == "keep-alive"

    @pytest.mark.parametrize(
        "request_bytes, code",
        [
            (b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", b"200"),
            (b"GET /healthz HTTP/1.0\r\n\r\n", b"200"),
            (b"GET /query/range?tenant=ghost HTTP/1.1\r\n\r\n", b"400"),
            (b"NONSENSE\r\n\r\n", b"400"),
            (b"POST /ingest HTTP/1.1\r\nContent-Length: -3\r\n\r\n", b"400"),
            (b"POST /ingest HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", b"413"),
        ],
    )
    def test_closing_requests_end_the_connection(self, service, request_bytes, code):
        with socket.create_connection((service.host, service.http_port)) as sock:
            status, headers = _exchange_raw(sock, request_bytes)
            assert status.split()[1] == code
            assert headers["connection"] == "close"
            assert _closed_by_server(sock)

    def test_get_retried_once_when_the_server_closed_the_connection(self):
        first = ServiceThread().start()
        port = first.http_port
        assert http_get_text(first.host, port, "/healthz") == "ok"
        first.stop()  # closes the pooled connection from the server side
        service = _CountingService(http_port=port)
        with ServiceThread(service) as svc:
            assert http_get_text(svc.host, port, "/healthz") == "ok"
            assert service.http_connections == 1

    def test_post_ingest_is_never_replayed(self):
        service = _CountingService(tenant_config=TenantConfig())
        with ServiceThread(service) as svc:
            batch = protocol.batch_message(0, {"p": _columns(4)})
            http_post_json(svc.host, svc.http_port, "/ingest?tenant=once", batch)
            service.drop_ingest_reply = True
            with pytest.raises(ConnectionError):
                http_post_json(
                    svc.host,
                    svc.http_port,
                    "/ingest?tenant=once",
                    protocol.batch_message(0, {"p": _columns(4, t0=1.0)}),
                )
            service.drop_ingest_reply = False
            http_post_json(
                svc.host,
                svc.http_port,
                "/ingest?tenant=once",
                protocol.batch_message(0, {"p": _columns(4, t0=2.0)}),
            )
            ledger = http_get_json(svc.host, svc.http_port, "/tenants")["tenants"]
        (once,) = [t for t in ledger if t["tenant"] == "once"]
        assert once["batches_offered"] == once["batches_ingested"] == 3
        assert service.http_connections == 4  # three POSTs, one GET

    def test_stop_returns_with_an_idle_keep_alive_client(self):
        svc = ServiceThread().start()
        with socket.create_connection((svc.host, svc.http_port)) as sock:
            _, headers = _exchange_raw(sock, b"GET /healthz HTTP/1.1\r\n\r\n")
            assert headers["connection"] == "keep-alive"
            stopper = threading.Thread(target=svc.stop)
            stopper.start()
            stopper.join(timeout=5)
            assert not stopper.is_alive()
            assert _closed_by_server(sock)
