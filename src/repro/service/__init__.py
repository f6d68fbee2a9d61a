"""Telemetry-as-a-service: multi-tenant ingest + query over tiered stores.

The subsystem splits into a synchronous deterministic core and a thin
asyncio timing layer:

* :mod:`repro.service.protocol` — length-prefixed framing (JSON control
  messages, columnar binary batches) and batch validation, shared by the
  stream and HTTP ingest paths;
* :mod:`repro.service.tenants` — per-tenant stores, bounded write queues
  and the shed/reject accounting ledger (pure, deterministic);
* :mod:`repro.service.server` — the asyncio ingest/query/watch server
  plus :class:`ServiceThread` for embedding it in synchronous code;
* :mod:`repro.service.client` — blocking publisher sessions, the
  zero-perturbation :class:`ServiceCollector`, HTTP/SSE helpers;
* :mod:`repro.service.load` — the deterministic load harness behind the
  service benchmarks.
"""

from repro.service.client import (
    ServiceClient,
    ServiceCollector,
    http_get_json,
    http_get_text,
    http_post_json,
    endpoint_tenant,
    parse_endpoint,
    watch_sse,
)
from repro.service.load import (
    PM_COUNTERS_HZ,
    POWERSENSOR3_HZ,
    TOPOLOGY_SCALE_MATRIX,
    LoadReport,
    LoadSpec,
    SyntheticSource,
    run_load,
)
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    encode_frame,
)
from repro.service.server import ServiceThread, TelemetryService
from repro.service.tenants import (
    IngestCounters,
    Tenant,
    TenantConfig,
    TenantRegistry,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "PM_COUNTERS_HZ",
    "POWERSENSOR3_HZ",
    "PROTOCOL_VERSION",
    "TOPOLOGY_SCALE_MATRIX",
    "FrameDecoder",
    "IngestCounters",
    "LoadReport",
    "LoadSpec",
    "ProtocolError",
    "ServiceClient",
    "ServiceCollector",
    "ServiceThread",
    "SyntheticSource",
    "Tenant",
    "TenantConfig",
    "TenantRegistry",
    "TelemetryService",
    "encode_frame",
    "http_get_json",
    "http_get_text",
    "http_post_json",
    "endpoint_tenant",
    "parse_endpoint",
    "run_load",
    "watch_sse",
]
