"""Per-record attribution, the run-key payload and the pm_counters format."""

from __future__ import annotations

from dataclasses import asdict

from repro.analysis.aggregate import _missing_counter, sensor_sharing_factor
from repro.campaign import keys
from repro.campaign.keys import RunKey
from repro.config import SystemConfig, TestCaseConfig
from repro.errors import SensorError
from repro.instrumentation.records import FunctionEnergyRecord, RunMeasurements


def attributed_joules(
    run: RunMeasurements, record: FunctionEnergyRecord, counter: str
) -> float:
    """A rank's share of its (possibly shared) counter delta: the
    per-record form of :func:`~repro.analysis.aggregate.function_totals`."""
    raw = record.joules.get(counter)
    if raw is None:
        raise _missing_counter(record, counter)
    return raw / sensor_sharing_factor(run, counter)


def canonical_payload(
    key: RunKey,
    system: SystemConfig | None = None,
    test_case: TestCaseConfig | None = None,
) -> dict:
    """The exact content the cache address commits to.

    :func:`~repro.campaign.keys.run_key_hash` is the SHA-256 of this
    payload dumped with ``sort_keys=True, separators=(",", ":")``.
    ``system`` / ``test_case`` default to the registry entries named by
    the key; explicit configs hash hypothetical configurations.  The
    versions are read from :mod:`repro.campaign.keys` at call time.
    """
    system = system if system is not None else keys.get_system(key.system)
    test_case = (
        test_case if test_case is not None else keys.resolve_test_case(key.test_case)
    )
    return {
        "schema": keys.CACHE_SCHEMA_VERSION,
        "code_version": keys.CODE_VERSION,
        "key": asdict(key),
        "system": asdict(system),
        "test_case": asdict(test_case),
    }


def parse_pm_file(content: str) -> tuple[float, str, float]:
    """Parse a pm_counters file body into ``(value, unit, timestamp_s)``."""
    parts = content.split()
    if len(parts) != 4 or parts[3] != "us":
        raise SensorError(f"malformed pm_counters file content: {content!r}")
    return float(parts[0]), parts[1], float(parts[2]) / 1e6
