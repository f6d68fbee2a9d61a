"""Measurement records and their on-disk format.

The instrumented application stores, per MPI rank and per loop function,
the accumulated wall time and the energy of each measurable counter
(``gpu``, ``cpu``, ``memory``, ``node``).  At the end of the run the
records are gathered to one structure and written to a JSON file for
post-hoc analysis ("stored into a file ... to avoid perturbing the actual
simulation", Section 2).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro.errors import AnalysisError

#: Canonical counter names a rank can report.
COUNTERS = ("gpu", "cpu", "memory", "node")


@dataclass
class FunctionEnergyRecord:
    """Accumulated measurements of one function on one rank."""

    rank: int
    function: str
    calls: int = 0
    seconds: float = 0.0
    #: Raw counter deltas in joules (uncorrected for sensor sharing).
    joules: dict[str, float] = field(default_factory=dict)
    #: Telemetry mitigations that fired while this region was open, as
    #: counter deltas (``retries``, ``gaps_interpolated``, ``gap_seconds``,
    #: ``glitches_rejected``, ``stuck_reads``...).  Empty for a clean run.
    health: dict[str, float] = field(default_factory=dict)

    def accumulate(
        self,
        seconds: float,
        joules: dict[str, float],
        health: dict[str, float] | None = None,
    ) -> None:
        """Add one instrumented call's measurements."""
        if seconds < 0:
            raise AnalysisError("negative region duration")
        self.calls += 1
        self.seconds += seconds
        for name, value in joules.items():
            self.joules[name] = self.joules.get(name, 0.0) + value
        for name, value in (health or {}).items():
            self.health[name] = self.health.get(name, 0.0) + value


@dataclass
class TelemetryHealthRecord:
    """Per-node data-quality counters of the measurement pipeline.

    One record per node summarises every mitigation the resilient
    measurement layer performed during the run: failed reads retried,
    gaps filled by last-good-value interpolation, implausible power
    samples rejected, and stuck-counter detections.  ``degraded_children``
    names the meters that served substituted (not directly sensed) values
    at any point; ``status`` is ``"ok"`` only when no substitution was
    ever needed.
    """

    node_index: int
    reads: int = 0
    retries: int = 0
    retry_successes: int = 0
    gaps_interpolated: int = 0
    gap_seconds: float = 0.0
    glitches_rejected: int = 0
    stuck_reads: int = 0
    stuck_detections: int = 0
    suspect_intervals: int = 0
    degraded_children: list[str] = field(default_factory=list)
    status: str = "ok"


@dataclass
class NodeWindowRecord:
    """Per-node counter deltas over the whole application window."""

    node_index: int
    node_joules: float
    cpu_joules: float
    memory_joules: float | None
    card_joules: list[float] = field(default_factory=list)


@dataclass
class RunMeasurements:
    """Everything one instrumented run produces (post-gather)."""

    system_name: str
    test_case: str
    num_ranks: int
    num_nodes: int
    gcds_per_card: int
    gpu_freq_mhz: float
    num_steps: int
    particles_per_rank: float
    app_start: float
    app_end: float
    records: list[FunctionEnergyRecord] = field(default_factory=list)
    node_windows: list[NodeWindowRecord] = field(default_factory=list)
    #: Per-node telemetry data-quality summary (empty when the run was
    #: measured without the resilient layer, e.g. old measurement files).
    telemetry_health: list[TelemetryHealthRecord] = field(default_factory=list)

    @property
    def app_seconds(self) -> float:
        """Wall time of the instrumented window (first to last time-step)."""
        return self.app_end - self.app_start

    @property
    def ranks_per_node(self) -> int:
        """MPI ranks per node."""
        return self.num_ranks // self.num_nodes

    @property
    def telemetry_degraded(self) -> bool:
        """True when any node served substituted (degraded) measurements."""
        return any(h.status != "ok" for h in self.telemetry_health)

    def functions(self) -> list[str]:
        """Function names present, in first-seen order."""
        seen: dict[str, None] = {}
        for rec in self.records:
            seen.setdefault(rec.function, None)
        return list(seen)

    def record(self, rank: int, function: str) -> FunctionEnergyRecord:
        """The record of (rank, function)."""
        for rec in self.records:
            if rec.rank == rank and rec.function == function:
                return rec
        raise AnalysisError(f"no record for rank {rank}, function {function!r}")

    # -- persistence --------------------------------------------------------------

    def to_dict(self) -> dict:
        """The JSON-ready payload of a measurement file.

        The records are stored as columns: ``rank``, ``function``,
        ``calls`` and ``seconds`` are one list each, and ``joules`` and
        ``health`` map each name to a list in which ``null`` marks a
        record without that key.
        """
        payload = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in _ROW_LISTS
        }
        payload["records"] = _record_columns(self.records)
        payload["node_windows"] = [asdict(w) for w in self.node_windows]
        payload["telemetry_health"] = [asdict(h) for h in self.telemetry_health]
        return payload

    def to_json(self) -> str:
        """Serialize to the post-hoc analysis file format (compact JSON)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RunMeasurements":
        """Parse a measurement file."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise AnalysisError(f"malformed measurement file: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunMeasurements":
        """Build from the parsed JSON of a measurement file (not mutated)."""
        try:
            scalars = {
                name: value
                for name, value in payload.items()
                if name not in _ROW_LISTS
            }
            return cls(
                records=_records_from_columns(payload["records"]),
                node_windows=[
                    NodeWindowRecord(**w) for w in payload["node_windows"]
                ],
                # Absent in files written before the resilient measurement layer.
                telemetry_health=[
                    TelemetryHealthRecord(**h)
                    for h in payload.get("telemetry_health", [])
                ],
                **scalars,
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise AnalysisError(f"malformed measurement file: {exc}") from exc

    def write(self, path: str | Path) -> None:
        """Write the measurement file."""
        Path(path).write_text(self.to_json())

    @classmethod
    def read(cls, path: str | Path) -> "RunMeasurements":
        """Load a measurement file."""
        return cls.from_json(Path(path).read_text())


#: ``RunMeasurements`` fields stored as lists rather than scalars.
_ROW_LISTS = ("records", "node_windows", "telemetry_health")

#: Per-record columns that every record has a value in.
_DENSE_COLUMNS = ("rank", "function", "calls", "seconds")


def _sparse_columns(maps: list[dict[str, float]]) -> dict[str, list]:
    """One list per key over ``maps``; ``None`` where a map lacks the key."""
    columns: dict[str, list] = {}
    for i, values in enumerate(maps):
        for name, value in values.items():
            column = columns.get(name)
            if column is None:
                column = columns[name] = [None] * len(maps)
            column[i] = value
    return columns


def _record_columns(records: list[FunctionEnergyRecord]) -> dict:
    """The records section of a measurement file, as columns."""
    return {
        "rank": [r.rank for r in records],
        "function": [r.function for r in records],
        "calls": [r.calls for r in records],
        "seconds": [r.seconds for r in records],
        "joules": _sparse_columns([r.joules for r in records]),
        "health": _sparse_columns([r.health for r in records]),
    }


def _column(columns: dict, name: str, length: int | None) -> list:
    """One records column, checked to hold ``length`` entries.

    ``zip`` would silently drop the records past a short column, so a
    column of the wrong length is a malformed file.
    """
    column = columns[name]
    if not isinstance(column, list):
        raise AnalysisError(f"records column {name!r} is not a list")
    if length is not None and len(column) != length:
        raise AnalysisError(
            f"records column {name!r} has {len(column)} entries, "
            f"'rank' has {length}"
        )
    return column


def _sparse_rows(columns: dict, length: int) -> list[dict]:
    """Per-record maps from name -> column, leaving out the nulls."""
    rows: list[dict] = [{} for _ in range(length)]
    for name in columns.keys():
        for row, value in zip(rows, _column(columns, name, length)):
            if value is not None:
                row[name] = value
    return rows


def _records_from_columns(columns: dict) -> list[FunctionEnergyRecord]:
    """Rebuild the records from their columns (see ``to_dict``)."""
    n = len(_column(columns, "rank", None))
    dense = [_column(columns, name, n) for name in _DENSE_COLUMNS]
    for name, column in zip(_DENSE_COLUMNS, dense):
        if None in column:
            raise AnalysisError(f"records column {name!r} holds a null")
    return [
        FunctionEnergyRecord(*values)
        for values in zip(
            *dense,
            _sparse_rows(columns["joules"], n),
            _sparse_rows(columns["health"], n),
        )
    ]
