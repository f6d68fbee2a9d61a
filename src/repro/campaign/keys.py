"""Run identity and content-addressed cache keys.

A :class:`RunKey` names one independent instrumented run of a campaign:
the (system, test case, card count, GPU frequency, problem size, step
count, seed) tuple that fully determines the run's measurements — the
simulated cluster is deterministic, so two runs with equal keys produce
bit-identical results.

The cache address of a key is :func:`run_key_hash`: a SHA-256 over a
canonical JSON payload containing the key fields *and the full content*
of the referenced system and test-case configurations (power-model
coefficients, network latencies, Slurm timing, sensor backends, ...),
plus a code-version tag.  Hashing configuration *content* rather than
names means editing any physics- or measurement-relevant constant in
:mod:`repro.config` invalidates exactly the affected cache entries,
while purely cosmetic execution settings (cache directory, worker count,
output paths) never enter the payload and therefore never invalidate
anything.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields

from repro.config import (
    OBSERVABILITY_CASES,
    SystemConfig,
    TestCaseConfig,
    get_system,
)
from repro.errors import ConfigurationError

#: Layout version of the cache entry files.  Bump on incompatible
#: serialization changes; old entries then read as misses.
CACHE_SCHEMA_VERSION = 2

#: Version tag of the measurement/physics code paths.  Bump whenever a
#: change alters what a run *measures* (solver numerics, power models,
#: sensor semantics, profiler attribution) without any config field
#: changing — every cached result is then invalidated at once.
CODE_VERSION = "2"


@dataclass(frozen=True)
class RunKey:
    """Identity of one independent campaign run."""

    system: str
    test_case: str
    num_cards: int
    #: Requested compute clock; ``None`` runs at the system default.
    gpu_freq_mhz: float | None
    num_steps: int
    particles_per_rank: float
    seed: int
    #: Online governor policy steering the run's clocks, or ``None`` for
    #: the classic fixed-frequency run.  Part of the cache identity: a
    #: governed run measures something different from a static one.
    governor: str | None = None

    def __post_init__(self) -> None:
        if self.num_cards <= 0:
            raise ConfigurationError("num_cards must be positive")
        if self.num_steps <= 0:
            raise ConfigurationError("num_steps must be positive")
        if self.particles_per_rank <= 0:
            raise ConfigurationError("particles_per_rank must be positive")
        if self.governor is not None:
            from repro.tuning.governor import GOVERNOR_POLICIES

            if self.governor not in GOVERNOR_POLICIES:
                raise ConfigurationError(
                    f"unknown governor policy {self.governor!r}; "
                    f"available: {GOVERNOR_POLICIES}"
                )

    @property
    def label(self) -> str:
        """Compact human-readable identity for progress and summaries."""
        freq = "default" if self.gpu_freq_mhz is None else f"{self.gpu_freq_mhz:.0f}MHz"
        gov = "" if self.governor is None else f"/{self.governor}"
        return (
            f"{self.system}/{self.test_case}/{self.num_cards}c/{freq}/"
            f"{self.particles_per_rank:.0f}ppr/{self.num_steps}s/seed{self.seed}"
            f"{gov}"
        )


def sort_key(key: RunKey) -> tuple:
    """Deterministic total order over run keys (``None`` frequency first)."""
    return (
        key.system,
        key.test_case,
        key.num_cards,
        key.gpu_freq_mhz is not None,
        key.gpu_freq_mhz or 0.0,
        key.particles_per_rank,
        key.num_steps,
        key.seed,
        key.governor or "",
    )


def resolve_test_case(name: str) -> TestCaseConfig:
    """Look up a test case by name (paper cases plus observability demos)."""
    try:
        return OBSERVABILITY_CASES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown test case {name!r}; available: {sorted(OBSERVABILITY_CASES)}"
        ) from None


#: ``id(config) -> (config, canonical JSON text)``.  Holding the config
#: pins its ``id`` for as long as the entry lives; identity rather than
#: equality is the key because equal configs can serialize differently
#: (``12 == 12.0``, ``0.0 == -0.0``) and must keep distinct addresses.
_FRAGMENTS: dict[int, tuple[object, str]] = {}

#: Explicit configs (hypothetical what-ifs) are rare; past this many
#: distinct ones the memo starts over rather than growing without bound.
_FRAGMENTS_MAX = 256


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))``, without
#: building a fresh encoder on every call.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _fragment(config: SystemConfig | TestCaseConfig) -> str:
    """The canonical JSON text of a frozen config, computed once per object."""
    entry = _FRAGMENTS.get(id(config))
    if entry is not None:
        return entry[1]
    text = _dumps(asdict(config))
    if len(_FRAGMENTS) >= _FRAGMENTS_MAX:
        _FRAGMENTS.clear()
    _FRAGMENTS[id(config)] = (config, text)
    return text


_KEY_FIELDS = tuple(f.name for f in fields(RunKey))


def run_key_hash(
    key: RunKey,
    system: SystemConfig | None = None,
    test_case: TestCaseConfig | None = None,
) -> str:
    """Content address of a run: SHA-256 of the canonical payload.

    The payload is ``{"schema", "code_version", "key", "system",
    "test_case"}`` — the cache schema and code versions, the key's fields
    and the ``asdict`` content of both configs — as ``json.dumps(...,
    sort_keys=True, separators=(",", ":"))`` would write it.  The text is
    assembled from per-config fragments in that same sorted order, so the
    configs' deep ``asdict`` copies are paid once per config, not once
    per call.  ``system`` / ``test_case`` default to the registry entries
    named by the key; explicit configs hash hypothetical configurations.
    """
    system = system if system is not None else get_system(key.system)
    test_case = (
        test_case if test_case is not None else resolve_test_case(key.test_case)
    )
    key_fields = {name: getattr(key, name) for name in _KEY_FIELDS}
    text = (
        f'{{"code_version":{_dumps(CODE_VERSION)},"key":{_dumps(key_fields)},'
        f'"schema":{_dumps(CACHE_SCHEMA_VERSION)},"system":{_fragment(system)},'
        f'"test_case":{_fragment(test_case)}}}'
    )
    return hashlib.sha256(text.encode()).hexdigest()
