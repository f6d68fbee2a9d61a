"""Declarative campaign specifications and their expansion.

A :class:`CampaignSpec` names the axes of a sweep — systems × test cases
× card counts × frequencies × problem sizes × seeds — without saying
anything about *how* it executes.  :func:`expand` takes the cartesian
product and resolves every point to a fully-determined
:class:`~repro.campaign.keys.RunKey` (step counts and particle counts
filled in from the test-case defaults), in a deterministic order that is
independent of worker count or cache state.

Execution settings (worker count, cache directory, progress reporting)
deliberately do not appear here: they belong to the executor, so they can
never leak into the content-addressed run identity.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.campaign.keys import RunKey, resolve_test_case
from repro.config import get_system
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CampaignSpec:
    """The axes of one sweep of independent instrumented runs."""

    name: str
    systems: tuple[str, ...]
    test_cases: tuple[str, ...]
    card_counts: tuple[int, ...]
    #: Requested compute clocks; ``None`` means the system default.
    freqs_mhz: tuple[float | None, ...] = (None,)
    #: Particles per rank; ``None`` resolves to the case's paper value.
    particles_per_rank: tuple[float | None, ...] = (None,)
    #: Steps per run; ``None`` resolves to the case's paper value.
    num_steps: int | None = None
    seeds: tuple[int, ...] = (0,)
    #: Online governor policy applied to every run (``None`` = static
    #: clocks).  A scalar, not an axis: sweeps compare governed against
    #: static runs by running two campaigns, which keeps the cache
    #: identity of classic campaigns untouched.
    governor: str | None = None

    def __post_init__(self) -> None:
        # Tolerate lists from CLI argument parsing.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, list):
                object.__setattr__(self, f.name, tuple(value))
        for axis in (
            "systems", "test_cases", "card_counts", "freqs_mhz",
            "particles_per_rank", "seeds",
        ):
            if not getattr(self, axis):
                raise ConfigurationError(f"campaign axis {axis!r} is empty")
        if self.num_steps is not None and self.num_steps <= 0:
            raise ConfigurationError("num_steps must be positive")
        for name in self.systems:
            get_system(name)  # raises on unknown systems
        for name in self.test_cases:
            resolve_test_case(name)

    @property
    def num_points(self) -> int:
        """Size of the cartesian product."""
        return (
            len(self.systems)
            * len(self.test_cases)
            * len(self.card_counts)
            * len(self.freqs_mhz)
            * len(self.particles_per_rank)
            * len(self.seeds)
        )


def expand(spec: CampaignSpec) -> tuple[RunKey, ...]:
    """The spec's runs as fully-resolved keys, in deterministic order."""
    keys = []
    for system in spec.systems:
        for case_name in spec.test_cases:
            case = resolve_test_case(case_name)
            steps = spec.num_steps if spec.num_steps is not None else case.num_steps
            for cards in spec.card_counts:
                for particles in spec.particles_per_rank:
                    resolved = (
                        particles
                        if particles is not None
                        else case.particles_per_gpu
                    )
                    for freq in spec.freqs_mhz:
                        for seed in spec.seeds:
                            keys.append(
                                RunKey(
                                    system=system,
                                    test_case=case_name,
                                    num_cards=cards,
                                    gpu_freq_mhz=(
                                        None if freq is None else float(freq)
                                    ),
                                    num_steps=steps,
                                    particles_per_rank=float(resolved),
                                    seed=seed,
                                    governor=spec.governor,
                                )
                            )
    if len(set(keys)) != len(keys):
        raise ConfigurationError(
            f"campaign {spec.name!r} expands to duplicate run keys "
            "(repeated axis values?)"
        )
    return tuple(keys)
