"""Physical units and formatting helpers used throughout the library.

All internal computation is done in base SI units (seconds, joules, watts,
hertz).  This module provides explicit conversion helpers and human-readable
formatting so call sites never multiply by bare magic constants.
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# SI prefixes
# ---------------------------------------------------------------------------

MEGA = 1e6
GIGA = 1e9

#: Ordered (factor, symbol) pairs used by the generic formatter.
_SI_STEPS = [
    (1e12, "T"),
    (1e9, "G"),
    (1e6, "M"),
    (1e3, "k"),
    (1.0, ""),
    (1e-3, "m"),
    (1e-6, "u"),
    (1e-9, "n"),
]


def mhz(value: float) -> float:
    """Convert a frequency in MHz to Hz."""
    return value * MEGA


def ghz(value: float) -> float:
    """Convert a frequency in GHz to Hz."""
    return value * GIGA


def hz_to_mhz(value: float) -> float:
    """Convert a frequency in Hz to MHz."""
    return value / MEGA


def joules_to_megajoules(value: float) -> float:
    """Convert J to MJ."""
    return value / MEGA


def minutes(value: float) -> float:
    """Convert minutes to seconds."""
    return value * 60.0


def hours(value: float) -> float:
    """Convert hours to seconds."""
    return value * 3600.0


def format_si(value: float, unit: str, precision: int = 3) -> str:
    """Format ``value`` with an SI prefix, e.g. ``format_si(24.4e6, "J")``
    returns ``"24.4 MJ"``.

    Negative values keep their sign; zero formats without a prefix.
    """
    if value == 0 or not math.isfinite(value):
        return f"{value:.{precision}g} {unit}"
    mag = abs(value)
    for factor, symbol in _SI_STEPS:
        if mag >= factor:
            return f"{value / factor:.{precision}g} {symbol}{unit}"
    factor, symbol = _SI_STEPS[-1]
    return f"{value / factor:.{precision}g} {symbol}{unit}"


def format_energy(joules: float, precision: int = 3) -> str:
    """Format an energy in joules with an SI prefix."""
    return format_si(joules, "J", precision)


def format_power(watts: float, precision: int = 3) -> str:
    """Format a power in watts with an SI prefix."""
    return format_si(watts, "W", precision)


def format_duration(seconds: float) -> str:
    """Format a duration as ``H:MM:SS.s`` for durations over a minute and
    as seconds otherwise."""
    if seconds < 0:
        return "-" + format_duration(-seconds)
    if seconds < 60:
        return f"{seconds:.3g} s"
    whole = int(seconds)
    hours_, rem = divmod(whole, 3600)
    mins, secs = divmod(rem, 60)
    frac = seconds - whole
    return f"{hours_:d}:{mins:02d}:{secs + frac:04.1f}"
