"""Bounded, tiered time-series storage for telemetry samples.

A :class:`SampleStore` retains the power/energy timeline of every
``(node, channel)`` sensor stream of a run without letting memory grow
with run length.  Each channel is a :class:`ChannelSeries` holding three
tiers of NumPy-backed buffers:

* **raw** — the newest samples verbatim, in a bounded buffer.  When it
  fills, the oldest samples are drained into…
* **buckets** — fixed-size mean buckets.  Each bucket keeps its time span,
  the *energy-preserving* mean power (``ΔJ / Δt`` of the span, so the
  bucket's rectangle integrates to exactly the energy the raw samples
  covered), min/max power for envelope rendering, the cumulative-joules
  endpoints, and the worst sample quality seen.  When the bucket tier
  fills, the oldest half is compressed into…
* **LTTB** — representative points chosen by largest-triangle-three-buckets
  downsampling over ``(t, watts)``.  When this tier fills it is
  re-decimated in place to half its capacity, so total memory is strictly
  bounded no matter how many samples stream in.

Every tier retains true ``(time, cumulative joules)`` knots, so time-range
energy queries interpolate the monotone joules curve instead of
re-integrating lossy powers: full-range queries are exact, sub-range
queries are exact at retained knots and linear between them.  Queries are
O(log n) over a cached knot view (rebuilt lazily after appends).

Buffers grow by doubling up to their capacity; eviction compacts in blocks
(amortized O(1) per sample), keeping every tier contiguous and
time-ordered so ``np.searchsorted`` works directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from repro.errors import AnalysisError
from repro.pmt.state import MEASUREMENT_QUALITIES

#: Quality-string -> compact uint8 code (index in MEASUREMENT_QUALITIES).
QUALITY_CODES: dict[str, int] = {
    name: code for code, name in enumerate(MEASUREMENT_QUALITIES)
}

#: Tier identifiers, oldest data first.
TIERS = ("lttb", "buckets", "raw")


def quality_code(quality: str) -> int:
    """The compact code of a quality string."""
    try:
        return QUALITY_CODES[quality]
    except KeyError:
        raise AnalysisError(
            f"unknown measurement quality {quality!r}; "
            f"expected one of {MEASUREMENT_QUALITIES}"
        ) from None


def quality_name(code: int) -> str:
    """The quality string of a compact code."""
    return MEASUREMENT_QUALITIES[code]


def lttb_indices(times: np.ndarray, values: np.ndarray, n_out: int) -> np.ndarray:
    """Largest-triangle-three-buckets point selection.

    Returns the sorted indices of the ``n_out`` points that best preserve
    the visual shape of ``(times, values)``: the first and last points are
    always kept; each interior bucket keeps the point forming the largest
    triangle with the previously selected point and the next bucket's mean.
    """
    n = len(times)
    if n_out >= n:
        return np.arange(n)
    if n_out < 3:
        raise AnalysisError("LTTB needs at least 3 output points")
    # Interior bucket boundaries (n_out - 2 buckets over points 1..n-1).
    edges = np.linspace(1, n - 1, n_out - 1).astype(np.int64)
    selected = np.empty(n_out, dtype=np.int64)
    selected[0] = 0
    a = 0
    for k in range(n_out - 2):
        lo, hi = edges[k], edges[k + 1]
        nxt_lo, nxt_hi = edges[k + 1], n if k == n_out - 3 else edges[k + 2]
        avg_t = times[nxt_lo:nxt_hi].mean()
        avg_v = values[nxt_lo:nxt_hi].mean()
        t_seg = times[lo:hi]
        v_seg = values[lo:hi]
        # Twice the triangle area of (a, candidate, next-bucket mean).
        area = np.abs(
            (times[a] - avg_t) * (v_seg - values[a])
            - (times[a] - t_seg) * (avg_v - values[a])
        )
        a = lo + int(np.argmax(area))
        selected[k + 1] = a
    selected[-1] = n - 1
    return selected


class _Columns:
    """A contiguous, growable-to-capacity columnar buffer.

    Arrays double in size until ``capacity``; ``pop_front`` copies the
    oldest rows out and compacts the remainder forward (block eviction, so
    the cost amortizes to O(1) per appended row).
    """

    def __init__(self, capacity: int, dtypes: dict[str, np.dtype]) -> None:
        if capacity < 1:
            raise AnalysisError("tier capacity must be >= 1")
        self.capacity = int(capacity)
        initial = min(64, self.capacity)
        self.arrays = {
            name: np.zeros(initial, dtype=dt) for name, dt in dtypes.items()
        }
        self.n = 0

    @property
    def free(self) -> int:
        return self.capacity - self.n

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.arrays.values())

    def _ensure(self, extra: int) -> None:
        need = self.n + extra
        size = len(next(iter(self.arrays.values())))
        if need <= size:
            return
        new_size = size
        while new_size < need:
            new_size *= 2
        new_size = min(new_size, self.capacity)
        for name, arr in self.arrays.items():
            grown = np.zeros(new_size, dtype=arr.dtype)
            grown[: self.n] = arr[: self.n]
            self.arrays[name] = grown

    def extend(self, columns: dict[str, np.ndarray]) -> None:
        k = len(next(iter(columns.values())))
        if k > self.free:
            raise AnalysisError("tier overflow: drain before extending")
        self._ensure(k)
        for name, values in columns.items():
            self.arrays[name][self.n : self.n + k] = values
        self.n += k

    def pop_front(self, k: int) -> dict[str, np.ndarray]:
        k = min(k, self.n)
        out = {name: arr[:k].copy() for name, arr in self.arrays.items()}
        for arr in self.arrays.values():
            arr[: self.n - k] = arr[k : self.n]
        self.n -= k
        return out

    def view(self, name: str) -> np.ndarray:
        return self.arrays[name][: self.n]


@dataclass(frozen=True)
class TierStats:
    """Occupancy summary of one channel's tiers."""

    raw: int
    buckets: int
    lttb: int
    total_appended: int


class ChannelSeries:
    """The tiered timeline of one ``(node, channel)`` sensor stream."""

    _RAW_FIELDS = {
        "t": np.float64,
        "watts": np.float64,
        "joules": np.float64,
        "quality": np.uint8,
    }
    _BUCKET_FIELDS = {
        "t0": np.float64,
        "t1": np.float64,
        "watts_mean": np.float64,
        "watts_min": np.float64,
        "watts_max": np.float64,
        "joules0": np.float64,
        "joules1": np.float64,
        "count": np.int64,
        "quality": np.uint8,
    }

    def __init__(
        self,
        raw_capacity: int = 4096,
        bucket_size: int = 32,
        bucket_capacity: int = 2048,
        lttb_capacity: int = 1024,
    ) -> None:
        if bucket_size < 1:
            raise AnalysisError("bucket_size must be >= 1")
        if raw_capacity < 2 * bucket_size:
            raise AnalysisError("raw_capacity must hold at least two buckets")
        if lttb_capacity < 8:
            raise AnalysisError("lttb_capacity must be >= 8")
        self.bucket_size = int(bucket_size)
        self._raw = _Columns(raw_capacity, self._RAW_FIELDS)
        self._buckets = _Columns(bucket_capacity, self._BUCKET_FIELDS)
        self._lttb = _Columns(lttb_capacity, self._RAW_FIELDS)
        self.total_appended = 0
        self._last_t = -np.inf
        self._knots: tuple[np.ndarray, np.ndarray] | None = None

    # -- ingest -------------------------------------------------------------

    def append(
        self, t: float, watts: float, joules: float, quality: str = "ok"
    ) -> None:
        """Record one sample."""
        self.extend(
            np.asarray([t], dtype=np.float64),
            np.asarray([watts], dtype=np.float64),
            np.asarray([joules], dtype=np.float64),
            np.asarray([quality_code(quality)], dtype=np.uint8),
        )

    def extend(
        self,
        times: np.ndarray,
        watts: np.ndarray,
        joules: np.ndarray,
        quality: np.ndarray | None = None,
    ) -> None:
        """Bulk-record samples (times must be non-decreasing)."""
        times = np.asarray(times, dtype=np.float64)
        watts = np.asarray(watts, dtype=np.float64)
        joules = np.asarray(joules, dtype=np.float64)
        if quality is None:
            quality = np.zeros(len(times), dtype=np.uint8)
        else:
            quality = np.asarray(quality, dtype=np.uint8)
        if not (len(times) == len(watts) == len(joules) == len(quality)):
            raise AnalysisError("sample columns must have equal length")
        if len(times) == 0:
            return
        # Written as "not >=" so that a NaN, which compares false, fails.
        if not (np.diff(times) >= 0).all():
            raise AnalysisError("sample times must be non-decreasing, not NaN")
        if not times[0] >= self._last_t:
            raise AnalysisError(
                f"sample at t={float(times[0])!r} is NaN or precedes "
                f"last stored t={self._last_t!r}"
            )
        # With the order holding, an infinity can only sit at an end.
        if not (isfinite(times[0]) and isfinite(times[-1])):
            raise AnalysisError("sample times must be finite")
        pos = 0
        n = len(times)
        while pos < n:
            if self._raw.free == 0:
                self._drain_raw()
            take = min(self._raw.free, n - pos)
            self._raw.extend(
                {
                    "t": times[pos : pos + take],
                    "watts": watts[pos : pos + take],
                    "joules": joules[pos : pos + take],
                    "quality": quality[pos : pos + take],
                }
            )
            pos += take
        self.total_appended += n
        self._last_t = float(times[-1])
        self._knots = None

    def _drain_raw(self) -> None:
        """Aggregate the oldest half of the raw tier into mean buckets."""
        num_buckets = max(1, (self._raw.n // 2) // self.bucket_size)
        drained = self._raw.pop_front(num_buckets * self.bucket_size)
        t = drained["t"].reshape(num_buckets, self.bucket_size)
        w = drained["watts"].reshape(num_buckets, self.bucket_size)
        j = drained["joules"].reshape(num_buckets, self.bucket_size)
        q = drained["quality"].reshape(num_buckets, self.bucket_size)
        t0, t1 = t[:, 0], t[:, -1]
        j0, j1 = j[:, 0], j[:, -1]
        span = t1 - t0
        # Energy-preserving mean: the bucket rectangle integrates to the
        # exact joules delta of its span; zero-length spans (all samples at
        # one instant) fall back to the arithmetic mean.
        rate = np.divide(j1 - j0, np.where(span > 0, span, 1.0))
        mean = np.where(span > 0, rate, w.mean(axis=1))
        columns = {
            "t0": t0,
            "t1": t1,
            "watts_mean": mean,
            "watts_min": w.min(axis=1),
            "watts_max": w.max(axis=1),
            "joules0": j0,
            "joules1": j1,
            "count": np.full(num_buckets, self.bucket_size, dtype=np.int64),
            "quality": q.max(axis=1),
        }
        # One drain can produce more buckets than the bucket tier holds
        # (a raw ring much wider than the bucket tier, or one oversized
        # batch streaming straight through): insert in chunks, compressing
        # the oldest buckets ahead of each chunk, instead of asking the
        # tier to absorb the whole drain at once and overflowing it.
        pos = 0
        while pos < num_buckets:
            if self._buckets.free == 0:
                self._drain_buckets(
                    min(num_buckets - pos, max(1, self._buckets.capacity // 2))
                )
            take = min(self._buckets.free, num_buckets - pos)
            self._buckets.extend(
                {name: arr[pos : pos + take] for name, arr in columns.items()}
            )
            pos += take

    def _drain_buckets(self, need: int) -> None:
        """Compress the oldest buckets into LTTB-selected points."""
        drain = max(need, self._buckets.n // 2)
        old = self._buckets.pop_front(drain)
        # Never ask for more LTTB points than half that tier's capacity, so
        # one re-decimation always frees enough room for them.
        n_out = max(3, min(drain // 4, self._lttb.capacity // 2))
        idx = lttb_indices(old["t0"], old["watts_mean"], n_out)
        cols = {
            "t": old["t0"][idx],
            "watts": old["watts_mean"][idx],
            "joules": old["joules0"][idx],
            "quality": old["quality"][idx],
        }
        if self._lttb.free < len(idx):
            self._redecimate_lttb(len(idx))
        self._lttb.extend(cols)

    def _redecimate_lttb(self, need: int) -> None:
        """Halve the LTTB tier in place (keeps memory strictly bounded)."""
        n_out = max(3, min(self._lttb.capacity - need, self._lttb.n // 2))
        old = self._lttb.pop_front(self._lttb.n)
        idx = lttb_indices(old["t"], old["watts"], n_out)
        self._lttb.extend({name: arr[idx] for name, arr in old.items()})

    # -- queries ------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Current buffer memory of this channel."""
        return self._raw.nbytes + self._buckets.nbytes + self._lttb.nbytes

    def memory_cap_bytes(self) -> int:
        """Worst-case buffer memory of this channel (all tiers full)."""
        raw_row = sum(np.dtype(d).itemsize for d in self._RAW_FIELDS.values())
        bucket_row = sum(
            np.dtype(d).itemsize for d in self._BUCKET_FIELDS.values()
        )
        return (
            self._raw.capacity * raw_row
            + self._buckets.capacity * bucket_row
            + self._lttb.capacity * raw_row
        )

    @property
    def latest(self) -> tuple[float, float, float, str]:
        """``(t, watts, joules, quality)`` of the newest sample."""
        if self.total_appended == 0:
            raise AnalysisError("channel has no samples")
        for tier in (self._raw, self._lttb):
            if tier.n:
                i = tier.n - 1
                return (
                    float(tier.view("t")[i]),
                    float(tier.view("watts")[i]),
                    float(tier.view("joules")[i]),
                    quality_name(int(tier.view("quality")[i])),
                )
        i = self._buckets.n - 1
        return (
            float(self._buckets.view("t1")[i]),
            float(self._buckets.view("watts_mean")[i]),
            float(self._buckets.view("joules1")[i]),
            quality_name(int(self._buckets.view("quality")[i])),
        )

    def stats(self) -> TierStats:
        """Occupancy of each tier."""
        return TierStats(
            raw=self._raw.n,
            buckets=self._buckets.n,
            lttb=self._lttb.n,
            total_appended=self.total_appended,
        )

    def tier_arrays(
        self, tier: str
    ) -> dict[str, np.ndarray]:
        """Copies of one tier's columns (``lttb``/``buckets``/``raw``)."""
        if tier == "raw":
            src = self._raw
        elif tier == "lttb":
            src = self._lttb
        elif tier == "buckets":
            src = self._buckets
        else:
            raise AnalysisError(f"unknown tier {tier!r}; expected one of {TIERS}")
        return {name: src.view(name).copy() for name in src.arrays}

    #: Per tier, in ``tier``-code order (the order of :data:`TIERS`), the
    #: columns that give its timeline points' ``t``, ``watts``,
    #: ``joules`` and ``quality``.
    _POINT_COLUMNS = (
        ("t", "watts", "joules", "quality"),
        ("t0", "watts_mean", "joules0", "quality"),
        ("t", "watts", "joules", "quality"),
    )

    def _tiers(self) -> tuple[_Columns, _Columns, _Columns]:
        return self._lttb, self._buckets, self._raw

    def _join(self, slices: list[tuple[int, int, int]]) -> dict[str, np.ndarray]:
        """One timeline from ``(tier code, lo, hi)`` row slices."""
        tiers = self._tiers()
        out = {
            key: np.concatenate(
                [
                    tiers[code].arrays[self._POINT_COLUMNS[code][k]][lo:hi]
                    for code, lo, hi in slices
                ]
            )
            for k, key in enumerate(("t", "watts", "joules", "quality"))
        }
        out["tier"] = np.concatenate(
            [np.full(hi - lo, code, dtype=np.uint8) for code, lo, hi in slices]
        )
        return out

    def points(self) -> dict[str, np.ndarray]:
        """The full retained timeline, oldest first, one row per point.

        Bucket rows are represented by their span start with the
        energy-preserving mean power; ``tier`` codes the origin
        (0 = lttb, 1 = buckets, 2 = raw).
        """
        tiers = enumerate(self._tiers())
        return self._join([(code, 0, tier.n) for code, tier in tiers])

    def time_span(self) -> tuple[float, float]:
        """First and last ``t`` of :meth:`points` without building it
        (``(0.0, 0.0)`` for an empty series)."""
        parts = [
            tier.view(names[0])
            for tier, names in zip(self._tiers(), self._POINT_COLUMNS)
            if tier.n
        ]
        if not parts:
            return 0.0, 0.0
        return float(parts[0][0]), float(parts[-1][-1])

    def _knot_view(self) -> tuple[np.ndarray, np.ndarray]:
        """Time-ordered ``(t, cumulative joules)`` knots across all tiers."""
        if self._knots is None:
            # Bucket spans contribute both endpoints so the joules curve is
            # exact at bucket boundaries.
            bt = np.column_stack(
                (self._buckets.view("t0"), self._buckets.view("t1"))
            ).reshape(-1)
            bj = np.column_stack(
                (self._buckets.view("joules0"), self._buckets.view("joules1"))
            ).reshape(-1)
            t = np.concatenate([self._lttb.view("t"), bt, self._raw.view("t")])
            j = np.concatenate(
                [self._lttb.view("joules"), bj, self._raw.view("joules")]
            )
            # Tiers are time-ordered and non-overlapping by construction;
            # equal timestamps at tier seams are fine for interpolation.
            self._knots = (t, j)
        return self._knots

    def joules_at(self, t: float) -> float:
        """Cumulative joules at time ``t`` (interpolated between knots)."""
        knots_t, knots_j = self._knot_view()
        if len(knots_t) == 0:
            raise AnalysisError("channel has no samples")
        return float(np.interp(t, knots_t, knots_j))

    def energy_between(self, t0: float, t1: float) -> float:
        """Energy consumed on ``[t0, t1]`` from the retained joules curve."""
        if t1 < t0:
            raise AnalysisError(f"energy_between interval reversed: [{t0}, {t1}]")
        return self.joules_at(t1) - self.joules_at(t0)

    def range_query(self, t0: float, t1: float) -> dict[str, np.ndarray]:
        """All retained points with ``t0 <= t <= t1``, as :meth:`points` rows.

        Each tier is bisected on its own and only the slices are joined.
        Tiers are time-ordered (neighbours may share a seam timestamp), so
        this equals bisecting the whole of :meth:`points`.
        """
        if t1 < t0:
            raise AnalysisError(f"range_query interval reversed: [{t0}, {t1}]")
        slices = []
        for code, tier in enumerate(self._tiers()):
            t = tier.view(self._POINT_COLUMNS[code][0])
            if not len(t) or t[-1] < t0 or t[0] > t1:
                continue
            lo = int(t.searchsorted(t0, side="left"))
            hi = int(t.searchsorted(t1, side="right"))
            slices.append((code, lo, hi))
        # With no tier in range, an empty raw slice carries the dtypes.
        return self._join(slices or [(2, 0, 0)])

    def degraded_points(self) -> int:
        """Retained points whose quality is not ``ok``."""
        pts = self.points()
        return int(np.count_nonzero(pts["quality"]))


class SampleStore:
    """All channels of a run, keyed by ``(node_index, channel_name)``."""

    def __init__(
        self,
        raw_capacity: int = 4096,
        bucket_size: int = 32,
        bucket_capacity: int = 2048,
        lttb_capacity: int = 1024,
    ) -> None:
        self.raw_capacity = int(raw_capacity)
        self.bucket_size = int(bucket_size)
        self.bucket_capacity = int(bucket_capacity)
        self.lttb_capacity = int(lttb_capacity)
        self._channels: dict[tuple[int, str], ChannelSeries] = {}

    def channel(self, node_index: int, name: str) -> ChannelSeries:
        """The series of ``(node_index, name)``, created on first use."""
        key = (int(node_index), str(name))
        series = self._channels.get(key)
        if series is None:
            series = self._channels[key] = self._new_series()
        return series

    def _new_series(self) -> ChannelSeries:
        return ChannelSeries(
            raw_capacity=self.raw_capacity,
            bucket_size=self.bucket_size,
            bucket_capacity=self.bucket_capacity,
            lttb_capacity=self.lttb_capacity,
        )

    def record(
        self,
        node_index: int,
        name: str,
        t: float,
        watts: float,
        joules: float,
        quality: str = "ok",
    ) -> None:
        """Record one sample into the named channel."""
        self.channel(node_index, name).append(t, watts, joules, quality)

    def channels(self) -> list[tuple[int, str]]:
        """All channel keys, sorted by ``(node, name)`` (deterministic)."""
        return sorted(self._channels)

    def __contains__(self, key: tuple[int, str]) -> bool:
        return key in self._channels

    def __len__(self) -> int:
        return len(self._channels)

    @property
    def num_samples(self) -> int:
        """Total samples ever appended across channels."""
        return sum(s.total_appended for s in self._channels.values())

    @property
    def nbytes(self) -> int:
        """Current buffer memory across channels."""
        return sum(s.nbytes for s in self._channels.values())

    def memory_cap_bytes(self) -> int:
        """The worst-case buffer memory this store permits: one channel's
        :meth:`ChannelSeries.memory_cap_bytes` per channel (at least one)."""
        series = next(iter(self._channels.values()), None)
        if series is None:
            series = self._new_series()
        return series.memory_cap_bytes() * max(1, len(self._channels))
