"""Neighbor search: the flat CSR cell list.

Produces, for every particle, the neighbors with separation below the
pair cutoff ``2 * max(h_i, h_j)`` — the union support needed by
symmetrized SPH sums (each term is then masked by its own kernel's
compact support).  The result is a :class:`CsrNeighborList`: flat CSR
``offsets``/``indices`` arrays plus per-entry geometry, grouped by
gather target so the physics kernels reduce whole segments with
``np.add.reduceat`` instead of scatter-adds.  The tests check it pair
for pair against an O(N^2) brute force (``tests/oracles/neighbors.py``).

The cell list is one code path for every particle count: candidates are
counted *per cell* (all particles in a cell share the same stencil), so
the per-axis stencil offsets collapse to ``{0}`` or ``{0, 1}`` on
periodic axes with fewer than three cells.

The raw candidates outnumber the kept neighbors about ten to one, so
they are never materialized: they stream in blocks of at most
:data:`_CHUNK` rows, each filtered as it is generated, and only the
survivors are stored — a search's scratch is O(kept + chunk).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.sph.box import Box
from repro.sph.kernels.cubic_spline import SUPPORT_RADIUS

#: Cap on the total linked-cell count.  ``coords @ strides`` silently
#: wraps int64 beyond this, producing wrong (not just slow) pair lists,
#: so the cell list refuses instead (see :func:`_grid_shape`).
_MAX_TOTAL_CELLS = 2**62

#: Rows per chunk of the candidate stream and of the cutoff filter.  A
#: few MiB of filter temporaries (cache-sized, not candidate-sized) bound
#: the scratch memory of a neighbor search independently of N; the
#: filter's output does not depend on it (elementwise tests, integer
#: counts), so any positive value gives bitwise-identical results.
_CHUNK = 1 << 16

#: A filter's output: ``(counts, row, cand, dx, r)``, geometry optional.
_Filtered = tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None
]


class BufferPool:
    """Grow-only pool of named scratch arrays.

    ``get`` returns a view of exactly the requested size over a cached
    backing buffer that only ever grows (by 25% headroom), so steady-state
    queries perform no large allocations.  A view is valid until the same
    name is requested again — *any* later request, not only a larger one,
    since every request hands out the same backing memory.
    """

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def get(self, name: str, size: int, dtype) -> np.ndarray:
        """A 1-D view of ``size`` elements of the named buffer."""
        buf = self._bufs.get(name)
        if buf is None or buf.dtype != np.dtype(dtype) or buf.size < size:
            cap = size + size // 4 + 16
            buf = np.empty(cap, dtype=dtype)
            self._bufs[name] = buf
        return buf[:size]

    def grow(self, name: str, size: int, dtype, keep: int) -> np.ndarray:
        """Like :meth:`get`, but the first ``keep`` elements survive.

        For outputs appended to piece by piece, whose final size is only
        known once the last piece is in.
        """
        old = self._bufs.get(name)
        view = self.get(name, size, dtype)
        if keep and self._bufs[name] is not old:
            view[:keep] = old[:keep]
        return view

    def rows(self, name: str, size: int, width: int, dtype) -> np.ndarray:
        """A ``(size, width)`` view of the named buffer."""
        return self.get(name, size * width, dtype).reshape(size, width)

    def nbytes(self) -> int:
        """Total bytes currently held by the pool (diagnostics)."""
        return sum(buf.nbytes for buf in self._bufs.values())


@dataclass
class CsrNeighborList:
    """Directed neighbors in CSR layout, grouped by gather target.

    Segment ``s`` spans ``indices[offsets[s]:offsets[s+1]]`` — the
    neighbors of one particle.  ``row[k]`` repeats that particle's index
    per entry (the gather side of every per-pair term), ``dx[k] =
    pos[row[k]] - pos[indices[k]]`` (minimum image), ``r[k] = |dx[k]|``.

    ``targets`` maps segment number to particle index; ``None`` means
    the identity (segment ``s`` belongs to particle ``s``).  A Verlet
    cache that survives SFC relabelings keeps its segments in *build*
    order and publishes the current labels through ``targets``/``row``
    instead of re-sorting the flat arrays every step.

    The arrays may be views into a reused :class:`BufferPool`; they are
    valid until the producing query runs again.
    """

    offsets: np.ndarray
    indices: np.ndarray
    row: np.ndarray
    dx: np.ndarray
    r: np.ndarray
    n_particles: int
    targets: np.ndarray | None = None

    @property
    def n_pairs(self) -> int:
        """Number of directed neighbor entries."""
        return len(self.indices)

    def neighbor_counts(self) -> np.ndarray:
        """Per-particle directed neighbor counts."""
        counts = np.diff(self.offsets)
        if self.targets is None:
            if len(counts) == self.n_particles:
                return counts
            out = np.zeros(self.n_particles, dtype=counts.dtype)
            out[: len(counts)] = counts
            return out
        out = np.zeros(self.n_particles, dtype=counts.dtype)
        out[self.targets] = counts
        return out


# -- the CSR cell-list engine --------------------------------------------------


def _grid_shape(
    pos: np.ndarray, cutoff: float, box: Box
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell-grid origin, per-axis cell counts and widths.

    The cell width is at least ``cutoff`` (so a 27-stencil suffices) and
    the total cell count is clamped to O(N): pathologically small
    smoothing lengths get a coarser — still correct — grid instead of an
    O(domain/cutoff)^3 memory blow-up.
    """
    n = len(pos)
    if box.periodic:
        origin = np.full(3, box.lo)
        extent = np.full(3, box.length)
    else:
        # Open boxes anchor the grid at the box's own (known) bounds so
        # successive calls bin identically; only particles that escaped
        # the nominal box extend the grid beyond them.
        lo = np.minimum(pos.min(axis=0), box.lo)
        hi = np.maximum(pos.max(axis=0), box.hi)
        origin = lo
        extent = np.maximum(hi - lo, 1e-300)

    raw = np.maximum(np.floor(extent / cutoff), 1.0)
    if float(raw.prod()) > _MAX_TOTAL_CELLS:
        dims = tuple(f"{c:.3g}" for c in raw)
        min_cell = float(np.max(extent)) / (_MAX_TOTAL_CELLS ** (1.0 / 3.0))
        raise SimulationError(
            f"cell grid {dims} overflows the int64 cell index: the pair "
            f"cutoff {cutoff:.3e} is too small for the domain extent "
            f"{tuple(float(e) for e in np.round(extent, 6))}; increase the "
            f"smoothing lengths so the cell size exceeds ~{min_cell:.3e}, "
            "or shrink the domain"
        )
    # Clamp the grid to O(N) cells; wider cells stay correct (the
    # stencil still covers the cutoff) and bound the per-cell arrays.
    nmax = max(4, int(np.ceil((8.0 * max(n, 1)) ** (1.0 / 3.0))))
    ncell = np.minimum(raw, nmax).astype(np.int64)
    width = extent / ncell
    return origin, ncell, width


def _axis_offsets(ncell_axis: int, periodic: bool) -> tuple[int, ...]:
    """Stencil offsets along one axis, deduplicated for small grids.

    With one periodic cell every offset aliases 0; with two, -1 aliases
    +1.  Visiting each neighbor cell exactly once keeps the candidate
    list duplicate-free without any brute-force fallback.
    """
    if periodic:
        if ncell_axis == 1:
            return (0,)
        if ncell_axis == 2:
            return (0, 1)
    return (-1, 0, 1)


def _neighbor_cells(ncell: np.ndarray, periodic: bool):
    """Yield per-cell neighbor ids (flattened) and a validity mask.

    For each stencil offset, an array over *cells* (not particles)
    giving each cell's neighbor-cell flat id; ``valid`` is ``None`` for
    periodic boxes (all neighbors exist) or a boolean mask for open-box
    edge cells.
    """
    ax = [np.arange(ncell[d], dtype=np.int64) for d in range(3)]
    offs = [_axis_offsets(int(ncell[d]), periodic) for d in range(3)]
    for ox in offs[0]:
        for oy in offs[1]:
            for oz in offs[2]:
                nx, ny, nz = ax[0] + ox, ax[1] + oy, ax[2] + oz
                if periodic:
                    nx %= ncell[0]
                    ny %= ncell[1]
                    nz %= ncell[2]
                    valid = None
                else:
                    vx = (nx >= 0) & (nx < ncell[0])
                    vy = (ny >= 0) & (ny < ncell[1])
                    vz = (nz >= 0) & (nz < ncell[2])
                    valid = (
                        vx[:, None, None] & vy[None, :, None] & vz[None, None, :]
                    ).ravel()
                    np.clip(nx, 0, ncell[0] - 1, out=nx)
                    np.clip(ny, 0, ncell[1] - 1, out=ny)
                    np.clip(nz, 0, ncell[2] - 1, out=nz)
                nb = (
                    (nx[:, None, None] * ncell[1] + ny[None, :, None]) * ncell[2]
                    + nz[None, None, :]
                ).ravel()
                yield nb, valid


def _cell_bins(
    pos: np.ndarray, h_search: np.ndarray, box: Box
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bin particles into the stencil cell grid.

    Returns ``(ncell, flat, order, occ, cellstart)``: per-axis cell
    counts, each particle's flat cell id, the stable cell-sort
    permutation, and per-cell occupancy counts / start offsets into it.
    """
    cutoff = SUPPORT_RADIUS * float(np.max(h_search))
    if not np.isfinite(cutoff) or cutoff <= 0:
        raise SimulationError("non-positive smoothing lengths in neighbor search")
    origin, ncell, width = _grid_shape(pos, cutoff, box)
    total_cells = int(ncell[0] * ncell[1] * ncell[2])

    coords = np.floor((pos - origin) / width).astype(np.int64)
    if box.periodic:
        # Unwrapped positions bin to their wrapped cell (exact modulo),
        # keeping the stencil invariant without requiring callers to
        # wrap first; the filter's minimum image handles the geometry.
        coords %= ncell
    else:
        np.clip(coords, 0, ncell - 1, out=coords)
    flat = (coords[:, 0] * ncell[1] + coords[:, 1]) * ncell[2] + coords[:, 2]

    order = np.argsort(flat, kind="stable")
    occ = np.bincount(flat, minlength=total_cells)
    cellstart = np.zeros(total_cells, dtype=np.int64)
    np.cumsum(occ[:-1], out=cellstart[1:])
    return ncell, flat, order, occ, cellstart


def _stencil_table(
    ncell: np.ndarray, occ: np.ndarray, periodic: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell stencil: neighbor-cell ids and their occupancies.

    Both arrays are ``(cells, S)`` with one column per stencil offset, in
    :func:`_neighbor_cells` order; an open-box edge cell's missing
    neighbors have occupancy 0.  Row sums are the per-cell raw candidate
    counts.
    """
    ids, lens = [], []
    for nb, valid in _neighbor_cells(ncell, periodic):
        contrib = occ[nb]
        if valid is not None:
            contrib = np.where(valid, contrib, 0)
        ids.append(nb)
        lens.append(contrib)
    return np.stack(ids, axis=1), np.stack(lens, axis=1)


def _blocks(ends: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive particle blocks of the candidate stream.

    ``ends`` is the cumulative raw candidate count per particle.  Yields
    ``(p0, p1)``: blocks of whole particles with at most :data:`_CHUNK`
    raw candidates each (a particle with more is a block of its own).
    """
    p0 = 0
    while p0 < len(ends):
        base = int(ends[p0 - 1]) if p0 else 0
        p1 = max(int(np.searchsorted(ends, base + _CHUNK, side="right")), p0 + 1)
        yield p0, p1
        p0 = p1


def _csr_candidates(
    pos: np.ndarray, h_search: np.ndarray, box: Box
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Unfiltered CSR candidates from the cell grid, streamed in blocks.

    Yields ``(row, cand)`` int32 arrays for consecutive blocks of
    particles: for each particle, in particle order, the occupants of its
    stencil cells (itself included), cell by cell in stencil order and
    cell-sorted within a cell.  A block holds whole particles and at most
    :data:`_CHUNK` candidates (a particle with more is a block of its
    own), so the O(27 nnz) raw list is never materialized.
    """
    ncell, flat, order, occ, cellstart = _cell_bins(pos, h_search, box)
    nb_ids, nb_occ = _stencil_table(ncell, occ, box.periodic)
    counts = nb_occ.sum(axis=1)[flat]
    order32 = order.astype(np.int32)
    for p0, p1 in _blocks(np.cumsum(counts)):
        cells = flat[p0:p1]
        lens = nb_occ[cells].ravel()
        # Candidate t of stencil group g reads sorted slot
        # cellstart[g] + (t - first index of g).
        shift = np.cumsum(lens) - lens
        src = np.repeat(cellstart[nb_ids[cells]].ravel() - shift, lens)
        src += np.arange(len(src))
        row = np.repeat(np.arange(p0, p1, dtype=np.int32), counts[p0:p1])
        yield row, order32[src]


class _CutoffFilter:
    """The exact union-cutoff filter, fed candidate arrays piece by piece.

    Each :meth:`feed` tests its rows in :data:`_CHUNK`-row chunks over
    pooled ``fc_*`` temporaries and appends the survivors — and, when
    ``want_geometry``, their minimum-image ``dx`` and ``r`` — to pooled
    ``out_prefix`` buffers grown to what is kept (:meth:`BufferPool.grow`),
    so scratch is O(kept + chunk), never O(candidates fed).  Counts are
    per-segment surviving-entry counts.
    """

    def __init__(
        self,
        pos: np.ndarray,
        h: np.ndarray,
        box: Box,
        pool: BufferPool,
        *,
        exclude_self: bool,
        out_prefix: str,
        want_geometry: bool,
    ) -> None:
        self.px = [np.ascontiguousarray(pos[:, a]) for a in range(3)]
        self.h = h
        self.box = box
        self.pool = pool
        self.exclude_self = exclude_self
        self.prefix = out_prefix
        self.want_geometry = want_geometry
        self.counts = np.zeros(len(pos), dtype=np.int64)
        self.size = 0
        self._extend(0)

    def _extend(self, k: int) -> None:
        """Make room for ``k`` more survivors, keeping those already in."""
        lo, hi = self.size, self.size + k
        pool, p = self.pool, self.prefix
        self.row = pool.grow(p + "row", hi, np.int32, lo)
        self.cand = pool.grow(p + "cand", hi, np.int32, lo)
        if self.want_geometry:
            self.dx = pool.grow(p + "dx", 3 * hi, np.float64, 3 * lo).reshape(hi, 3)
            self.r = pool.grow(p + "r", hi, np.float64, lo)

    def feed(
        self, row: np.ndarray, cand: np.ndarray, count_idx: np.ndarray | None = None
    ) -> None:
        """Filter ``(row, cand)``; counts bin over ``count_idx`` when given."""
        nnz = len(cand)
        box, h, px = self.box, self.h, self.px
        m_max = min(nnz, _CHUNK)
        d = [self.pool.get(f"fc_d{a}", m_max, np.float64) for a in range(3)]
        r2 = self.pool.get("fc_r2", m_max, np.float64)
        ha = self.pool.get("fc_ha", m_max, np.float64)
        hb = self.pool.get("fc_hb", m_max, np.float64)
        inv_len = 1.0 / box.length
        for start in range(0, nnz, _CHUNK):
            stop = min(start + _CHUNK, nnz)
            m = stop - start
            rc = row[start:stop]
            cc = cand[start:stop]
            r2c = r2[:m]
            r2c[:] = 0.0
            for a in range(3):
                da = d[a][:m]
                np.take(px[a], rc, out=da, mode="clip")
                np.subtract(da, px[a][cc], out=da)
                if box.periodic:
                    t = ha[:m]
                    np.multiply(da, inv_len, out=t)
                    np.rint(t, out=t)
                    t *= -box.length
                    da += t
                r2c += da * da
            hac = ha[:m]
            hbc = hb[:m]
            np.take(h, rc, out=hac, mode="clip")
            np.take(h, cc, out=hbc, mode="clip")
            np.maximum(hac, hbc, out=hac)
            hac *= SUPPORT_RADIUS
            hac *= hac
            keep = r2c < hac
            if self.exclude_self:
                keep &= rc != cc
            kept_rows = np.compress(keep, rc)
            k = len(kept_rows)
            if not k:
                continue
            if count_idx is None:
                binned = kept_rows
            else:
                binned = np.compress(keep, count_idx[start:stop])
            # Bin over the chunk's label span only: streamed rows are
            # sorted, so this is O(chunk), not O(N), per chunk.
            lo = int(binned.min())
            span = np.bincount(binned - lo)
            self.counts[lo : lo + len(span)] += span
            self._extend(k)
            lo, hi = self.size, self.size + k
            self.row[lo:hi] = kept_rows
            self.cand[lo:hi] = np.compress(keep, cc)
            if self.want_geometry:
                for a in range(3):
                    self.dx[lo:hi, a] = np.compress(keep, d[a][:m])
                np.sqrt(np.compress(keep, r2c), out=self.r[lo:hi])
            self.size = hi

    def result(self) -> _Filtered:
        """``(counts, row, cand, dx, r)`` of everything fed so far."""
        k = self.size
        dx = self.dx[:k] if self.want_geometry else None
        r = self.r[:k] if self.want_geometry else None
        return self.counts, self.row[:k], self.cand[:k], dx, r


def _csr_filtered(
    pos: np.ndarray,
    h_search: np.ndarray,
    box: Box,
    pool: BufferPool,
    *,
    want_geometry: bool,
    out_prefix: str,
) -> _Filtered:
    """Self-excluding exact neighbors of every particle within ``h_search``.

    Filters each block of the :func:`_csr_candidates` stream as it is
    generated, so scratch is O(kept + chunk).  Returns
    :meth:`_CutoffFilter.result`, counts per particle.
    """
    filt = _CutoffFilter(
        pos, h_search, box, pool, exclude_self=True,
        out_prefix=out_prefix, want_geometry=want_geometry,
    )
    for row, cand in _csr_candidates(pos, h_search, box):
        filt.feed(row, cand)
    return filt.result()


def csr_neighbors(
    pos: np.ndarray,
    h: np.ndarray,
    box: Box,
    pool: BufferPool | None = None,
) -> CsrNeighborList:
    """Exact CSR neighbor search (one code path for every N).

    The returned arrays are views into ``pool`` (a private pool when
    ``None``), valid until the pool's next search.
    """
    n = len(pos)
    if n != len(h):
        raise SimulationError("pos and h length mismatch")
    if pool is None:
        pool = BufferPool()
    counts, row, cand, dx, r = _csr_filtered(
        pos, h, box, pool, want_geometry=True, out_prefix="cs_q"
    )
    offsets = pool.get("cs_qoff", n + 1, np.int64)
    offsets[0] = 0
    np.cumsum(counts, out=offsets[1:])
    return CsrNeighborList(
        offsets=offsets, indices=cand, row=row, dx=dx, r=r, n_particles=n
    )
