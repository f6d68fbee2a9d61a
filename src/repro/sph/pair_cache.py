"""The per-step pair pipeline cache (Verlet skin list + kernel memoization).

One reuse layer sits between the neighbor search and the physics kernels,
mirroring how SPH-EXA earns its throughput: the CSR/SoA engine
(:class:`CsrVerletList` + :class:`CsrStepContext`).
Neighbors live in a flat CSR structure
(:class:`~repro.sph.neighbors.CsrNeighborList`); the pair kernels run
over row-aligned blocks of entries in reused, block-sized buffers; the
kernel values and IAD gradient vectors are evaluated once per step; and
per-particle sums run as *segment reductions* (``np.add.reduceat`` over
the CSR offsets) instead of scatter-adds.  The skin-cached candidate
structure survives the SFC relabeling of ``DomainDecompAndSync`` by
composing the per-step permutation into a build-label -> current-label
map — an O(N) update — rather than re-sorting the O(N k) flat arrays.

The Verlet list's caching contract: the neighbor search runs with an
inflated cutoff ``2 max(h_i, h_j) + skin`` and the candidate list is
reused until particles have moved (or smoothing lengths have grown)
enough to possibly change the answer — the classic ``max_disp > skin/2``
criterion, extended with an ``h``-growth term so adaptive smoothing
lengths can never invalidate the cache silently.  Each query re-filters
the cached candidates against the *exact* per-pair cutoff, so the
returned neighbor set is identical to a fresh search (the property tests
assert this).

The tests compare the engine against directed scatter-add kernels over
an O(N^2) brute-force pair list, kept under ``tests/oracles/``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sph.box import Box
from repro.sph.kernels.cubic_spline import _SIGMA_3D, SUPPORT_RADIUS
from repro.sph.neighbors import (
    BufferPool,
    CsrNeighborList,
    _csr_filtered,
    _CutoffFilter,
    csr_neighbors,
)

#: Default Verlet skin, as a fraction of the mean kernel support.
DEFAULT_SKIN_FACTOR = 0.3


# -- the CSR Verlet skin list --------------------------------------------------


class CsrVerletList:
    """Skin-cached CSR neighbor lists over preallocated, reused buffers.

    Parameters
    ----------
    box:
        Simulation box (periodic displacement handling).
    skin_factor:
        Skin width as a fraction of the mean kernel support
        (``skin = skin_factor * 2 * mean(h)`` at build time).  ``0``
        disables caching: every query is a fresh search.

    Notes
    -----
    The rebuild criterion tracks, per particle, an *effective* drift ::

        e_i = |x_i - x_i^build| + 2 * max(h_i - h_i^build, 0)

    and rebuilds when ``max_i e_i > skin / 2``.  The displacement term is
    the textbook Verlet condition (two particles approaching each other
    contribute ``skin/2`` each); the second term accounts for per-pair
    cutoff growth when smoothing lengths adapt, so the criterion subsumes
    "``h`` grew past the cached cutoff" exactly rather than via the
    global maximum.  Shrinking ``h`` never forces a rebuild.

    A build streams the raw cell-grid candidates in blocks, filtering
    each by the inflated cutoff as it is generated, so the cached arrays
    (pool ``vl_b*``) and every scratch buffer are sized to the kept
    candidates plus one fixed chunk, never to the ~10x larger raw
    candidate count.  A query against a valid cache re-filters the
    candidates by the exact per-pair cutoff ``2 max(h_i, h_j)`` and
    compacts the survivors into pooled buffers sized to what is kept
    (``vl_q*``), so the returned list always equals a fresh search's
    and steady-state queries perform no O(pairs) allocations.

    The candidate arrays are stored in *build labels*.  Each
    ``reorder(order)`` composes the step's SFC permutation into a
    build-label -> current-label map (O(N)); queries translate the
    candidate indices through that map (two flat gathers, only after a
    relabeling) and publish the segment-to-particle map as
    ``CsrNeighborList.targets``.  This keeps the skin cache valid across
    the per-step relabelings without ever re-sorting the flat arrays.
    """

    def __init__(
        self,
        box: Box,
        skin_factor: float = DEFAULT_SKIN_FACTOR,
    ) -> None:
        if skin_factor < 0:
            raise SimulationError(
                f"skin factor must be non-negative, got {skin_factor!r}"
            )
        self.box = box
        self.skin_factor = skin_factor
        #: Number of candidate-structure (re)builds performed.
        self.n_builds = 0
        #: Number of queries served (builds + cache reuses).
        self.n_queries = 0
        self.pool = BufferPool()
        self._row: np.ndarray | None = None  # build labels, per entry
        self._cand: np.ndarray | None = None  # build labels, per entry
        self._ref_pos: np.ndarray | None = None  # build order
        self._ref_h: np.ndarray | None = None  # build order
        self._cur_label: np.ndarray | None = None  # None = identity
        self._row_cur: np.ndarray | None = None
        self._cand_cur: np.ndarray | None = None
        self._trans_dirty = True
        self._skin = 0.0
        self._n = 0

    @property
    def rebuild_fraction(self) -> float:
        """Builds per query (1.0 = no amortization yet)."""
        return self.n_builds / self.n_queries if self.n_queries else 0.0

    def invalidate(self) -> None:
        """Drop the cached candidate structure (next query rebuilds)."""
        self._row = None
        self._cand = None
        self._ref_pos = None
        self._ref_h = None
        self._cur_label = None
        self._trans_dirty = True

    def reorder(self, order: np.ndarray) -> None:
        """Follow a particle permutation (``new[k] = old[order[k]]``).

        O(N): the inverse permutation is composed into the label map;
        the O(N k) candidate arrays are not touched.
        """
        if self._row is None:
            return
        if len(order) != self._n:
            self.invalidate()
            return
        inverse = np.empty(self._n, dtype=np.int32)
        inverse[order] = np.arange(self._n, dtype=np.int32)
        if self._cur_label is None:
            self._cur_label = inverse
        else:
            self._cur_label = inverse[self._cur_label]
        self._trans_dirty = True

    def query(self, pos: np.ndarray, h: np.ndarray) -> CsrNeighborList:
        """Exact CSR neighbor list for the current positions and supports.

        The returned arrays are views into this list's buffer pool,
        valid until the next query.
        """
        self.n_queries += 1
        if self.skin_factor == 0.0:
            # No skin: every query is a fresh exact search.
            self.n_builds += 1
            return csr_neighbors(pos, h, self.box, self.pool)
        if self._needs_rebuild(pos, h):
            self._build(pos, h)
        if self._cur_label is None:
            row_cur, cand_cur, count_idx, targets = self._row, self._cand, None, None
        else:
            if self._trans_dirty:
                nnz = len(self._cand)
                self._row_cur = self.pool.get("vl_rowc", nnz, np.int32)
                self._cand_cur = self.pool.get("vl_candc", nnz, np.int32)
                np.take(self._cur_label, self._row, out=self._row_cur, mode="clip")
                np.take(self._cur_label, self._cand, out=self._cand_cur, mode="clip")
                self._trans_dirty = False
            row_cur, cand_cur = self._row_cur, self._cand_cur
            count_idx, targets = self._row, self._cur_label
        # Counts bin by build label (count_idx) while the geometry gathers
        # by current label.
        filt = _CutoffFilter(
            pos, h, self.box, self.pool, exclude_self=False,
            out_prefix="vl_q", want_geometry=True,
        )
        filt.feed(row_cur, cand_cur, count_idx)
        counts, qrow, qcand, qdx, qr = filt.result()
        offsets = self.pool.get("vl_qoff", self._n + 1, np.int64)
        offsets[0] = 0
        np.cumsum(counts, out=offsets[1:])
        return CsrNeighborList(
            offsets=offsets, indices=qcand, row=qrow, dx=qdx, r=qr,
            n_particles=self._n, targets=targets,
        )

    def _needs_rebuild(self, pos: np.ndarray, h: np.ndarray) -> bool:
        if self._row is None or len(pos) != self._n:
            return True
        if self._cur_label is None:
            pos_b, h_b = pos, h
        else:
            pos_b = pos[self._cur_label]
            h_b = h[self._cur_label]
        drift = self.box.displacement(pos_b - self._ref_pos)
        effective = np.sqrt(np.einsum("ij,ij->i", drift, drift))
        effective += SUPPORT_RADIUS * np.maximum(h_b - self._ref_h, 0.0)
        return bool(effective.max() > 0.5 * self._skin)

    def _build(self, pos: np.ndarray, h: np.ndarray) -> None:
        self.n_builds += 1
        self._n = len(pos)
        self._skin = self.skin_factor * SUPPORT_RADIUS * float(np.mean(h))
        # Inflating every h by skin/2h-units makes the per-pair candidate
        # cutoff exactly 2 max(h_i, h_j) + skin.
        h_search = h + self._skin / SUPPORT_RADIUS
        _, self._row, self._cand, _, _ = _csr_filtered(
            pos, h_search, self.box, self.pool,
            want_geometry=False, out_prefix="vl_b",
        )
        self._ref_pos = pos.copy()
        self._ref_h = h.copy()
        self._cur_label = None
        self._trans_dirty = True


# -- the CSR/SoA kernel engine -------------------------------------------------

#: Entries per block of the kernel loops.  A block holds whole CSR
#: segments, so a segment longer than this is a block of its own.
_BLOCK = 8192


class _Block:
    """One row-aligned block of CSR entries, ``[lo, hi)``: whole segments.

    ``row``/``col``/``dx``/``r`` are views of the list's arrays over the
    block; ``red`` holds the block-local starts of its non-empty segments
    and ``rows`` the particles they reduce to.  Scratch comes from the
    context's pool, sized to the block; a view is valid until the same
    name is requested again.
    """

    __slots__ = ("lo", "hi", "row", "col", "dx", "r", "red", "rows", "pool")

    def __init__(
        self,
        csr: CsrNeighborList,
        lo: int,
        hi: int,
        red: np.ndarray,
        rows: np.ndarray,
        pool: BufferPool,
    ) -> None:
        self.lo, self.hi = lo, hi
        self.row = csr.row[lo:hi]
        self.col = csr.indices[lo:hi]
        self.dx = csr.dx[lo:hi]
        self.r = csr.r[lo:hi]
        self.red = red - lo
        self.rows = rows
        self.pool = pool

    def scratch(self, name: str, width: int = 1) -> np.ndarray:
        """A pooled float64 block array, ``(n,)`` or ``(n, width)``."""
        if width == 1:
            return self.pool.get(name, self.hi - self.lo, np.float64)
        return self.pool.rows(name, self.hi - self.lo, width, np.float64)

    def gather(self, arr: np.ndarray, side: str, name: str) -> np.ndarray:
        """Per-entry gather ``arr[row]`` or ``arr[col]`` (1-D or rows)."""
        buf = self.scratch(name, 1 if arr.ndim == 1 else arr.shape[1])
        idx = self.row if side == "row" else self.col
        np.take(arr, idx, axis=0, out=buf, mode="clip")
        return buf

    def sum_into(self, out: np.ndarray, values: np.ndarray) -> None:
        """Float64 segment sums of ``values`` into their particles' rows."""
        out[self.rows] = np.add.reduceat(values, self.red, axis=0, dtype=np.float64)

    def max_into(self, out: np.ndarray, values: np.ndarray) -> None:
        """Segment maxima of ``values`` into their particles' rows."""
        out[self.rows] = np.maximum.reduceat(values, self.red)


class CsrStepContext:
    """SoA kernel engine over one step's CSR neighbor list.

    Wraps a :class:`~repro.sph.neighbors.CsrNeighborList` plus the
    smoothing lengths the step runs with.  Every pair kernel runs as a
    loop over :attr:`blocks`: row-aligned blocks of about :data:`_BLOCK`
    entries, each holding whole CSR segments (a longer segment is a block
    of its own; empty segments belong to none).  Per-entry temporaries
    are pooled block-sized scratch (:meth:`_Block.scratch`), and
    per-particle sums are float64 segment reductions of one block at a
    time (:meth:`_Block.sum_into` / :meth:`_Block.max_into`), scattered
    through the segment-to-particle map.  Every per-entry array is
    float64.

    The values that several kernel functions read stay full-length and
    are evaluated lazily, once per step, block by block: the kernel
    values ``w_own`` = ``W(r, h_row)`` and the IAD gradient vectors (per
    matrix set).  A value with one reader is evaluated per block where it
    is read: ``W(r, h_col)`` (:meth:`kernel_value`) inside
    :meth:`iad_vectors`, ``dW/dh`` (:meth:`kernel_dh`) inside grad-h.  The
    kernel pool therefore holds those memos, seven per-entry columns,
    plus O(block) scratch.

    Blocking cannot move a bit.  A segment never straddles two blocks, so
    each ``reduceat`` segment reduces the same values in the same order
    as over the whole list; every other operation (gathers, arithmetic,
    the per-entry einsums) acts on each entry alone.  The results are
    independent of :data:`_BLOCK` (``tests/test_sph_scratch.py`` runs it
    at one entry, a mid value and the whole list).

    The cubic-spline kernel shape
    (:class:`~repro.sph.kernels.cubic_spline.CubicSplineKernel`) is
    evaluated branchlessly via ::

        w(q)  = 0.25 max(2-q, 0)^3 - max(1-q, 0)^3
        w'(q) = -0.75 max(2-q, 0)^2 + 3 max(1-q, 0)^2

    (algebraically identical to the piecewise definition on [0, 2] and
    zero beyond).
    """

    def __init__(
        self,
        csr: CsrNeighborList,
        h: np.ndarray,
        pool: BufferPool | None = None,
    ) -> None:
        self.csr = csr
        self.h = h
        self.pool = pool if pool is not None else BufferPool()
        self.nnz = csr.n_pairs
        # The non-empty segments (``np.add.reduceat`` returns
        # ``values[start]``, not 0, for an empty one), the particles they
        # scatter to, and the entry where each ends.
        starts = csr.offsets[:-1]
        ends = csr.offsets[1:]
        nonempty = starts < ends
        red_idx, ends = starts[nonempty], ends[nonempty]
        seg = np.flatnonzero(nonempty)
        out_rows = seg if csr.targets is None else csr.targets[seg]
        #: The step's row-aligned entry blocks, in entry order.
        self.blocks: list[_Block] = []
        j0 = 0
        while j0 < len(red_idx):
            lo = int(red_idx[j0])
            j1 = max(int(np.searchsorted(ends, lo + _BLOCK, side="right")), j0 + 1)
            self.blocks.append(
                _Block(
                    csr, lo, int(ends[j1 - 1]), red_idx[j0:j1],
                    out_rows[j0:j1], self.pool,
                )
            )
            j0 = j1
        self._w_own: np.ndarray | None = None
        self._iad_key: np.ndarray | None = None
        self._iad: tuple[np.ndarray, np.ndarray] | None = None

    # -- kernel evaluations ----------------------------------------------------

    def kernel_value(self, b: _Block, side: str, q: np.ndarray) -> np.ndarray:
        """``W(r, h_side)`` over block ``b`` into ``q``."""
        hb = b.gather(self.h, side, "ct_t0")
        t1 = b.scratch("ct_t1")
        np.divide(b.r, hb, out=q)
        np.subtract(1.0, q, out=t1)
        np.maximum(t1, 0.0, out=t1)
        t1 *= t1 * t1
        np.subtract(2.0, q, out=q)
        np.maximum(q, 0.0, out=q)
        q *= q * q
        q *= 0.25
        q -= t1
        hb *= hb * hb
        q /= hb
        q *= _SIGMA_3D
        return q

    def kernel_dh(self, b: _Block, out: np.ndarray) -> np.ndarray:
        """``dW/dh`` at ``h_row`` over block ``b`` into ``out``."""
        hb = b.gather(self.h, "row", "ct_t0")
        q = b.scratch("ct_t1")
        t1 = b.scratch("ct_t2")
        t2 = b.scratch("ct_t3")
        np.divide(b.r, hb, out=q)
        np.subtract(1.0, q, out=t1)
        np.maximum(t1, 0.0, out=t1)
        np.subtract(2.0, q, out=t2)
        np.maximum(t2, 0.0, out=t2)
        t1s = t1 * t1
        t2s = t2 * t2
        # dw = -0.75 t2^2 + 3 t1^2 ; w = 0.25 t2^3 - t1^3
        np.multiply(t1s, 3.0, out=out)
        out -= 0.75 * t2s
        out *= q  # q * dw
        t2s *= t2
        t2s *= 0.25
        t1s *= t1
        t2s -= t1s  # w
        t2s *= 3.0
        out += t2s  # 3 w + q dw
        hb *= hb
        hb *= hb  # h^4
        out /= hb
        out *= -_SIGMA_3D
        return out

    @property
    def w_own(self) -> np.ndarray:
        """``W(r, h_row)`` per entry (memoized)."""
        if self._w_own is None:
            out = self.pool.get("ct_wown", self.nnz, np.float64)
            for b in self.blocks:
                self.kernel_value(b, "row", out[b.lo:b.hi])
            self._w_own = out
        return self._w_own

    def iad_vectors(self, c_iad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``A_row,k`` and ``A_col,k`` per entry (memoized per matrix set).

        Both point along ``d = x_col - x_row = -dx``; mirrored entries
        produce exactly negated vectors.
        """
        if self._iad is None or self._iad_key is not c_iad:
            w_own = self.w_own
            c_src = c_iad.reshape(len(c_iad), 9)
            a_own = self.pool.rows("ct_aown", self.nnz, 3, np.float64)
            a_oth = self.pool.rows("ct_aoth", self.nnz, 3, np.float64)
            for b in self.blocks:
                n, e = b.hi - b.lo, slice(b.lo, b.hi)
                d = np.negative(b.dx, out=b.scratch("ct_d", 3))
                cb = b.gather(c_src, "row", "ct_cb").reshape(n, 3, 3)
                np.einsum("kab,kb->ka", cb, d, out=a_own[e])
                a_own[e] *= w_own[e, None]
                cb = b.gather(c_src, "col", "ct_cb").reshape(n, 3, 3)
                np.einsum("kab,kb->ka", cb, d, out=a_oth[e])
                w_oth = self.kernel_value(b, "col", b.scratch("ct_w"))
                a_oth[e] *= w_oth[:, None]
            self._iad = (a_own, a_oth)
            self._iad_key = c_iad
        return self._iad
