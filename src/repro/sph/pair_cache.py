"""The per-step pair pipeline cache (Verlet skin list + kernel memoization).

One reuse layer sits between the neighbor search and the physics kernels,
mirroring how SPH-EXA earns its throughput: the CSR/SoA engine
(:class:`CsrVerletList` + :class:`CsrStepContext`).
Neighbors live in a flat CSR structure
(:class:`~repro.sph.neighbors.CsrNeighborList`); per-pair kernel values
and IAD gradient vectors are evaluated once per step into preallocated,
reused buffers; per-particle sums run as *segment reductions*
(``np.add.reduceat`` over the CSR offsets) instead of scatter-adds.  The
skin-cached candidate structure survives the SFC relabeling of
``DomainDecompAndSync`` by composing the per-step permutation into a
build-label -> current-label map — an O(N) update — rather than
re-sorting the O(N k) flat arrays.

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


class CsrStepContext:
    """SoA kernel engine over one step's CSR neighbor list.

    Wraps a :class:`~repro.sph.neighbors.CsrNeighborList` plus the
    smoothing lengths the step runs with, and lazily evaluates,
    once per step into pooled buffers, the per-entry kernel values
    (``w_own`` = ``W(r, h_row)``, ``w_other`` = ``W(r, h_col)``), the
    ``dW/dh`` values, and the IAD gradient vectors.  Per-particle sums
    run as float64 segment reductions over the CSR offsets
    (:meth:`reduce_sum` / :meth:`reduce_sum_rows` / :meth:`reduce_max`),
    scattered through the segment-to-particle map when the list's
    segments are in build order.  Every per-entry array is float64.

    The cubic-spline kernel shape
    (:class:`~repro.sph.kernels.cubic_spline.CubicSplineKernel`) is
    evaluated branchlessly in the buffers via ::

        w(q)  = 0.25 max(2-q, 0)^3 - max(1-q, 0)^3
        w'(q) = -0.75 max(2-q, 0)^2 + 3 max(1-q, 0)^2

    (algebraically identical to the piecewise definition on [0, 2] and
    zero beyond).

    Per-entry buffers come from a small table of pool slots shared by
    liveness rather than one name per temporary.  A slot's view is valid
    until the slot is requested again, so each slot has one owner at a
    time:

    ============  =====  ================================================
    slot          cols   holds
    ============  =====  ================================================
    ct_wown        1     ``w_own`` (memoized for the step)
    ct_woth        1     ``w_other`` (memoized)
    ct_dhown       1     ``dwdh_own`` (memoized; grad-h runs only)
    ct_d           3     ``d`` (memoized)
    ct_aown/aoth   3+3   the IAD vectors (memoized per matrix set)
    ct_t0..ct_t3   1     temporaries of one kernel evaluation
    ct_cb          9     the matrix gather of :meth:`iad_vectors`; lent
                         to IADVelocityDivCurl's tau geometry (6 cols),
                         which is reduced before the vectors are built
    ph_s0..ph_s6   1     a physics function's per-entry scalars
    ph_v0, ph_v1   3     its per-entry vectors
    ph_vt          3     a gathered vector operand consumed by the next
                         operation, or a term folded into a reduction
    ph_g           1     a gathered scalar operand consumed by the next
                         operation
    ============  =====  ================================================

    Memoized quantities own their slots for the whole step; ``ct_t*`` and
    ``ct_cb`` live only inside one memo evaluation, which uses no
    ``ph_*`` slot, so a memo may be evaluated lazily in the middle of a
    physics function.  ``ph_*`` slots live only inside one physics
    function; each function's slot assignment is commented at its use.
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
        # Reduction plan, shared by every reduction this step: the
        # non-empty segments (``np.add.reduceat`` returns ``values[start]``,
        # not 0, for an empty one) and the particles they scatter to.
        starts = csr.offsets[:-1]
        nonempty = starts < csr.offsets[1:]
        self._red_idx = starts[nonempty]
        seg = np.flatnonzero(nonempty)
        self._out_rows = seg if csr.targets is None else csr.targets[seg]
        self._d: np.ndarray | None = None
        self._w_own: np.ndarray | None = None
        self._w_other: np.ndarray | None = None
        self._dwdh_own: np.ndarray | None = None
        self._iad_key: np.ndarray | None = None
        self._iad: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n_particles(self) -> int:
        return self.csr.n_particles

    @property
    def d(self) -> np.ndarray:
        """``x_col - x_row`` per entry (``-dx``), the IAD direction."""
        if self._d is None:
            buf = self.pool.rows("ct_d", self.nnz, 3, np.float64)
            np.negative(self.csr.dx, out=buf)
            self._d = buf
        return self._d

    # -- gathers ---------------------------------------------------------------

    def _idx(self, side: str) -> np.ndarray:
        return self.csr.row if side == "row" else self.csr.indices

    def gather(self, arr: np.ndarray, side: str, name: str) -> np.ndarray:
        """Per-entry gather ``arr[row]`` or ``arr[col]`` into a pooled buffer."""
        buf = self.pool.get(name, self.nnz, np.float64)
        np.take(arr, self._idx(side), out=buf, mode="clip")
        return buf

    def gather_rows(self, arr: np.ndarray, side: str, name: str) -> np.ndarray:
        """Per-entry gather of ``(n, m)`` rows into a pooled buffer."""
        m = arr.shape[1]
        buf = self.pool.rows(name, self.nnz, m, np.float64)
        np.take(arr, self._idx(side), axis=0, out=buf, mode="clip")
        return buf

    def scratch(self, name: str, width: int = 1) -> np.ndarray:
        """A pooled per-entry float64 scratch array."""
        if width == 1:
            return self.pool.get(name, self.nnz, np.float64)
        return self.pool.rows(name, self.nnz, width, np.float64)

    # -- kernel evaluations ----------------------------------------------------

    def _kernel_value(self, side: str, name: str) -> np.ndarray:
        """``W(r, h_side)`` per entry into the named buffer."""
        q = self.pool.get(name, self.nnz, np.float64)
        hb = self.gather(self.h, side, "ct_t0")
        t1 = self.pool.get("ct_t1", self.nnz, np.float64)
        np.divide(self.csr.r, hb, out=q)
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

    def _kernel_dh(self, side: str, name: str) -> np.ndarray:
        """``dW/dh`` per entry into the named buffer."""
        out = self.pool.get(name, self.nnz, np.float64)
        hb = self.gather(self.h, side, "ct_t0")
        q = self.pool.get("ct_t1", self.nnz, np.float64)
        t1 = self.pool.get("ct_t2", self.nnz, np.float64)
        t2 = self.pool.get("ct_t3", self.nnz, np.float64)
        np.divide(self.csr.r, hb, out=q)
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
            self._w_own = self._kernel_value("row", "ct_wown")
        return self._w_own

    @property
    def w_other(self) -> np.ndarray:
        """``W(r, h_col)`` per entry (memoized)."""
        if self._w_other is None:
            self._w_other = self._kernel_value("col", "ct_woth")
        return self._w_other

    @property
    def dwdh_own(self) -> np.ndarray:
        """``dW/dh`` at ``h_row`` per entry (memoized)."""
        if self._dwdh_own is None:
            self._dwdh_own = self._kernel_dh("row", "ct_dhown")
        return self._dwdh_own

    def iad_vectors(self, c_iad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``A_row,k`` and ``A_col,k`` per entry (memoized per matrix set).

        Both point along ``x_col - x_row``; mirrored entries produce
        exactly negated vectors.
        """
        if self._iad is None or self._iad_key is not c_iad:
            d = self.d
            c_src = c_iad.reshape(len(c_iad), 9)
            a_own = self.pool.rows("ct_aown", self.nnz, 3, np.float64)
            a_oth = self.pool.rows("ct_aoth", self.nnz, 3, np.float64)
            cb = self.pool.rows("ct_cb", self.nnz, 9, np.float64)
            np.take(c_src, self.csr.row, axis=0, out=cb, mode="clip")
            np.einsum(
                "kab,kb->ka", cb.reshape(self.nnz, 3, 3), d, out=a_own
            )
            a_own *= self.w_own[:, None]
            np.take(c_src, self.csr.indices, axis=0, out=cb, mode="clip")
            np.einsum(
                "kab,kb->ka", cb.reshape(self.nnz, 3, 3), d, out=a_oth
            )
            a_oth *= self.w_other[:, None]
            self._iad = (a_own, a_oth)
            self._iad_key = c_iad
        return self._iad

    # -- segment reductions ----------------------------------------------------

    def reduce_sum(self, values: np.ndarray) -> np.ndarray:
        """Float64 segment sum to per-particle bins (empty rows -> 0)."""
        out = np.zeros(self.n_particles, dtype=np.float64)
        if len(self._red_idx):
            out[self._out_rows] = np.add.reduceat(
                values, self._red_idx, dtype=np.float64
            )
        return out

    def reduce_sum_rows(self, values: np.ndarray) -> np.ndarray:
        """Float64 segment sum of ``(nnz, m)`` rows to ``(n, m)``."""
        out = np.zeros((self.n_particles, values.shape[1]), dtype=np.float64)
        if len(self._red_idx):
            out[self._out_rows] = np.add.reduceat(
                values, self._red_idx, axis=0, dtype=np.float64
            )
        return out

    def reduce_max(self, values: np.ndarray) -> np.ndarray:
        """Per-particle segment maximum (empty rows -> 0)."""
        out = np.zeros(self.n_particles, dtype=np.float64)
        if len(self._red_idx):
            out[self._out_rows] = np.maximum.reduceat(values, self._red_idx)
        return out
