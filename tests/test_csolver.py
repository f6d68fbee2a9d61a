"""Contract tests for the compiled C fast path (:mod:`repro.sph.csolver`).

The compiled layer carries a two-tier numerical contract:

* the **neighbor filter** (both the flat-candidate filter and the fused
  cell walk) performs the identical IEEE operations in the identical
  order as the NumPy path, so its output is **bitwise equal**;
* the **physics kernels** reassociate reductions, so whole-step results
  agree with the NumPy engine to a few ULP (scaled deviation <= 1e-12
  over multiple steps).

All compiled tests skip cleanly when no C toolchain is available; the
``resolve()`` mode tests run everywhere.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sph import csolver
from repro.sph.box import Box
from repro.sph.driving import TurbulenceDriver
from repro.sph.initial_conditions import make_sedov, make_turbulence
from repro.sph import neighbors
from repro.sph.neighbors import (
    BufferPool,
    _csr_candidates,
    _csr_filtered,
    _csr_filtered_fused,
    _filter_candidates,
    csr_neighbors,
)
from repro.sph.physics.iad import _assemble_tau, _invert_tau
from repro.sph.propagator import Propagator

from tests.test_pair_cache import clone, make_case

LIB = csolver.load()

needs_lib = pytest.mark.skipif(
    LIB is None, reason="no C toolchain (or REPRO_SPH_CFAST disabled)"
)

CASES = ("turbulence", "sedov", "open")


def _search_radii(ps):
    return ps.h * 1.0  # the filter scales by SUPPORT_RADIUS internally


def _flat_candidates(pos, h_search, box):
    """The NumPy candidate stream concatenated into flat arrays."""
    blocks = list(_csr_candidates(pos, h_search, box))
    return (
        np.concatenate([row for row, _ in blocks]),
        np.concatenate([cand for _, cand in blocks]),
    )


class TestResolve:
    def test_numpy_never_compiles(self):
        assert csolver.resolve("numpy") is None

    def test_bad_mode_rejected(self):
        with pytest.raises(SimulationError):
            csolver.resolve("fortran")

    def test_c_without_toolchain_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPH_CFAST", "0")
        with pytest.raises(SimulationError):
            csolver.resolve("c")

    def test_auto_falls_back_silently(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPH_CFAST", "0")
        assert csolver.resolve("auto") is None

    @needs_lib
    def test_c_resolves_to_library(self):
        assert csolver.resolve("c") is LIB
        assert csolver.resolve("auto") is LIB


class TestLabelGuard:
    def test_label_requires_compiled_filter(self):
        ps, box = make_case("turbulence")
        pool = BufferPool()
        h_search = _search_radii(ps)
        row, cand = _flat_candidates(ps.pos, h_search, box)
        with pytest.raises(SimulationError):
            _filter_candidates(
                ps.pos, ps.h, box, row, cand, pool,
                exclude_self=True, out_prefix="t_", want_geometry=False,
                cfast=None, label=np.arange(len(ps.pos), dtype=np.int32),
            )


@needs_lib
class TestFilterBitwise:
    """The compiled exact filter is bitwise equal to the NumPy filter."""

    @pytest.mark.parametrize("case", CASES)
    def test_flat_filter_bitwise(self, case):
        ps, box = make_case(case)
        h_search = _search_radii(ps)
        ref_pool, c_pool = BufferPool(), BufferPool()

        row_n, cand_n = _flat_candidates(ps.pos, h_search, box)
        ref = _filter_candidates(
            ps.pos, ps.h, box, row_n, cand_n, ref_pool,
            exclude_self=True, out_prefix="r_", want_geometry=True,
            cfast=None,
        )
        row_c, cand_c = _flat_candidates(ps.pos, h_search, box)
        got = _filter_candidates(
            ps.pos, ps.h, box, row_c, cand_c, c_pool,
            exclude_self=True, out_prefix="c_", want_geometry=True,
            cfast=LIB,
        )
        for r, g in zip(ref, got):
            assert np.array_equal(r, g)

    @pytest.mark.parametrize("case", CASES)
    def test_fused_cell_filter_bitwise(self, case):
        ps, box = make_case(case)
        h_search = _search_radii(ps)
        ref_pool, c_pool = BufferPool(), BufferPool()

        ref = _csr_filtered(
            ps.pos, h_search, box, ref_pool,
            want_geometry=True, out_prefix="r_",
        )
        got = _csr_filtered_fused(
            ps.pos, h_search, box, c_pool, LIB,
            want_geometry=True, out_prefix="f_",
        )
        for r, g in zip(ref, got):
            assert np.array_equal(r, g)


    @pytest.mark.parametrize("case", CASES)
    def test_fused_cell_filter_bitwise_in_small_blocks(self, monkeypatch, case):
        """Blocks of a few candidates: each output grows block by block."""
        ps, box = make_case(case)
        h_search = _search_radii(ps)
        ref = _csr_filtered(
            ps.pos, h_search, box, BufferPool(),
            want_geometry=True, out_prefix="r_",
        )
        monkeypatch.setattr(neighbors, "_CHUNK", 7)
        got = _csr_filtered_fused(
            ps.pos, h_search, box, BufferPool(), LIB,
            want_geometry=True, out_prefix="f_",
        )
        for r, g in zip(ref, got):
            assert np.array_equal(r, g)


class _RecordingPool(BufferPool):
    """A pool that records the most rows any one request asked for."""

    def __init__(self):
        super().__init__()
        self.max_rows = 0

    def get(self, name, size, dtype):
        rows = size // 3 if name.endswith("dx") else size
        self.max_rows = max(self.max_rows, rows)
        return super().get(name, size, dtype)


@needs_lib
def test_fused_walk_outputs_bounded_by_kept_plus_one_chunk():
    """``accel="c"`` neighbor search at N = 4096: the fused walk's outputs
    hold at most the kept pairs plus one chunk, never one row per raw
    candidate (about ten times the kept count)."""
    ps, box = make_turbulence(n_side=16)
    pool = _RecordingPool()
    got = csr_neighbors(ps.pos, ps.h, box, pool, cfast=LIB)
    kept = len(got.row)
    assert pool.max_rows <= kept + neighbors._CHUNK
    want = csr_neighbors(ps.pos, ps.h, box)
    for name in ("offsets", "indices", "row", "dx", "r"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@needs_lib
class TestTauInvert:
    def test_matches_numpy_regularized_inverse(self):
        rng = np.random.default_rng(11)
        entries = rng.normal(0.0, 1.0, size=(64, 6))
        # Make most matrices well-conditioned (diagonally dominant)...
        entries[:, 0] += 4.0
        entries[:, 3] += 4.0
        entries[:, 5] += 4.0
        # ...but force a few through the regularization branch.
        entries[:4] = 0.0
        entries[4, :] = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]  # rank-deficient

        got = csolver.tau_invert(LIB, entries)
        want = _invert_tau(_assemble_tau(entries, len(entries)))
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) / scale < 1e-12


@needs_lib
class TestPropagatorEquivalence:
    """Whole-step physics through the C engine matches NumPy to <= 1e-12."""

    @staticmethod
    def _run(ps, box, accel, driver=None):
        prop = Propagator(box, driver=driver, accel=accel)
        from repro.sph.hooks import ProfilingHooks

        for _ in range(3):
            prop.step(ps, ProfilingHooks())
        return ps

    @staticmethod
    def _assert_close(a, b):
        for field in ("pos", "vel", "u", "rho", "h", "acc", "du"):
            x = getattr(a, field)
            y = getattr(b, field)
            scale = max(np.max(np.abs(x)), 1e-300)
            assert np.max(np.abs(x - y)) / scale < 1e-12, field

    def test_turbulence_with_driver(self):
        ps, box = make_turbulence(n_side=6, seed=2)
        ps_n = self._run(clone(ps), box, "numpy", TurbulenceDriver(box, seed=1))
        ps_c = self._run(clone(ps), box, "c", TurbulenceDriver(box, seed=1))
        self._assert_close(ps_n, ps_c)

    def test_sedov(self):
        ps, box = make_sedov(n_side=6, seed=3)
        ps_n = self._run(clone(ps), box, "numpy")
        ps_c = self._run(clone(ps), box, "auto")
        self._assert_close(ps_n, ps_c)
