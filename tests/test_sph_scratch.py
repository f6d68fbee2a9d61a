"""Scratch memory of the SPH step: chunk invariance and pool bounds.

The neighbor search streams its raw candidates in blocks of at most
``neighbors._CHUNK`` rows and filters them in chunks of the same size, so
its result must not depend on that constant at all: every CSR array is
bitwise equal whatever the chunk, down to one row.  The buffer pools must
stay bounded by what is *kept* — the Verlet pool by the cached candidate
entries plus one chunk of filter scratch, the kernel pool by the slot
table's column count — never by the raw 27-cell candidate count.
"""

import numpy as np
import pytest

from repro.sph import neighbors
from repro.sph.box import Box
from repro.sph.driving import TurbulenceDriver
from repro.sph.hooks import ProfilingHooks
from repro.sph.initial_conditions import make_evrard, make_turbulence
from repro.sph.neighbors import csr_neighbors
from repro.sph.pair_cache import CsrVerletList
from repro.sph.propagator import Propagator

from tests.test_pair_cache import clone

CHUNKS = (1, 7, 1 << 10)
CSR_FIELDS = ("offsets", "indices", "row", "dx", "r")


def _case(name):
    """(pos, h, box) for a small configuration."""
    if name == "turbulence":  # periodic box
        ps, box = make_turbulence(n_side=4, seed=3)
        return ps.pos, ps.h, box
    if name == "evrard":  # open box
        ps, box = make_evrard(96, seed=2)
        return ps.pos, ps.h, box
    # Open box with isolated particles: empty CSR segments.
    rng = np.random.default_rng(5)
    pos = rng.uniform(-1.0, 1.0, size=(40, 3))
    pos[:4] = [[3.0, 3.0, 3.0], [-3.0, 3.0, -3.0], [3.0, -3.0, 0.0], [0.0, 0.0, 3.5]]
    h = rng.uniform(0.1, 0.3, size=40)
    return pos, h, Box(length=8.0, periodic=False)


CASES = ("turbulence", "evrard", "sparse")


def _snapshot(csr):
    return {f: np.array(getattr(csr, f), copy=True) for f in CSR_FIELDS}


def _assert_same(a, b):
    for f in CSR_FIELDS:
        assert a[f].dtype == b[f].dtype, f
        assert np.array_equal(a[f], b[f]), f


def _verlet_views(pos, h, box):
    """A cached list's build query, then its query after a relabeling."""
    nlist = CsrVerletList(box)
    first = _snapshot(nlist.query(pos, h))
    order = np.random.default_rng(11).permutation(len(pos))
    nlist.reorder(order)
    second = nlist.query(pos[order], h[order])
    assert nlist.n_builds == 1
    out = _snapshot(second)
    out["targets"] = second.targets.copy()
    return first, out


class TestChunkInvariance:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("case", CASES)
    def test_csr_neighbors_bitwise(self, monkeypatch, case, chunk):
        pos, h, box = _case(case)
        ref = _snapshot(csr_neighbors(pos, h, box))
        monkeypatch.setattr(neighbors, "_CHUNK", chunk)
        _assert_same(_snapshot(csr_neighbors(pos, h, box)), ref)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("case", CASES)
    def test_verlet_build_and_reordered_query_bitwise(
        self, monkeypatch, case, chunk
    ):
        pos, h, box = _case(case)
        ref_build, ref_query = _verlet_views(pos, h, box)
        monkeypatch.setattr(neighbors, "_CHUNK", chunk)
        got_build, got_query = _verlet_views(pos, h, box)
        _assert_same(got_build, ref_build)
        _assert_same(got_query, ref_query)
        assert np.array_equal(got_query["targets"], ref_query["targets"])

    def test_sparse_case_has_empty_segments(self):
        pos, h, box = _case("sparse")
        assert (csr_neighbors(pos, h, box).neighbor_counts() == 0).sum() >= 4

    def test_propagator_state_bitwise(self, monkeypatch):
        def run():
            ps, box = make_turbulence(n_side=5, seed=4)
            ps = clone(ps)
            prop = Propagator(box, driver=TurbulenceDriver(box, seed=1))
            hooks = ProfilingHooks()
            for _ in range(3):
                prop.step(ps, hooks)
            return ps

        ref = run()
        monkeypatch.setattr(neighbors, "_CHUNK", 7)
        got = run()
        for field in ("pos", "vel", "h", "u", "rho", "mass", "acc", "du"):
            assert np.array_equal(getattr(got, field), getattr(ref, field)), field


class TestPoolBounds:
    """After 3 steps of 12^3 turbulence the pools hold what is live."""

    #: Per-entry float64 columns of the kernel slot table (see
    #: ``CsrStepContext``): 11 memoized, 2 kernel temporaries, the 9-wide
    #: matrix gather, 8 scalar and 3 vector phase slots = 39, plus one
    #: column of slack.
    KERNEL_COLUMNS = 40

    @pytest.fixture(scope="class")
    def run(self):
        ps, box = make_turbulence(n_side=12, seed=3)
        prop = Propagator(box, driver=TurbulenceDriver(box, seed=1))
        hooks = ProfilingHooks()
        max_entries = 0
        for _ in range(3):
            stats = prop.step(ps, hooks)
            max_entries = max(max_entries, 2 * stats.n_pairs)
        return prop, ps.n, max_entries

    def test_verlet_pool_bounded_by_kept_entries(self, run):
        prop, n, _ = run
        nlist = prop.neighbor_list
        # 64 B per cached entry covers the build output (8 B), the
        # relabeled copy (8 B) and the exact query's survivors (<= 40 B
        # per survivor, about half the cached entries), with pool headroom.
        # The chunk allowance covers the six 8 B filter temporaries; the
        # O(N) term the offsets.
        chunk_allowance = 6 * 8 * (neighbors._CHUNK * 5 // 4 + 16)
        bound = 64 * len(nlist._cand) + chunk_allowance + 32 * n
        assert nlist.pool.nbytes() <= bound

    def test_kernel_pool_bounded_by_slot_columns(self, run):
        prop, _, max_entries = run
        per_column = 8 * (max_entries * 5 // 4 + 16)
        assert prop._kernel_pool.nbytes() <= self.KERNEL_COLUMNS * per_column
