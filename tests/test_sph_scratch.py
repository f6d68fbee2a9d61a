"""Scratch memory of the SPH step: chunk and block invariance, pool bounds.

The neighbor search streams its raw candidates in blocks of at most
``neighbors._CHUNK`` rows and filters them in chunks of the same size, so
its result must not depend on that constant at all: every CSR array is
bitwise equal whatever the chunk, down to one row.  Likewise the pair
kernels run over row-aligned blocks of about ``pair_cache._BLOCK``
entries, and every kernel output is bitwise equal whatever the block,
from one segment per block to the whole list in one.  The buffer pools
must stay bounded by what is *kept* — the Verlet pool by the cached
candidate entries plus one chunk of filter scratch, the kernel pool by
the step's memoized columns plus block-sized scratch — never by the raw
27-cell candidate count.
"""

import numpy as np
import pytest

from repro.sph import neighbors, pair_cache
from repro.sph.box import Box
from repro.sph.driving import TurbulenceDriver
from repro.sph.hooks import ProfilingHooks
from repro.sph.initial_conditions import make_evrard, make_turbulence
from repro.sph.neighbors import csr_neighbors
from repro.sph.pair_cache import CsrStepContext, CsrVerletList
from repro.sph.physics import (
    compute_density,
    compute_iad_and_divcurl,
    compute_momentum_energy,
    ideal_gas_eos,
)
from repro.sph.physics.grad_h import compute_omega
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


#: One segment per block, a block shorter than the longest rows, and the
#: whole list in one block (the unblocked evaluation).
BLOCKS = (1, 97, 1 << 40)
KERNEL_OUTPUTS = (
    "rho", "omega", "c_iad", "div_v", "curl_v", "acc", "du", "v_sig_max",
)


def _pair_state(case):
    """A particle set after two propagator steps, and its relabeled
    Verlet query (segments in build order, scattered through targets)."""
    if case == "turbulence":
        ps, box = make_turbulence(n_side=6, seed=3)
        prop = Propagator(box, driver=TurbulenceDriver(box, seed=1))
    else:
        ps, box = make_evrard(400, seed=2)
        prop = Propagator(box, gravity=True)
    hooks = ProfilingHooks()
    for _ in range(2):
        prop.step(ps, hooks)
    order = np.random.default_rng(4).permutation(ps.n)
    prop.neighbor_list.reorder(order)
    ps = clone(ps)
    for name in ("pos", "vel", "h", "u", "mass"):
        setattr(ps, name, getattr(ps, name)[order])
    pairs = prop.neighbor_list.query(ps.pos, ps.h)
    assert pairs.targets is not None
    return ps, pairs


def _kernel_outputs(ps, pairs):
    ps = clone(ps)
    ctx = CsrStepContext(pairs, ps.h)
    compute_density(ps, ctx)
    ideal_gas_eos(ps)
    compute_iad_and_divcurl(ps, ctx)
    omega = compute_omega(ps, ctx)
    compute_momentum_energy(ps, ctx, omega=omega)
    out = {name: getattr(ps, name) for name in KERNEL_OUTPUTS if name != "omega"}
    out["omega"] = omega
    return ctx, out


class TestBlockInvariance:
    @pytest.fixture(scope="class", params=("turbulence", "evrard"))
    def state(self, request):
        ps, pairs = _pair_state(request.param)
        return ps, pairs, _kernel_outputs(ps, pairs)[1]

    @pytest.mark.parametrize("block", BLOCKS, ids=("1", "97", "whole"))
    def test_kernel_outputs_bitwise(self, monkeypatch, state, block):
        ps, pairs, ref = state
        monkeypatch.setattr(pair_cache, "_BLOCK", block)
        ctx, got = _kernel_outputs(ps, pairs)
        sizes = [b.hi - b.lo for b in ctx.blocks]
        assert sum(sizes) == pairs.n_pairs
        if block == 97:
            # Some rows are longer than the block, some blocks hold several.
            assert max(np.diff(pairs.offsets)) > block
            assert max(sizes) > block
            assert min(sizes) < block
        if block == BLOCKS[-1]:
            assert len(sizes) == 1  # the unblocked evaluation
        for name in KERNEL_OUTPUTS:
            assert np.array_equal(got[name], ref[name]), name


class TestPoolBounds:
    """After 3 steps of 12^3 turbulence the pools hold what is live."""

    #: Full-length float64 columns memoized for a step (see
    #: ``CsrStepContext``): ``w_own`` and the two 3-wide IAD vectors.
    MEMO_COLUMNS = 7
    #: Block-sized float64 scratch columns of the kernel loops: 18 scalar
    #: and 7 three-wide temporaries, the 6-wide tau geometry and the
    #: 9-wide matrix gather = 54, plus the four of a grad-h step.
    BLOCK_COLUMNS = 58

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

    def test_kernel_pool_bounded_by_memos_and_blocks(self, run):
        prop, _, max_entries = run
        per_column = 8 * (max_entries * 5 // 4 + 16)
        per_block_column = 8 * (pair_cache._BLOCK * 5 // 4 + 16)
        bound = (
            self.MEMO_COLUMNS * per_column
            + self.BLOCK_COLUMNS * per_block_column
        )
        assert prop._kernel_pool.nbytes() <= bound
