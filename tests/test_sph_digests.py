"""Bit-identity pins for the SPH step.

SHA-256 of the particle state (``pos``, ``vel``, ``u``, ``h``, ``rho``,
``acc``, ``du``, in that order) after three steps of the small turbulence
and Evrard cases, with and without the grad-h correction, and after one
two-rank distributed step.  Every kernel, reduction and gravity term of
the step is in these bytes, to the last bit: a change that moves one
must re-pin the digests and say why.
"""

import hashlib

import numpy as np
import pytest

from repro.sph import ProfilingHooks
from repro.sph.distributed import DistributedHydro
from repro.sph.driving import TurbulenceDriver
from repro.sph.initial_conditions import make_evrard, make_turbulence
from repro.sph.propagator import Propagator

FIELDS = ("pos", "vel", "u", "h", "rho", "acc", "du")

STATE_DIGESTS = {
    "turbulence":
        "4d140414278498a33888ae9a9c606537f45af861ec6de58d221a27b760f1b3e0",
    "turbulence-grad-h":
        "3167d8aa0161e457001699c71a7b0c250d831710ecaa64ddbf514d5b74884050",
    "evrard":
        "2e2ff35f684d2d3210e855ef62d6eef83f79adba7d17ad1c414eed891d3d3f16",
    "distributed-2-ranks":
        "6aa04ed8bf243a1d371fafbbbe7e820b1819277158e7845e504b5ec766d459de",
}


def state_digest(ps) -> str:
    h = hashlib.sha256()
    for name in FIELDS:
        h.update(np.ascontiguousarray(getattr(ps, name)).tobytes())
    return h.hexdigest()


def run_case(case: str):
    """The particle set of one pinned run, N = 512, seed 7."""
    if case == "distributed-2-ranks":
        ps, box = make_turbulence(n_side=8, seed=7)
        ps.vel = np.random.default_rng(7).normal(0.0, 0.08, size=ps.vel.shape)
        DistributedHydro(box, n_ranks=2).step(ps)
        return ps
    if case == "evrard":
        ps, box = make_evrard(512, seed=7)
        prop = Propagator(box, gravity=True)
    else:
        ps, box = make_turbulence(n_side=8, seed=7)
        prop = Propagator(
            box,
            driver=TurbulenceDriver(box, seed=7),
            use_grad_h=case == "turbulence-grad-h",
        )
    hooks = ProfilingHooks()
    for _ in range(3):
        prop.step(ps, hooks)
    return ps


@pytest.mark.parametrize("case", sorted(STATE_DIGESTS))
def test_state_bits_are_pinned(case):
    assert state_digest(run_case(case)) == STATE_DIGESTS[case]
