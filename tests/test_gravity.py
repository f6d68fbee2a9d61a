"""Tests for Barnes-Hut gravity against the direct-sum oracle, and for
the single structure-of-arrays walk against the retired two-walk,
array-of-structs implementation it replaced bit for bit."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sph.gravity import BarnesHutGravity
from repro.sph.neighbors import BufferPool
from repro.sph.initial_conditions import make_evrard
from repro.sph.propagator import Propagator
from repro.sph.simulation import Simulation
from tests.oracles.gravity import direct_sum_acceleration, direct_sum_potential


def random_cluster(n, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.normal(0.0, 1.0, size=(n, 3))
    mass = rng.uniform(0.5, 1.5, size=n) / n
    return pos, mass


def retired_walk(tree, pos, mass, targets=None):
    """Frozen oracle: the former acceleration and potential walks, one
    recursion each over ``tree.nodes``, with (targets, sources, xyz)
    einsums.  Returns ``(acc, phi)``; ``phi`` is ``None`` for external
    targets."""
    nodes, theta, eps, G = tree.nodes, tree.theta, tree.eps, tree.G
    pts = pos if targets is None else np.asarray(targets, dtype=np.float64)
    acc = np.zeros_like(pts)

    def walk_acc(node_id, active):
        if len(active) == 0:
            return
        node = nodes[node_id]
        delta = node.com[None, :] - pts[active]
        dist2 = np.einsum("ij,ij->i", delta, delta)
        accepted = (2.0 * node.half_width) < (theta * np.sqrt(dist2))
        if node.is_leaf:
            src = node.indices
            d = pos[src][None, :, :] - pts[active][:, None, :]
            d2 = np.einsum("ijk,ijk->ij", d, d)
            inv_d3 = (d2 + eps**2) ** -1.5
            inv_d3[d2 < 1e-24] = 0.0
            acc[active] += G * np.einsum("ij,j,ijk->ik", inv_d3, mass[src], d)
            return
        take = active[accepted]
        if len(take):
            d2 = dist2[accepted] + eps**2
            acc[take] += G * node.mass * delta[accepted] / d2[:, None] ** 1.5
        for child in node.children:
            walk_acc(child, active[~accepted])

    def walk_phi(node_id, active):
        if len(active) == 0:
            return
        node = nodes[node_id]
        delta = node.com[None, :] - pos[active]
        dist2 = np.einsum("ij,ij->i", delta, delta)
        accepted = (2.0 * node.half_width) ** 2 < (theta**2 * dist2)
        if node.is_leaf:
            src = node.indices
            d = pos[src][None, :, :] - pos[active][:, None, :]
            d2 = np.einsum("ijk,ijk->ij", d, d)
            inv_d = (d2 + eps**2) ** -0.5
            inv_d[d2 < 1e-24] = 0.0
            phi[active] += -G * inv_d @ mass[src]
            return
        take = active[accepted]
        if len(take):
            phi[take] += -G * node.mass / np.sqrt(dist2[accepted] + eps**2)
        for child in node.children:
            walk_phi(child, active[~accepted])

    walk_acc(0, np.arange(len(pts)))
    if targets is not None:
        return acc, None
    phi = np.zeros(len(pos))
    walk_phi(0, np.arange(len(pos)))
    return acc, phi


def assert_matches_retired_walk(pos, mass, **kwargs):
    tree = BarnesHutGravity(pos, mass, **kwargs)
    acc, phi = retired_walk(tree, pos, mass)
    assert np.array_equal(tree.acceleration(), acc)
    assert tree.potential() == float(0.5 * np.sum(mass * phi))
    # Per particle too: a total can absorb a last-bit change in one phi.
    assert np.array_equal(tree._walk_self()[1], phi)


class TestDirectSum:
    def test_two_body_acceleration(self):
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        mass = np.array([1.0, 2.0])
        acc = direct_sum_acceleration(pos, mass)
        assert acc[0] == pytest.approx([2.0, 0.0, 0.0])
        assert acc[1] == pytest.approx([-1.0, 0.0, 0.0])

    def test_newton_third_law(self):
        pos, mass = random_cluster(50, seed=1)
        acc = direct_sum_acceleration(pos, mass)
        net_force = np.sum(mass[:, None] * acc, axis=0)
        assert np.allclose(net_force, 0.0, atol=1e-12)

    def test_softening_caps_close_forces(self):
        pos = np.array([[0.0, 0.0, 0.0], [1e-6, 0.0, 0.0]])
        mass = np.array([1.0, 1.0])
        hard = direct_sum_acceleration(pos, mass, eps=0.0)
        soft = direct_sum_acceleration(pos, mass, eps=0.1)
        assert np.abs(soft).max() < np.abs(hard).max()

    def test_two_body_potential(self):
        pos = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        mass = np.array([1.0, 3.0])
        assert direct_sum_potential(pos, mass) == pytest.approx(-1.5)

    def test_potential_negative(self):
        pos, mass = random_cluster(30, seed=2)
        assert direct_sum_potential(pos, mass, eps=0.01) < 0


class TestBarnesHut:
    def test_matches_direct_sum_small_theta(self):
        pos, mass = random_cluster(300, seed=3)
        tree = BarnesHutGravity(pos, mass, theta=0.3, eps=0.05)
        bh = tree.acceleration()
        ds = direct_sum_acceleration(pos, mass, eps=0.05)
        rel = np.linalg.norm(bh - ds, axis=1) / np.maximum(
            np.linalg.norm(ds, axis=1), 1e-12
        )
        assert np.median(rel) < 0.01
        assert rel.max() < 0.10

    def test_accuracy_improves_with_smaller_theta(self):
        pos, mass = random_cluster(300, seed=4)
        ds = direct_sum_acceleration(pos, mass, eps=0.05)

        def err(theta):
            bh = BarnesHutGravity(pos, mass, theta=theta, eps=0.05).acceleration()
            return float(
                np.mean(
                    np.linalg.norm(bh - ds, axis=1)
                    / np.maximum(np.linalg.norm(ds, axis=1), 1e-12)
                )
            )

        assert err(0.2) < err(0.9)

    def test_single_leaf_is_direct_sum(self):
        """With one leaf holding every particle the tree is a direct sum."""
        pos, mass = random_cluster(64, seed=5)
        tree = BarnesHutGravity(pos, mass, theta=0.5, eps=0.02, leaf_size=64)
        assert np.allclose(
            tree.acceleration(),
            direct_sum_acceleration(pos, mass, eps=0.02),
            rtol=1e-12,
        )

    def test_potential_matches_direct_sum_small_theta(self):
        pos, mass = random_cluster(300, seed=3)
        tree = BarnesHutGravity(pos, mass, theta=0.3, eps=0.05)
        exact = direct_sum_potential(pos, mass, eps=0.05)
        assert tree.potential() == pytest.approx(exact, rel=0.01)

    def test_single_leaf_potential_is_direct_sum(self):
        pos, mass = random_cluster(64, seed=5)
        tree = BarnesHutGravity(pos, mass, theta=0.5, eps=0.02, leaf_size=64)
        assert tree.num_nodes == 1
        assert tree.potential() == pytest.approx(
            direct_sum_potential(pos, mass, eps=0.02), rel=1e-12
        )

    def test_external_targets(self):
        pos, mass = random_cluster(200, seed=6)
        far = np.array([[50.0, 0.0, 0.0]])
        tree = BarnesHutGravity(pos, mass, theta=0.5)
        acc = tree.acceleration(far)
        # At 50 sigma the cluster is a point mass at its center of mass.
        total_m = mass.sum()
        com = np.sum(pos * mass[:, None], axis=0) / total_m
        d = com - far[0]
        expected = total_m * d / np.linalg.norm(d) ** 3
        assert np.allclose(acc[0], expected, rtol=1e-3)

    def test_node_count_reasonable(self):
        pos, mass = random_cluster(1000, seed=7)
        tree = BarnesHutGravity(pos, mass, leaf_size=16)
        assert 1000 / 16 < tree.num_nodes < 8000

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(SimulationError):
            BarnesHutGravity(np.zeros((3, 3)), np.ones(2))

    def test_invalid_theta_rejected(self):
        pos, mass = random_cluster(10)
        with pytest.raises(SimulationError):
            BarnesHutGravity(pos, mass, theta=0.0)

    def test_momentum_conserved_by_tree_forces(self):
        pos, mass = random_cluster(400, seed=8)
        acc = BarnesHutGravity(pos, mass, theta=0.5, eps=0.05).acceleration()
        net = np.sum(mass[:, None] * acc, axis=0)
        # Monopole approximation breaks exact pairwise symmetry, but the
        # residual must be far below the typical force scale.
        typical = np.mean(np.abs(mass[:, None] * acc))
        assert np.abs(net).max() < 0.05 * typical


class TestBitIdenticalToRetiredWalk:
    """The one walk reproduces the retired two-walk implementation exactly:
    same opening decisions, same per-target term order, same arithmetic."""

    def test_evrard_steps(self):
        ps, box = make_evrard(512, seed=1)
        prop = Propagator(box, gravity=True)
        sim = Simulation(ps, prop)
        for _ in range(3):
            assert_matches_retired_walk(
                ps.pos, ps.mass, theta=prop.gravity_theta, eps=prop.gravity_eps
            )
            sim.run(1)

    @pytest.mark.parametrize("theta", [0.3, 0.6, 0.9])
    def test_cluster(self, theta):
        pos, mass = random_cluster(300, seed=3)
        assert_matches_retired_walk(pos, mass, theta=theta, eps=0.05)

    def test_single_leaf_and_single_particle_leaves(self):
        pos, mass = random_cluster(64, seed=5)
        assert_matches_retired_walk(pos, mass, theta=0.5, eps=0.02, leaf_size=64)
        assert_matches_retired_walk(pos, mass, theta=0.5, eps=0.02, leaf_size=1)

    def test_opening_tests_disagree_at_a_rounding_edge(self):
        """Force and potential open nodes by differently rounded tests
        (``2w < theta*sqrt(d2)`` and ``(2w)**2 < theta**2*d2``).  Place one
        particle where they disagree at a node; both sums still match."""
        theta = 0.6
        pos, mass = random_cluster(300, seed=3)
        pos = pos * 1.03  # a tree scale whose node widths have such an edge
        tree = BarnesHutGravity(pos, mass, theta=theta, eps=0.05)
        edge = None
        for node in tree.nodes:
            width = 2.0 * node.half_width
            ulps = np.arange(-400, 400) * np.spacing(width / theta)
            x = node.com[0] + width / theta + ulps
            d2 = (node.com[0] - x) ** 2
            split = (width < theta * np.sqrt(d2)) != (width**2 < theta**2 * d2)
            inside = (x > pos[:, 0].min()) & (x < pos[:, 0].max())
            if node.children and np.any(split & inside):
                edge = [x[split & inside][0], node.com[1], node.com[2]]
                break
        assert edge is not None
        assert_matches_retired_walk(
            np.vstack([pos, edge]), np.append(mass, mass[0]), theta=theta, eps=0.05
        )

    def test_external_targets(self):
        pos, mass = random_cluster(300, seed=6)
        targets = np.random.default_rng(7).normal(0.0, 1.0, size=(40, 3))
        tree = BarnesHutGravity(pos, mass, theta=0.6, eps=0.05)
        acc, _ = retired_walk(tree, pos, mass, targets)
        assert np.array_equal(tree.acceleration(targets), acc)
        # One target at a time: leaves then see a lone target, whose
        # (1, sources, 3) einsum sums in an order of its own.
        for target in targets[:8]:
            acc, _ = retired_walk(tree, pos, mass, target[None])
            assert np.array_equal(tree.acceleration(target[None]), acc)

    def test_potential_reads_the_acceleration_walk(self, monkeypatch):
        pos, mass = random_cluster(200, seed=8)
        tree = BarnesHutGravity(pos, mass, theta=0.6, eps=0.05)
        roots = []
        walk = BarnesHutGravity._walk

        def counting(self, node_id, *args):
            if node_id == 0:
                roots.append(node_id)
            return walk(self, node_id, *args)

        monkeypatch.setattr(BarnesHutGravity, "_walk", counting)
        first = tree.acceleration()
        tree.potential()
        assert np.array_equal(tree.acceleration(), first)
        assert roots == [0]

    def test_shared_pool_matches_private_pools(self):
        """Two trees in sequence on one pool (as the propagator builds one
        per step): the second tree reads stale, larger leaf buffers and
        must still equal a tree with a pool of its own, bit for bit."""
        pool = BufferPool()
        first_pos, first_mass = random_cluster(400, seed=9)
        BarnesHutGravity(
            first_pos, first_mass, theta=0.6, eps=0.05, pool=pool
        ).acceleration()
        pos, mass = random_cluster(300, seed=10)
        shared = BarnesHutGravity(pos, mass, theta=0.6, eps=0.05, pool=pool)
        private = BarnesHutGravity(pos, mass, theta=0.6, eps=0.05)
        assert np.array_equal(shared.acceleration(), private.acceleration())
        assert np.array_equal(shared._walk_self()[1], private._walk_self()[1])
        assert shared.potential() == private.potential()
