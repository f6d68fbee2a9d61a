"""Tests for rank placement, communication costs, and the SPMD engine."""

import math

import pytest

from repro.config import CSCS_A100, LUMI_G, MINIHPC
from repro.errors import CommunicatorError, SimulationError
from repro.hardware import Cluster, VirtualClock
from repro.mpi import CommCostModel, RankPlacement, RankWork, SpmdEngine

def make_cluster(system, num_nodes):
    clock = VirtualClock()
    return Cluster("c", clock, system.node_spec, num_nodes, system.network)


class TestRankPlacement:
    def test_lumi_size(self):
        placement = RankPlacement(make_cluster(LUMI_G, 2))
        assert placement.size == 16

    def test_location_fields(self):
        placement = RankPlacement(make_cluster(LUMI_G, 2))
        loc = placement.location(9)
        assert loc.node_index == 1
        assert loc.local_rank == 1
        assert loc.gpu_index == 1
        assert loc.card_index == 0

    def test_gcd_within_card(self):
        placement = RankPlacement(make_cluster(LUMI_G, 1))
        assert placement.location(0).gcd_within_card == 0
        assert placement.location(1).gcd_within_card == 1
        assert placement.location(2).gcd_within_card == 0

    def test_cscs_one_rank_per_card(self):
        placement = RankPlacement(make_cluster(CSCS_A100, 1))
        groups = placement.sensor_sharing_groups()
        assert groups == [[0], [1], [2], [3]]

    def test_lumi_two_ranks_per_card(self):
        placement = RankPlacement(make_cluster(LUMI_G, 1))
        groups = placement.sensor_sharing_groups()
        assert groups == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_ranks_on_node(self):
        placement = RankPlacement(make_cluster(CSCS_A100, 3))
        assert placement.ranks_on_node(1) == [4, 5, 6, 7]

    def test_same_node(self):
        placement = RankPlacement(make_cluster(CSCS_A100, 2))
        assert placement.same_node(0, 3)
        assert not placement.same_node(0, 4)

    def test_gpu_and_card_accessors(self):
        cluster = make_cluster(LUMI_G, 1)
        placement = RankPlacement(cluster)
        assert placement.gpu_of(3) is cluster.nodes[0].gpus[3]
        assert placement.card_of(3) is cluster.nodes[0].cards[1]

    def test_bad_rank(self):
        placement = RankPlacement(make_cluster(MINIHPC, 1))
        with pytest.raises(CommunicatorError):
            placement.location(99)


class TestCommCostModel:
    @pytest.fixture
    def cost(self):
        placement = RankPlacement(make_cluster(CSCS_A100, 4))
        return CommCostModel(CSCS_A100.network, placement)

    def test_barrier_log_rounds(self, cost):
        assert cost.barrier_time() == pytest.approx(4 * CSCS_A100.network.latency_s)

    def test_allreduce_single_rank_free(self):
        cost = CommCostModel(MINIHPC.network, RankPlacement(make_cluster(MINIHPC, 1)))
        # 2 ranks on the single miniHPC node -> nonzero but tiny
        assert cost.allreduce_time(8) > 0

    def test_allreduce_scales_with_bytes(self, cost):
        assert cost.allreduce_time(1e6) > cost.allreduce_time(8)

    def test_allgather_scales_with_ranks(self):
        net = CSCS_A100.network
        small = CommCostModel(net, RankPlacement(make_cluster(CSCS_A100, 2)))
        large = CommCostModel(net, RankPlacement(make_cluster(CSCS_A100, 8)))
        assert large.allgather_time(1e4) > small.allgather_time(1e4)

    def test_p2p_intra_node_faster(self, cost):
        intra = cost.p2p_time(0, 1, 1e6)
        inter = cost.p2p_time(0, 4, 1e6)
        assert intra < inter

    def test_halo_exchange_bounded_by_max_message(self, cost):
        msgs = {1: 1e6, 4: 1e6, 5: 1e6}
        t = cost.halo_exchange_time(0, msgs)
        assert t >= cost.p2p_time(0, 4, 1e6)
        assert t <= sum(cost.p2p_time(0, r, b) for r, b in msgs.items())

    def test_halo_exchange_empty(self, cost):
        assert cost.halo_exchange_time(0, {}) == 0.0

    def test_alltoallv_sums_sends(self, cost):
        t = cost.alltoallv_time(0, {1: 1e6, 4: 2e6})
        expected = cost.p2p_time(0, 1, 1e6) + cost.p2p_time(0, 4, 2e6)
        assert t == pytest.approx(expected)

    def test_negative_bytes_rejected(self, cost):
        with pytest.raises(CommunicatorError):
            cost.allreduce_time(-1)
        with pytest.raises(CommunicatorError):
            cost.allgather_time(-1)
        with pytest.raises(CommunicatorError):
            cost.p2p_time(0, 1, -1)


class TestSpmdEngine:
    @pytest.fixture
    def setup(self):
        cluster = make_cluster(CSCS_A100, 1)
        placement = RankPlacement(cluster)
        return cluster, placement, SpmdEngine(placement)

    def test_phase_advances_to_slowest_rank(self, setup):
        cluster, placement, engine = setup
        works = [RankWork(duration=float(d), gpu_compute=0.9) for d in (1, 2, 3, 4)]
        result = engine.run_phase(works)
        assert cluster.clock.now == 4.0
        assert result.t_start == 0.0
        assert result.t_end == 4.0
        assert result.duration_of(2) == 3.0

    def test_gpus_busy_then_idle(self, setup):
        cluster, placement, engine = setup
        works = [RankWork(duration=2.0, gpu_compute=1.0, gpu_memory=1.0)] * 4
        engine.run_phase(works)
        node = cluster.nodes[0]
        busy_power = node.gpus[0].trace.power_at(1.0)
        idle_power = node.gpus[0].trace.power_at(3.0)
        assert busy_power > idle_power

    def test_straggler_burns_idle_energy_on_others(self, setup):
        """Fast ranks idle while the slowest finishes (load imbalance)."""
        cluster, placement, engine = setup
        works = [RankWork(duration=1.0, gpu_compute=1.0)] * 3 + [
            RankWork(duration=5.0, gpu_compute=1.0)
        ]
        engine.run_phase(works)
        gpu0 = cluster.nodes[0].gpus[0]
        idle = gpu0.power_model.idle_watts_nominal
        # gpu0 idles from t=1 to t=5.
        assert gpu0.energy_between(1.0, 5.0) == pytest.approx(idle * 4.0)

    def test_on_end_fires_at_rank_time(self, setup):
        cluster, placement, engine = setup
        seen = {}
        works = [RankWork(duration=float(d)) for d in (4, 3, 2, 1)]
        engine.run_phase(works, on_end=lambda r: seen.setdefault(r, cluster.clock.now))
        assert seen == {0: 4.0, 1: 3.0, 2: 2.0, 3: 1.0}

    def test_on_start_fires_for_all(self, setup):
        _, _, engine = setup
        started = []
        engine.run_phase([RankWork(duration=1.0)] * 4, on_start=started.append)
        assert started == [0, 1, 2, 3]

    def test_shared_cpu_load_aggregates(self, setup):
        cluster, placement, engine = setup
        node = cluster.nodes[0]
        works = [RankWork(duration=2.0, cpu_share=0.25)] * 4
        engine.run_phase(works)
        # During the phase the CPU ran at full aggregated share.
        busy = node.cpu.trace.power_at(1.0)
        assert busy > node.cpu.power_model.idle_watts_nominal

    def test_shared_load_decays_as_ranks_finish(self, setup):
        cluster, placement, engine = setup
        node = cluster.nodes[0]
        works = [
            RankWork(duration=1.0, cpu_share=0.25),
            RankWork(duration=1.0, cpu_share=0.25),
            RankWork(duration=1.0, cpu_share=0.25),
            RankWork(duration=4.0, cpu_share=0.25),
        ]
        engine.run_phase(works)
        assert node.cpu.trace.power_at(0.5) > node.cpu.trace.power_at(2.0)
        assert node.cpu.trace.power_at(2.0) > node.cpu.trace.power_at(5.0)

    def test_zero_duration_phase(self, setup):
        cluster, _, engine = setup
        result = engine.run_phase([RankWork(duration=0.0)] * 4)
        assert result.t_start == result.t_end == cluster.clock.now

    def test_wrong_work_count_rejected(self, setup):
        _, _, engine = setup
        with pytest.raises(SimulationError):
            engine.run_phase([RankWork(duration=1.0)] * 3)

    def test_invalid_work_rejected(self):
        with pytest.raises(SimulationError):
            RankWork(duration=-1.0)
        with pytest.raises(SimulationError):
            RankWork(duration=1.0, gpu_compute=1.5)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(SimulationError, match="not finite"):
            RankWork(duration=duration)

    @pytest.mark.parametrize(
        "share",
        ["gpu_compute", "gpu_memory", "cpu_share", "mem_share", "nic_share"],
    )
    @pytest.mark.parametrize("value", [-0.1, 1.5, math.nan])
    def test_each_bad_share_is_named(self, share, value):
        with pytest.raises(SimulationError, match=f"^{share}="):
            RankWork(duration=1.0, **{share: value})

    def test_run_idle(self, setup):
        cluster, _, engine = setup
        engine.run_idle(10.0)
        assert cluster.clock.now == 10.0
        node = cluster.nodes[0]
        assert node.power_at(5.0) == pytest.approx(node.idle_power())

    def test_consecutive_phases_accumulate_time(self, setup):
        cluster, _, engine = setup
        engine.run_phase([RankWork(duration=1.0)] * 4)
        result = engine.run_phase([RankWork(duration=2.0)] * 4)
        assert result.t_start == 1.0
        assert cluster.clock.now == 3.0
