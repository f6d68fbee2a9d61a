"""Rank-to-hardware placement.

The general rule in GPU-centric codes — one MPI rank drives one GPU unit —
interacts badly with per-card power sensors: on LUMI-G one MI250X card
hosts two GCDs, so two ranks share one ``accel`` counter, while on A100
systems the mapping is one-to-one.  Section 2 of the paper explains that
the analysis scripts must take exactly this hardware configuration and
rank-to-GPU assignment into account; :class:`RankPlacement` is that
knowledge, used both by the execution engine and by the analysis layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CommunicatorError
from repro.hardware.cluster import Cluster


@dataclass(frozen=True)
class RankLocation:
    """Where one rank lives."""

    rank: int
    node_index: int
    local_rank: int
    gpu_index: int
    card_index: int

    @property
    def gcd_within_card(self) -> int:
        """0 or 1: which die of its card this rank drives."""
        return self.gpu_index - self.card_index_first_gpu

    @property
    def card_index_first_gpu(self) -> int:
        # Derived lazily by RankPlacement; stored here for convenience.
        return self._card_first_gpu  # type: ignore[attr-defined]


class RankPlacement:
    """Block placement of one rank per GPU unit across a cluster."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._locations: list[RankLocation] = []
        gcds_per_card = cluster.node_spec.gpu.gcds_per_card
        rank = 0
        for node_index, node in enumerate(cluster.nodes):
            for gpu_index in range(node.num_gpu_units):
                card_index = gpu_index // gcds_per_card
                loc = RankLocation(
                    rank=rank,
                    node_index=node_index,
                    local_rank=gpu_index,
                    gpu_index=gpu_index,
                    card_index=card_index,
                )
                object.__setattr__(
                    loc, "_card_first_gpu", card_index * gcds_per_card
                )
                self._locations.append(loc)
                rank += 1

    @property
    def size(self) -> int:
        """Total number of ranks (== total GPU units)."""
        return len(self._locations)

    def location(self, rank: int) -> RankLocation:
        """The placement of ``rank``."""
        locations = self._locations
        if not 0 <= rank < len(locations):
            raise CommunicatorError(
                f"rank {rank} out of range (communicator size {len(locations)})"
            )
        return locations[rank]

    def gpu_of(self, rank: int):
        """The GPU unit ``rank`` drives."""
        loc = self.location(rank)
        return self.cluster.nodes[loc.node_index].gpus[loc.gpu_index]

    def card_of(self, rank: int):
        """The physical card (sensor granularity) hosting ``rank``'s GPU."""
        loc = self.location(rank)
        return self.cluster.nodes[loc.node_index].cards[loc.card_index]

    def ranks_on_node(self, node_index: int) -> list[int]:
        """All ranks placed on ``node_index``."""
        return [
            loc.rank for loc in self._locations if loc.node_index == node_index
        ]

    def sensor_sharing_groups(self) -> list[list[int]]:
        """Groups of ranks that share one GPU power sensor.

        Singletons on A100 systems; pairs on MI250X systems.  This is the
        structure the analysis layer needs to attribute per-card readings
        to ranks.
        """
        groups: dict[tuple[int, int], list[int]] = {}
        for loc in self._locations:
            groups.setdefault((loc.node_index, loc.card_index), []).append(loc.rank)
        return [groups[key] for key in sorted(groups)]

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        """Whether two ranks share a node (affects message cost)."""
        return (
            self.location(rank_a).node_index == self.location(rank_b).node_index
        )
