"""Ranks and process groups.

A :class:`World` is the set of all ranks participating in a job, numbered
``0..size-1`` exactly as ``torch.distributed`` numbers them. A
:class:`Group` is an ordered subset of world ranks over which a collective
operates (the analogue of an MPI communicator / NCCL process group).

Multi-axis layouts — HYBRID_SHARD's 2-D mesh of contiguous *shard
groups* and strided *replica groups*, or the tp x pp x dp mesh — are
:class:`repro.mesh.device_mesh.DeviceMesh` grids over a world.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["World", "Group", "pair_group"]


@dataclass(frozen=True)
class Group:
    """An ordered set of global ranks participating in a collective."""

    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.ranks) == 0:
            raise ValueError("a group must contain at least one rank")
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError(f"duplicate ranks in group: {self.ranks}")

    @property
    def size(self) -> int:
        """Number of ranks in the group."""
        return len(self.ranks)

    def index_of(self, global_rank: int) -> int:
        """Position of ``global_rank`` inside this group (its 'group rank')."""
        try:
            return self.ranks.index(global_rank)
        except ValueError:
            raise ValueError(f"rank {global_rank} is not in group {self.ranks}") from None

    def __contains__(self, global_rank: int) -> bool:
        return global_rank in self.ranks

    def __iter__(self):
        return iter(self.ranks)

    def __len__(self) -> int:
        return len(self.ranks)


@dataclass
class World:
    """All ranks in the job.

    Parameters
    ----------
    size:
        Total number of ranks (GPUs/GCDs from the application's view).
    ranks_per_node:
        How many ranks share a node; rank ``r`` lives on node
        ``r // ranks_per_node`` (the standard contiguous block mapping used
        by Slurm on Frontier).
    """

    size: int
    ranks_per_node: int = 8
    _groups: dict[str, Group] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"world size must be positive, got {self.size}")
        if self.ranks_per_node <= 0:
            raise ValueError(
                f"ranks_per_node must be positive, got {self.ranks_per_node}"
            )

    @property
    def n_nodes(self) -> int:
        """Number of nodes occupied (last node may be partially filled)."""
        return -(-self.size // self.ranks_per_node)

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank``."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for world of {self.size}")
        return rank // self.ranks_per_node

    def world_group(self) -> Group:
        """The group containing every rank."""
        return Group(tuple(range(self.size)))

    def new_group(self, ranks: tuple[int, ...] | list[int]) -> Group:
        """Create a group from explicit ranks, validating membership."""
        ranks = tuple(ranks)
        for r in ranks:
            if not 0 <= r < self.size:
                raise ValueError(f"rank {r} out of range for world of {self.size}")
        return Group(ranks)

    def nodes_spanned(self, group: Group) -> int:
        """How many distinct nodes a group touches."""
        return len({self.node_of(r) for r in group.ranks})


def pair_group(src: int, dst: int) -> Group:
    """The 2-rank group of a point-to-point transfer (``SimComm.send``).

    Lives here because ``Group`` construction is confined to this module
    and :mod:`repro.mesh` (see ``tools/mesh_discipline_check.py``).
    """
    if src == dst:
        raise ValueError(f"a point-to-point pair needs distinct ranks, got {src}")
    return Group((src, dst))
