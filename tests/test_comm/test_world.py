"""Tests for ranks, groups, and hybrid meshes."""

import pytest

from repro.comm.world import Group, World
from repro.mesh.device_mesh import DeviceMesh


class TestGroup:
    def test_size_and_membership(self):
        g = Group((3, 1, 7))
        assert g.size == 3
        assert 3 in g and 7 in g
        assert 2 not in g

    def test_index_of_preserves_order(self):
        g = Group((3, 1, 7))
        assert g.index_of(3) == 0
        assert g.index_of(7) == 2

    def test_index_of_missing_raises(self):
        with pytest.raises(ValueError, match="not in group"):
            Group((0, 1)).index_of(5)

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Group((1, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Group(())

    def test_iteration(self):
        assert list(Group((2, 0))) == [2, 0]


class TestWorld:
    def test_node_mapping_contiguous(self):
        w = World(size=16, ranks_per_node=8)
        assert w.node_of(0) == 0
        assert w.node_of(7) == 0
        assert w.node_of(8) == 1
        assert w.n_nodes == 2

    def test_partial_last_node(self):
        assert World(size=10, ranks_per_node=8).n_nodes == 2

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            World(size=4).node_of(4)

    def test_new_group_validates(self):
        w = World(size=4)
        with pytest.raises(ValueError, match="out of range"):
            w.new_group([0, 9])

    def test_nodes_spanned(self):
        w = World(size=16, ranks_per_node=8)
        assert w.nodes_spanned(w.new_group([0, 1])) == 1
        assert w.nodes_spanned(w.new_group([0, 8])) == 2

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            World(size=0)
        with pytest.raises(ValueError):
            World(size=4, ranks_per_node=0)


def _hybrid(world: World, shard_size: int) -> DeviceMesh:
    """HYBRID_SHARD's (replica, shard) mesh, as the engine builds it."""
    return DeviceMesh(
        world, (world.size // shard_size, shard_size), ("replica", "shard")
    )


class TestHybridMesh:
    def test_shard_groups_contiguous(self):
        mesh = _hybrid(World(size=8, ranks_per_node=4), shard_size=2)
        shard_groups = mesh.groups("shard")
        assert shard_groups[0].ranks == (0, 1)
        assert shard_groups[3].ranks == (6, 7)
        assert len(shard_groups) == 4
        assert mesh.axis_size("shard") == 2

    def test_replica_groups_stride(self):
        mesh = _hybrid(World(size=8, ranks_per_node=4), shard_size=2)
        assert mesh.groups("replica")[0].ranks == (0, 2, 4, 6)
        assert mesh.groups("replica")[1].ranks == (1, 3, 5, 7)

    def test_every_rank_in_exactly_one_group_of_each_kind(self):
        w = World(size=12, ranks_per_node=4)
        mesh = _hybrid(w, shard_size=3)
        for r in range(12):
            assert sum(r in g for g in mesh.groups("shard")) == 1
            assert sum(r in g for g in mesh.groups("replica")) == 1

    def test_lookup_helpers(self):
        mesh = _hybrid(World(size=4, ranks_per_node=4), shard_size=2)
        assert mesh.group_for("shard", 3).ranks == (2, 3)
        assert mesh.group_for("replica", 3).ranks == (1, 3)

    def test_degenerate_full_shard(self):
        mesh = _hybrid(World(size=4, ranks_per_node=4), shard_size=4)
        assert len(mesh.groups("shard")) == 1
        assert mesh.groups("shard")[0].ranks == (0, 1, 2, 3)

    def test_degenerate_pure_dp(self):
        mesh = _hybrid(World(size=4, ranks_per_node=4), shard_size=1)
        assert len(mesh.groups("shard")) == 4
        assert mesh.groups("replica")[0].ranks == (0, 1, 2, 3)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="axis sizes must multiply"):
            _hybrid(World(size=6, ranks_per_node=2), shard_size=4)
