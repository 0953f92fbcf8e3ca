"""DeviceMesh and MeshSpec unit behavior: layout, groups, submeshes."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.comm.world import World
from repro.core.engine import make_engine
from repro.mesh import DeviceMesh, MESH_AXIS_NAMES, MeshSpec, PIPELINE_SCHEDULES

from .helpers import build_model


def test_mesh_spec_shape_size_and_describe():
    spec = MeshSpec(pp=2, dp=3, tp=4, schedule="1f1b")
    assert spec.shape == (2, 3, 4)
    assert spec.size == 24
    assert "pp=2" in spec.describe() and "1f1b" in spec.describe()


def test_mesh_spec_defaults_are_all_ones_gpipe():
    spec = MeshSpec()
    assert spec.shape == (1, 1, 1)
    assert spec.schedule == "gpipe"
    assert spec.schedule in PIPELINE_SCHEDULES


@pytest.mark.parametrize("bad", [{"pp": 0}, {"dp": -1}, {"tp": True}, {"pp": 2.0}])
def test_mesh_spec_rejects_non_positive_or_non_int_axes(bad):
    with pytest.raises(ValueError, match="must be an int >= 1"):
        MeshSpec(**bad)


def test_mesh_spec_rejects_unknown_schedule():
    with pytest.raises(ValueError, match="unknown pipeline schedule"):
        MeshSpec(schedule="interleaved")


def test_mesh_spec_frozen_replace_round_trip():
    spec = MeshSpec(pp=2, dp=2, tp=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.pp = 4
    bumped = dataclasses.replace(spec, schedule="1f1b")
    assert bumped.shape == spec.shape and bumped.schedule == "1f1b"
    assert dataclasses.replace(bumped, schedule="gpipe") == spec


def test_row_major_rank_layout_tp_innermost():
    mesh = DeviceMesh(World(8), (2, 2, 2), MESH_AXIS_NAMES)
    assert mesh.ranks == tuple(range(8))
    # tp neighbors are adjacent global ranks; pp stages stride a plane.
    assert mesh.rank_at((0, 0, 0)) == 0
    assert mesh.rank_at((0, 0, 1)) == 1
    assert mesh.rank_at((0, 1, 0)) == 2
    assert mesh.rank_at((1, 0, 0)) == 4
    assert mesh.coords_of(7) == (1, 1, 1)


def test_groups_partition_the_world_per_axis():
    mesh = DeviceMesh(World(12), (2, 3, 2), MESH_AXIS_NAMES)
    for axis, size in zip(MESH_AXIS_NAMES, (2, 3, 2)):
        groups = mesh.groups(axis)
        assert len(groups) == 12 // size
        seen = [r for g in groups for r in g.ranks]
        assert sorted(seen) == list(range(12))
        assert all(len(g.ranks) == size for g in groups)


def test_group_for_finds_the_containing_group():
    mesh = DeviceMesh(World(8), (2, 2, 2), MESH_AXIS_NAMES)
    g = mesh.group_for("dp", 5)
    assert 5 in g.ranks
    # rank 5 = coords (1, 0, 1); its dp group varies the middle axis.
    assert tuple(g.ranks) == (5, 7)
    with pytest.raises(ValueError, match="not covered"):
        mesh.group_for("dp", 99)


def test_submesh_pins_other_axes_and_reorders():
    mesh = DeviceMesh(World(8), (2, 2, 2), MESH_AXIS_NAMES)
    sub = mesh.submesh(("tp", "dp"), rank=4)
    assert sub.axis_names == ("tp", "dp")
    assert sub.shape == (2, 2)
    # pp pinned at rank 4's stage (coords (1, *, *)).
    assert sorted(sub.ranks) == [4, 5, 6, 7]
    # Requested order honored: first axis is tp (innermost originally).
    assert sub.rank_at((1, 0)) == 5


def test_mesh_validation_errors():
    with pytest.raises(ValueError, match="multiply to the world size"):
        DeviceMesh(World(8), (2, 2), ("a", "b"))
    with pytest.raises(ValueError, match="duplicate axis names"):
        DeviceMesh(World(4), (2, 2), ("a", "a"))
    with pytest.raises(ValueError, match="disagree on rank"):
        DeviceMesh(World(4), (2, 2), ("a",))
    with pytest.raises(ValueError, match="at least one axis"):
        DeviceMesh(World(1), (), ())
    mesh = DeviceMesh(World(4), (2, 2), ("a", "b"))
    with pytest.raises(ValueError, match="unknown mesh axis"):
        mesh.groups("c")


def test_make_hybrid_mesh_matches_device_mesh_layout():
    # HYBRID_SHARD's two reduction stages run over a (replica, shard)
    # DeviceMesh; stage 2 stacks partials in this group order, so the
    # groups must match a direct extraction in order, not just as sets.
    eng = make_engine(build_model(), "hybrid_shard", world=World(8), shard_size=4)
    mesh = DeviceMesh(World(8), (2, 4), ("replica", "shard"))
    scatter, replica = eng.stages
    assert scatter.groups == mesh.groups("shard")
    assert replica.groups == mesh.groups("replica")


def test_grid_is_consistent_both_directions():
    mesh = DeviceMesh(World(24), (2, 3, 4), MESH_AXIS_NAMES)
    for rank in range(24):
        assert mesh.rank_at(mesh.coords_of(rank)) == rank
    assert mesh.size == 24
    assert mesh.axis_size("dp") == 3
