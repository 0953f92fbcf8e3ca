"""N-D device meshes and the parallelism layers composed over them.

The mesh package holds named-axis rank grids (HYBRID_SHARD's 2-D
``("replica", "shard")`` mesh is one) and the parallelism layers
composed over them:

- :mod:`repro.mesh.spec` — :class:`MeshSpec`, the pure-literal
  ``EngineConfig(mesh=...)`` value naming the ``("pp", "dp", "tp")``
  axes (dependency leaf; importable from the config layer).
- :mod:`repro.mesh.device_mesh` — :class:`DeviceMesh`, named-axis rank
  grids with per-axis process-group extraction (the only place besides
  ``comm/world.py`` allowed to construct ``Group`` objects; see
  ``tools/mesh_discipline_check.py``).
- :mod:`repro.mesh.tp` — :class:`TPContext`, megatron-style tensor
  parallelism as load-bearing column-shard all-gathers.
- :mod:`repro.mesh.pipeline` — GPipe / 1F1B schedules over
  layer-partitioned op stages, plus closed-form boundary byte
  accounting.

:class:`repro.core.engine.Engine` composes all three axes with the
ddp / full-shard data-parallel plans when built via
``make_engine(model, strategy, world=..., mesh=MeshSpec(...))``.
"""

from repro.mesh.device_mesh import DeviceMesh
from repro.mesh.pipeline import (
    boundary_nbytes,
    gpipe_schedule,
    one_f_one_b_schedule,
    partition_stages,
    schedule_actions,
)
from repro.mesh.spec import MESH_AXIS_NAMES, PIPELINE_SCHEDULES, MeshSpec
from repro.mesh.tp import TPContext

__all__ = [
    "DeviceMesh",
    "MESH_AXIS_NAMES",
    "MeshSpec",
    "PIPELINE_SCHEDULES",
    "TPContext",
    "boundary_nbytes",
    "gpipe_schedule",
    "one_f_one_b_schedule",
    "partition_stages",
    "schedule_actions",
]

