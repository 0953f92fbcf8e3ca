"""Communication substrate.

This package plays the role MPI/RCCL plays under PyTorch distributed:

- :mod:`repro.comm.world` — ranks and process groups (N-D meshes of
  groups live in :mod:`repro.mesh`).
- :mod:`repro.comm.collectives` — *executable* collectives over per-rank
  NumPy buffers (ring all-gather / reduce-scatter / all-reduce /
  broadcast), with per-operation call and byte accounting. These run the
  real data movement of the mini-FSDP engine in-process (SPMD style).
- :mod:`repro.comm.cost_model` — alpha-beta-gamma time model for the same
  collectives on a hierarchical machine topology; used by the
  performance simulator.
- :mod:`repro.comm.bucketing` — DDP-style gradient bucketing.
- :mod:`repro.comm.faults` — deterministic fault injection (dropped /
  corrupted buffers, transient collective failures, stragglers) and the
  retry-with-backoff policy the engines use to survive them.
"""

from repro.comm.bucketing import Bucket, bucket_gradients
from repro.comm.collectives import CommStats, SimComm
from repro.comm.cost_model import CollectiveCostModel, GroupPlacement
from repro.comm.faults import (
    CollectiveError,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    call_with_retry,
)
from repro.comm.world import Group, World

__all__ = [
    "World",
    "Group",
    "SimComm",
    "CommStats",
    "CollectiveCostModel",
    "GroupPlacement",
    "Bucket",
    "bucket_gradients",
    "FaultSpec",
    "FaultPlan",
    "CollectiveError",
    "RetryPolicy",
    "call_with_retry",
]
