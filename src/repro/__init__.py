"""repro — reproduction of "Pretraining Billion-scale Geospatial
Foundational Models on Frontier" (Tsaris et al., IPDPS 2024).

The package provides three layers:

1. **Executable distributed training** (:mod:`repro.core`,
   :mod:`repro.comm`, :mod:`repro.models`, :mod:`repro.optim`): a
   from-scratch NumPy ViT/MAE with hand-derived backward passes, trained
   under one SPMD engine whose reduction plans implement NO_SHARD /
   FULL_SHARD / SHARD_GRAD_OP / HYBRID_SHARD, a bucketed DDP baseline
   and a tp x pp x dp mesh over simulated MPI-style collectives —
   numerically equivalent across every strategy (tested to 1e-10).
2. **Performance simulation** (:mod:`repro.perf`, :mod:`repro.hardware`):
   an analytical + discrete-event model of a Frontier slice that times
   one training step of any Table I variant under any strategy,
   reproducing the paper's weak-scaling, memory, communication-share and
   power results in shape.
3. **Downstream evaluation** (:mod:`repro.data`, :mod:`repro.eval`,
   :mod:`repro.experiments`): procedural geospatial datasets, MAE
   pretraining across a scaled model family, and LARS linear probing —
   reproducing the paper's accuracy-grows-with-scale findings.

Quick start::

    from repro import (
        EngineConfig, MAEPretrainer, MaskedAutoencoder, World,
        get_mae_config, make_engine,
    )

    engine = make_engine(model, "full_shard", world=World(8))

See ``examples/quickstart.py`` for a complete runnable walkthrough and
the README's "API tour" for the blessed public surface re-exported
here (engines, trainers, telemetry, data, eval).
"""

from repro.backend import (
    BACKEND_CHOICES,
    GemmPool,
    WorkerCrashError,
    WorkerStepError,
)
from repro.comm.world import Group, World
from repro.core.config import (
    MAEConfig,
    PROXY_VARIANTS,
    VIT_VARIANTS,
    ViTConfig,
    count_mae_params,
    count_vit_params,
    get_mae_config,
    get_vit_config,
)
from repro.core.engine import (
    STRATEGY_CHOICES,
    Engine,
    EngineConfig,
    make_engine,
)
from repro.core.sharding import BackwardPrefetch, ShardingStrategy, parse_strategy
from repro.core.simclr_trainer import SimCLRPretrainer
from repro.core.trainer import MAEPretrainer, TrainResult
from repro.data.dataloader import DataLoader
from repro.elastic import (
    Allocation,
    ElasticCompatibilityError,
    PreemptedError,
    PreemptionHandler,
    PreemptionToken,
    ReductionLayout,
    RequeueDriver,
    ResizeScheduler,
    TopologySpec,
    compatible_allocations,
    elastic_resume,
    reshard_engine_state,
    reshard_trainer_state,
    run_resize_campaign,
)
from repro.eval.linear_probe import linear_probe
from repro.hardware.frontier import FRONTIER, frontier_machine
from repro.mesh import DeviceMesh, MeshSpec, TPContext
from repro.models.mae import MaskedAutoencoder
from repro.models.vit import VisionTransformer
from repro.optim.adamw import AdamW
from repro.perf.mesh_model import MeshTrafficPrediction, predict_mesh_traffic
from repro.perf.simulator import PerfParams, TrainStepSimulator
from repro.precision import LossScaler, bf16_round, from_bf16, to_bf16
from repro.serve import (
    AdmissionController,
    Autoscaler,
    AutoscalePolicy,
    CapacityPlan,
    FixedServiceModel,
    InferenceServer,
    LRUFeatureCache,
    RateProfile,
    ReplicaFaultPlan,
    ServerStats,
    ServiceTimeModel,
    TenantSpec,
    TenantTraffic,
    VirtualClock,
    generate_workload,
    latency_stats,
    plan_capacity,
    reconcile_plan,
    run_open_loop,
)
from repro.telemetry import (
    NULL_BUS,
    JsonlSink,
    NullSink,
    RecordingSink,
    RunReport,
    StepStats,
    TelemetryBus,
    TelemetryEvent,
    write_span_trace,
)

__version__ = "1.0.0"

__all__ = [
    "World",
    "Group",
    "ViTConfig",
    "MAEConfig",
    "VIT_VARIANTS",
    "PROXY_VARIANTS",
    "get_vit_config",
    "get_mae_config",
    "count_vit_params",
    "count_mae_params",
    "ShardingStrategy",
    "BackwardPrefetch",
    "parse_strategy",
    "Engine",
    "EngineConfig",
    "make_engine",
    "STRATEGY_CHOICES",
    "BACKEND_CHOICES",
    "GemmPool",
    "WorkerCrashError",
    "WorkerStepError",
    "DeviceMesh",
    "MeshSpec",
    "TPContext",
    "MAEPretrainer",
    "SimCLRPretrainer",
    "TrainResult",
    "DataLoader",
    "ElasticCompatibilityError",
    "PreemptedError",
    "PreemptionHandler",
    "PreemptionToken",
    "ReductionLayout",
    "TopologySpec",
    "reshard_engine_state",
    "reshard_trainer_state",
    "Allocation",
    "compatible_allocations",
    "ResizeScheduler",
    "RequeueDriver",
    "elastic_resume",
    "run_resize_campaign",
    "AdamW",
    "VisionTransformer",
    "MaskedAutoencoder",
    "linear_probe",
    "FRONTIER",
    "frontier_machine",
    "TrainStepSimulator",
    "PerfParams",
    "MeshTrafficPrediction",
    "predict_mesh_traffic",
    "LossScaler",
    "bf16_round",
    "to_bf16",
    "from_bf16",
    "InferenceServer",
    "ServerStats",
    "VirtualClock",
    "ServiceTimeModel",
    "FixedServiceModel",
    "LRUFeatureCache",
    "ReplicaFaultPlan",
    "latency_stats",
    "TenantSpec",
    "AdmissionController",
    "AutoscalePolicy",
    "Autoscaler",
    "RateProfile",
    "TenantTraffic",
    "generate_workload",
    "run_open_loop",
    "CapacityPlan",
    "plan_capacity",
    "reconcile_plan",
    "TelemetryBus",
    "TelemetryEvent",
    "NullSink",
    "RecordingSink",
    "JsonlSink",
    "StepStats",
    "NULL_BUS",
    "RunReport",
    "write_span_trace",
    "__version__",
]
