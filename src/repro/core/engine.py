"""One SPMD training engine, driven by a reduction plan fixed at construction.

Every strategy the paper compares — DDP and FSDP's NO_SHARD,
FULL_SHARD, SHARD_GRAD_OP and HYBRID_SHARD — plus the tensor/pipeline
parallel mesh is the same algorithm: each data-parallel rank runs
forward/backward on its microbatch, the gradient contributions go
through an ordered list of collectives, and the optimizer steps. What
differs is *data*, resolved once by :class:`Engine` at construction:

- the **gradient/optimizer layout**: per-parameter gradients coalesced
  into DDP buckets (``shard_size is None``), or flat units
  (:class:`~repro.core.sharding.FlatUnit`) sharded ``shard_size`` ways
  whose shards are the optimizer's parameters;
- the **reduction stages** (:class:`ReductionStage`), each tagged with
  its groups and mesh axis:

  ============================  ========================================
  plan                          stages
  ============================  ========================================
  DDP                           bucketed all-reduce over the world
  NO_SHARD                      per-unit all-reduce over the world
  FULL_SHARD / SHARD_GRAD_OP    one deferred reduce-scatter
  HYBRID_SHARD                  per-round reduce-scatter in each shard
                                group, then an all-reduce across
                                replicas (one deferred reduce-scatter
                                when the layout folds it)
  mesh ``ddp``                  one-bucket all-reduce over dp
  mesh ``full_shard``           one deferred reduce-scatter over dp
  ============================  ========================================

- the **parameter gathers per round**: 0, 1 (SHARD_GRAD_OP, HYBRID) or
  2 (FULL_SHARD, mesh ``full_shard``: forward and backward);
- the **tp and pp axes** taken from ``EngineConfig(mesh=MeshSpec(...))``.

Every engine is built one way::

    from repro import EngineConfig, make_engine

    engine = make_engine(model, "full_shard", world=world)
    engine = make_engine(model, "hybrid_shard", world=world,
                         config=EngineConfig(shard_size=2, telemetry=bus))
    engine = make_engine(model, "HYBRID_2GPUs", world=world)  # paper label
    engine = make_engine(model, "full_shard", world=World(8),
                         mesh=MeshSpec(pp=2, dp=2, tp=2))

**Numerics.** Accumulation rounds enter one collective call
(``parts_per_rank=k``) wherever the plan defers its reduction, so an
fp32 ``k``-round step is bit-identical to the same global batch on a
``k``-times-larger world (HYBRID reduces per round and then folds the
round partials into its replica all-reduce, which is what the larger
world computes). Under ``precision="bf16"`` microbatch inputs and
outbound gradients are rounded onto the bf16 grid, the loss scale is
applied before the cast and removed after the reduction, reductions
book half the wire bytes, and the optimizer keeps fp32 master weights.
The mesh is fp32-only.

**SPMD economy.** All ranks share one process and one model instance:
because every rank holds identical parameters after each step, one
materialized flat buffer per unit stands in for all of them and
optimizer state is deduplicated across replicas (``check_replicas``
asserts replica shards agree). Per-rank activations and gradients are
genuinely per-rank. On a mesh the tp and pp axes are data-movement
axes over that one model: collectives run over the *first* group of
each axis, which carries the same payload every other group would.

**Mesh axes.** ``tp`` (innermost) routes flagged GEMMs through
:class:`~repro.mesh.tp.TPContext` column-shard all-gathers; ``pp``
(outermost) partitions ``model.pipeline_ops()`` into stages and runs a
GPipe or 1F1B schedule inline, moving boundary tensors with
``SimComm.send`` and recomputing each stage's forward before its
backward. Under the process backend workers run micros depth-first and
the parent books the schedule's boundary bytes analytically. A
``(pp, dp, tp)`` engine trains fp32 bit-identically to the world-1
DDP oracle accumulating ``grad_accum_steps * dp`` rounds.

Telemetry: one ``comm.<op>`` span per collective (bytes attached,
``axis`` attached on a mesh), ``compute.fwd_bwd`` per round,
``optim.step``, and retry/backoff counters attributed to the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.backend import BACKEND_CHOICES, GemmPool, make_backend
from repro.comm.bucketing import DEFAULT_BUCKET_CAP_BYTES, bucket_gradients
from repro.comm.collectives import SimComm
from repro.comm.faults import CollectiveError, RetryPolicy, call_with_retry
from repro.comm.world import Group
from repro.core.sharding import ShardingStrategy, default_wrap_units, parse_strategy
from repro.elastic.layout import ReductionLayout, validate_layout, validate_mesh_layout
from repro.mesh.device_mesh import DeviceMesh
from repro.mesh.pipeline import boundary_nbytes, partition_stages, schedule_actions
from repro.mesh.spec import MESH_AXIS_NAMES, MeshSpec
from repro.mesh.tp import TPContext
from repro.optim.adamw import AdamW
from repro.optim.base import Optimizer
from repro.precision.bf16 import PRECISIONS, bf16_round, wire_fraction
from repro.precision.scaler import LossScaler
from repro.telemetry import NULL_BUS, TelemetryBus

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.comm.world import World
    from repro.models.module import Module

__all__ = [
    "Engine",
    "EngineConfig",
    "ReductionStage",
    "make_engine",
    "STRATEGY_CHOICES",
]

OptimizerFactory = Callable[[Sequence], Optimizer]
StepFn = Callable[["Module", Any], float]

#: Strategy names accepted by :func:`make_engine` (paper-style labels
#: like ``"HYBRID_2GPUs"`` are accepted too).
STRATEGY_CHOICES = ("ddp", "no_shard", "full_shard", "shard_grad_op", "hybrid_shard")


@dataclass(frozen=True)
class EngineConfig:
    """One config for every strategy and mesh shape.

    Every plan reads ``optimizer_factory``, ``comm``, ``retry_policy``,
    ``telemetry``, ``grad_accum_steps``, ``backend``,
    ``intra_op_threads`` and ``reduction_layout``. DDP reads
    ``bucket_cap_bytes`` / ``first_bucket_cap_bytes`` (mesh ``ddp``
    always reduces one whole-model bucket). The flat-unit plans read
    ``shard_size``; HYBRID_SHARD also reads ``check_replicas``.
    ``precision`` / ``loss_scale`` / ``dynamic_loss_scale`` apply off
    the mesh (the mesh is fp32-only), and ``mesh`` selects the mesh
    plan. A plan ignores the fields it does not read, so one config can
    build a whole strategy sweep.

    Attributes
    ----------
    optimizer_factory:
        ``params -> Optimizer``; ``None`` selects the paper's AdamW
        recipe.
    comm:
        Collective engine to issue through (fresh :class:`SimComm` per
        engine when ``None``).
    retry_policy:
        Bounded backoff for transient collective failures; ``None``
        disables retries. Collectives are pure functions of immutable
        per-rank buffers, so a retried step is bit-identical to an
        uninterrupted one.
    telemetry:
        Instrumentation bus; ``None`` means the shared disabled bus
        (:data:`repro.telemetry.NULL_BUS`).
    bucket_cap_bytes / first_bucket_cap_bytes:
        DDP gradient-bucket sizing (PyTorch DDP's 25 MB / 1 MB scheme).
    shard_size:
        Sharding-group size; required for ``hybrid_shard``, implied
        otherwise (and must equal ``dp`` on a mesh when given).
    check_replicas:
        Assert replica-group gradient shards agree after HYBRID's
        replica all-reduce.
    precision:
        ``"fp32"`` (default; the paper's runs) or ``"bf16"`` — emulated
        bf16 parameters/gradients/collective payloads with
        full-precision master weights in the optimizer
        (:mod:`repro.precision`). Logical gradient wire bytes halve.
    grad_accum_steps:
        Microbatch rounds per optimizer step; ``train_step`` then takes
        ``grad_accum_steps * data_parallel_size`` microbatches and fires
        the optimizer once. In fp32 a ``k``-round step is bit-identical
        to the same global batch on a ``k``-times-larger world (tested).
    loss_scale / dynamic_loss_scale:
        Initial loss scale applied to gradients before the bf16 cast,
        and whether the AMP-style dynamic schedule (back off on
        non-finite gradients — skipping that step — grow after a clean
        streak) manages it. Ignored under fp32.
    backend:
        Where rank compute runs: ``"inline"`` (all ranks sequentially in
        this process; the default) or ``"process"`` (one spawned OS
        process per data-parallel rank over shared-memory
        parameter/gradient blocks — :mod:`repro.backend`). fp32
        training is bit-identical across backends; call
        ``engine.close()`` when done with a process backend to join
        workers and unlink the segments.
    intra_op_threads:
        Threads in the shared :class:`~repro.backend.threads.GemmPool`
        the fused Linear/attention matmuls tile over (``1`` disables the
        pool). Blocked GEMMs are bit-identical to fused ones, so this is
        purely a speed knob. Composes with ``backend="process"`` (each
        worker gets its own pool).
    reduction_layout:
        The logical :class:`~repro.elastic.layout.ReductionLayout` the
        gradient reduction must realize (``None`` — the default — keeps
        each plan's natural layout and changes nothing). Set by the
        elastic requeue machinery when resuming a checkpoint into a
        resized world: configurations sharing a layout train fp32
        bit-identically, and HYBRID_SHARD with a single replica group
        can *fold* its two reduction stages to realize a single-stage
        layout from a larger world (e.g. FULL_SHARD 16 → HYBRID 8 with
        ``grad_accum_steps=2``).
    mesh:
        A :class:`~repro.mesh.spec.MeshSpec` composing tensor and
        pipeline parallelism with the ``"ddp"`` or ``"full_shard"``
        data-parallel plan; ``pp * dp * tp`` must equal the world size.
    """

    optimizer_factory: OptimizerFactory | None = None
    comm: SimComm | None = None
    retry_policy: RetryPolicy | None = field(default_factory=RetryPolicy)
    telemetry: TelemetryBus | None = None
    # Mixed precision / accumulation
    precision: str = "fp32"
    grad_accum_steps: int = 1
    loss_scale: float = 1.0
    dynamic_loss_scale: bool = False
    # Execution
    backend: str = "inline"
    intra_op_threads: int = 1
    # Elastic resharding
    reduction_layout: ReductionLayout | None = None
    # Bucketed plans
    bucket_cap_bytes: int = DEFAULT_BUCKET_CAP_BYTES
    first_bucket_cap_bytes: int | None = 1024 * 1024
    # Flat-unit plans
    shard_size: int | None = None
    check_replicas: bool = False
    # Tensor/pipeline parallelism composed with dp
    mesh: MeshSpec | None = None

    def __post_init__(self) -> None:
        if self.precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {PRECISIONS}, got {self.precision!r}"
            )
        if self.grad_accum_steps < 1:
            raise ValueError(
                f"grad_accum_steps must be >= 1, got {self.grad_accum_steps}"
            )
        if self.loss_scale <= 0:
            raise ValueError(f"loss_scale must be positive, got {self.loss_scale}")
        if self.backend not in BACKEND_CHOICES:
            raise ValueError(
                f"backend must be one of {BACKEND_CHOICES}, got {self.backend!r}"
            )
        if self.intra_op_threads < 1:
            raise ValueError(
                f"intra_op_threads must be >= 1, got {self.intra_op_threads}"
            )
        if self.bucket_cap_bytes <= 0:
            raise ValueError(
                f"bucket_cap_bytes must be positive, got {self.bucket_cap_bytes}"
            )
        if self.first_bucket_cap_bytes is not None and self.first_bucket_cap_bytes <= 0:
            raise ValueError(
                "first_bucket_cap_bytes must be positive or None, "
                f"got {self.first_bucket_cap_bytes}"
            )
        if self.shard_size is not None and self.shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {self.shard_size}")
        if self.mesh is not None and not isinstance(self.mesh, MeshSpec):
            raise TypeError(
                f"mesh must be a MeshSpec, got {type(self.mesh).__name__}"
            )


@dataclass(frozen=True)
class ReductionStage:
    """One collective stage of an engine's gradient reduction.

    ``op`` (``"all_reduce"`` or ``"reduce_scatter"``) is issued once per
    group in ``groups``, for every gradient bucket. ``members[i]`` lists
    the data-parallel rank positions whose contributions enter
    ``groups[i]`` (first stage only: a second stage consumes the first
    stage's per-group outputs). A ``per_round`` stage issues one call
    per accumulation round; otherwise every round's contribution enters
    one deferred call (``parts_per_rank=k``). ``axis`` tags the
    ``comm.<op>`` span on a mesh.
    """

    op: str
    groups: tuple[Group, ...]
    members: tuple[tuple[int, ...], ...] = ()
    axis: str | None = None
    per_round: bool = False


def _resolve_shard_size(
    strategy: ShardingStrategy, shard_size: int | None, world: "World"
) -> int:
    if strategy is ShardingStrategy.NO_SHARD:
        if shard_size not in (None, 1):
            raise ValueError("NO_SHARD implies shard_size=1")
        return 1
    if strategy in (ShardingStrategy.FULL_SHARD, ShardingStrategy.SHARD_GRAD_OP):
        if shard_size not in (None, world.size):
            raise ValueError(f"{strategy.value} shards across the whole world")
        return world.size
    if shard_size is None:
        raise ValueError("HYBRID_SHARD requires an explicit shard_size")
    if world.size % shard_size != 0:
        raise ValueError(
            f"world size {world.size} not divisible by shard size {shard_size}"
        )
    return shard_size


def _validate_tp(model: "Module", tp: int) -> None:
    """Reject tp sizes the model's flagged GEMMs cannot shard evenly."""
    for m in model.modules():
        heads = getattr(m, "heads", None)
        if heads is not None and heads % tp != 0:
            raise ValueError(
                f"tp={tp} does not divide the {heads} attention heads of "
                f"{type(m).__name__}; tensor parallelism shards per-head "
                "column blocks"
            )
        if getattr(m, "tp_shard", False):
            for dim, label in (
                (m.out_features, "out_features"),
                (m.in_features, "in_features"),
            ):
                if dim % tp != 0:
                    raise ValueError(
                        f"tp={tp} does not divide {label}={dim} of a "
                        "tp-sharded Linear; pick a tp that divides every "
                        "flagged GEMM width"
                    )


class Engine:
    """Data-parallel training of one model under any reduction plan.

    Build with :func:`make_engine`. ``train_step`` consumes
    ``grad_accum_steps * data_parallel_size`` microbatches, round-major:
    micro ``(round j, dp-rank r)`` sits at index ``j * dp + r``.
    """

    def __init__(
        self,
        model: "Module",
        world: "World",
        strategy: ShardingStrategy,
        config: EngineConfig,
    ):
        self.config = config
        self.model = model
        self.world = world
        self.strategy = strategy
        self.comm = config.comm if config.comm is not None else SimComm()
        self.retry_policy = config.retry_policy
        self.telemetry = config.telemetry if config.telemetry is not None else NULL_BUS
        self.check_replicas = config.check_replicas
        self.precision = config.precision
        self.grad_accum_steps = config.grad_accum_steps
        self.params = model.parameters()
        self.mesh_spec = config.mesh
        self.device_mesh: DeviceMesh | None = None
        self.tp_context: TPContext | None = None
        if self.mesh_spec is None:
            self.pp, self.dp, self.tp = 1, world.size, 1
            self._plan_data_parallel()
        else:
            self._plan_mesh()
        self.gemm_pool = (
            GemmPool(config.intra_op_threads)
            if config.intra_op_threads > 1
            else None
        )
        if self.gemm_pool is not None:
            model.use_gemm_pool(self.gemm_pool)
        self.units = []
        if self.shard_size is not None:
            self.units = default_wrap_units(model, self.shard_size)
            # Flat-unit plans reduce each unit's flat gradient on its own.
            self.buckets = [(u,) for u in range(len(self.units))]
        # Backend before shards/optimizer: a process backend re-homes
        # parameter storage (p.data, or each unit's flat buffer) into
        # shared memory, and the shard views and optimizer state (bf16
        # masters included) must alias that storage.
        self._backend = make_backend(self)
        self._shards = [u.make_shards() for u in self.units]
        if self.shard_size is None:
            # Reduced buckets are split back into parameter gradients.
            self._targets = self.params
            self._slots = self.buckets
        else:
            # Each reduced piece is one shard's gradient.
            self._targets = [s for shards in self._shards for s in shards]
            self._slots = [(i,) for i in range(len(self._targets))]
        factory = (
            config.optimizer_factory
            if config.optimizer_factory is not None
            else AdamW
        )
        self.optimizer = factory(self._targets)
        self.scaler = LossScaler(
            init_scale=config.loss_scale, dynamic=config.dynamic_loss_scale
        )
        if self.precision == "bf16":
            self._wire_dtype: str | None = "bf16"
            self.optimizer.use_master_weights(quantize=bf16_round)
        else:
            self._wire_dtype = None
        self._backend.start()
        self.step_count = 0

    # -- the plan ------------------------------------------------------------

    def _plan_data_parallel(self) -> None:
        """Fix the layout, stages and gathers of a plain (mesh-less) plan."""
        world, cfg, strategy = self.world, self.config, self.strategy
        k = self.grad_accum_steps
        ranks = tuple(range(world.size))
        if strategy is ShardingStrategy.DDP:
            # DDP's bucketed all-reduce is always single-stage; an
            # explicit chunked layout (only HYBRID_SHARD can realize one)
            # is rejected rather than silently changing the trajectory.
            self.layout = validate_layout(
                "DDP", world.size, None, k, cfg.reduction_layout
            )
            self.shard_size = None
            self.buckets = [
                b.param_indices
                for b in bucket_gradients(
                    [p.grad.nbytes for p in self.params],
                    cap_bytes=cfg.bucket_cap_bytes,
                    first_bucket_cap_bytes=cfg.first_bucket_cap_bytes,
                )
            ]
            self.stages = (ReductionStage("all_reduce", (world.world_group(),), (ranks,)),)
            self._gathers_per_round = 0
            self._gather_groups: tuple[Group, ...] = ()
            return
        s = self.shard_size = _resolve_shard_size(strategy, cfg.shard_size, world)
        # The (replica, shard) mesh: shard groups are contiguous blocks
        # of s ranks, replica groups stride across them. HYBRID's
        # stage-2 stacks partials in this group order.
        mesh = DeviceMesh(world, (world.size // s, s), ("replica", "shard"))
        shard_groups = mesh.groups("shard")
        self.layout = validate_layout(
            strategy.value, world.size, s, k, cfg.reduction_layout
        )
        # With an explicit single-stage layout and one replica group,
        # HYBRID folds into the single-stage family: one deferred
        # reduce-scatter over every (round, rank) contribution.
        folded = self.layout.single_stage and len(shard_groups) == 1
        if strategy is ShardingStrategy.NO_SHARD:
            self.stages = (ReductionStage("all_reduce", (world.world_group(),), (ranks,)),)
        elif strategy is not ShardingStrategy.HYBRID_SHARD or folded:
            self.stages = (
                ReductionStage(
                    "reduce_scatter", shard_groups, (shard_groups[0].ranks,)
                ),
            )
        else:
            self.stages = (
                ReductionStage(
                    "reduce_scatter",
                    shard_groups,
                    tuple(g.ranks for g in shard_groups),
                    per_round=True,
                ),
            )
            if k > 1 or len(shard_groups) > 1:
                self.stages += (ReductionStage("all_reduce", mesh.groups("replica")),)
        if s == 1:
            self._gathers_per_round = 0
        elif strategy is ShardingStrategy.FULL_SHARD:
            self._gathers_per_round = 2  # forward, then the backward regather
        else:
            self._gathers_per_round = 1
        self._gather_groups = shard_groups

    def _plan_mesh(self) -> None:
        """Fix the axes, layout, stages and gathers of a mesh plan."""
        spec, world, cfg, model = self.mesh_spec, self.world, self.config, self.model
        if self.precision != "fp32":
            raise ValueError(
                "the mesh plan is fp32-only: the per-axis bit-exactness "
                "contract has no bf16 rounding story yet"
            )
        if spec.size != world.size:
            raise ValueError(
                f"mesh {spec.describe()} occupies {spec.size} ranks but the "
                f"world has {world.size}; pp * dp * tp must equal the world "
                "size"
            )
        if cfg.shard_size not in (None, spec.dp):
            raise ValueError(
                f"config.shard_size={cfg.shard_size} conflicts with the "
                f"mesh dp axis; full_shard shards over dp={spec.dp}"
            )
        self.pp, self.dp, self.tp = spec.shape
        self.schedule = spec.schedule
        self.device_mesh = DeviceMesh(world, spec.shape, MESH_AXIS_NAMES)
        self.layout = validate_mesh_layout(
            self.dp, self.grad_accum_steps, cfg.reduction_layout
        )
        dp_group = self.device_mesh.groups("dp")[0]
        self._pp_group = self.device_mesh.groups("pp")[0]
        self._param_dtype = self.params[0].dtype

        if self.tp > 1:
            _validate_tp(model, self.tp)
            self.tp_context = TPContext(
                self.tp,
                self.device_mesh.groups("tp")[0],
                self.comm,
                bus=self.telemetry if self.telemetry.enabled else None,
            )
            model.use_tensor_parallel(self.tp_context)

        if self.pp > 1:
            ops_fn = getattr(model, "pipeline_ops", None)
            if ops_fn is None:
                raise TypeError(
                    f"pp={self.pp} needs a model exposing pipeline_ops(); "
                    f"{type(model).__name__} does not"
                )
            self._ops = list(ops_fn())
            self._stage_bounds = partition_stages(len(self._ops), self.pp)
            self._stage_params = self._stage_param_lists()

        members = (tuple(range(self.dp)),)
        if self.strategy is ShardingStrategy.DDP:
            # One bucket: the single whole-model all-reduce per step that
            # the mesh perf model (MESHPERF) prices.
            self.shard_size = None
            self.buckets = [tuple(range(len(self.params)))]
            self.stages = (ReductionStage("all_reduce", (dp_group,), members, "dp"),)
            self._gathers_per_round = 0
        else:
            self.shard_size = self.dp
            self.stages = (
                ReductionStage("reduce_scatter", (dp_group,), members, "dp"),
            )
            self._gathers_per_round = 0 if self.dp == 1 else 2
        self._gather_groups = (dp_group,)

    # -- execution backend hooks -------------------------------------------

    @property
    def backend(self) -> str:
        """Name of the active execution backend (``inline``/``process``)."""
        return self._backend.name

    @property
    def data_parallel_size(self) -> int:
        """Ranks that consume distinct microbatches (and run compute).

        The world size off the mesh; the dp axis on it (tp and pp are
        data-movement axes over the one shared model). The process
        backend sizes its worker pool from this."""
        return self.dp

    def _zero_local_grads(self) -> None:
        """Zero one rank's local gradients before its microbatch."""
        if self.shard_size is None:
            self.model.zero_grad()
        else:
            for u in self.units:
                u.zero_grad()

    def _collect_rank_grads(self) -> list[np.ndarray]:
        """One rank's outbound (wire-ready) gradient contributions:
        parameter-shaped under the bucketed layout, one flat gradient
        per unit otherwise."""
        if self.shard_size is None:
            return [self._outbound_grad(p.grad) for p in self.params]
        return [self._outbound_grad(u.read_grad(), owned=True) for u in self.units]

    def close(self) -> None:
        """Release backend resources (worker processes, shared memory,
        GEMM threads). Idempotent. Parameter storage is re-homed to
        private arrays, so checkpointing and evaluation keep working;
        further ``train_step`` calls need a fresh engine."""
        self._backend.shutdown()
        if self.gemm_pool is not None:
            self.gemm_pool.close()

    @property
    def lr(self) -> float:
        """Current learning rate (delegates to the optimizer)."""
        return self.optimizer.lr

    @lr.setter
    def lr(self, value: float) -> None:
        """Current learning rate (delegates to the optimizer)."""
        self.optimizer.lr = value

    @property
    def n_buckets(self) -> int:
        """Gradient buckets: reductions each first-stage group runs per step."""
        return len(self.buckets)

    def n_params(self) -> int:
        """Total (unpadded) parameters."""
        return sum(p.data.size for p in self.params)

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Engine snapshot: model params, optimizer state (master weights
        included under bf16), loss-scaler state, step count.

        Because replica-group optimizer state is deduplicated, this is a
        *global* checkpoint: the flat layout depends only on the model
        and the shard count, and the loader re-flattens through the
        model's state dict.
        """
        return {
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "scaler": self.scaler.state_dict(),
            "step_count": self.step_count,
        }

    def load_state_dict(self, sd: dict) -> None:
        """Restore a snapshot taken from an engine with the same model
        architecture and gradient layout."""
        self.model.load_state_dict(sd["model"])
        self.optimizer.load_state_dict(sd["optimizer"])
        if "scaler" in sd:
            self.scaler.load_state_dict(sd["scaler"])
        self.step_count = int(sd["step_count"])

    def topology(self) -> dict:
        """The world/sharding/mesh shape a snapshot of this engine assumes.

        Recorded in checkpoint metadata so a resume into a *different*
        shape fails with a typed error (or reshards through
        :mod:`repro.elastic`) instead of silently diverging.
        """
        if self.mesh_spec is not None:
            kind, strategy = "mesh", self.strategy.value.lower()
        elif self.strategy is ShardingStrategy.DDP:
            kind, strategy = "ddp", "DDP"
        else:
            kind, strategy = "fsdp", self.strategy.value
        out = {
            "kind": kind,
            "strategy": strategy,
            "world_size": self.world.size,
            "ranks_per_node": self.world.ranks_per_node,
            "shard_size": self.shard_size,
            "grad_accum_steps": self.grad_accum_steps,
            "layout": {"total": self.layout.total, "chunk": self.layout.chunk},
            "precision": self.precision,
            "backend": self.backend,
        }
        if self.mesh_spec is not None:
            out["mesh"] = {
                "pp": self.pp,
                "dp": self.dp,
                "tp": self.tp,
                "schedule": self.schedule,
            }
        return out

    # -- precision cast points ---------------------------------------------

    def _check_micros(self, micros) -> None:
        """Validate the ``train_step`` microbatch count."""
        need = self.grad_accum_steps * self.dp
        if len(micros) != need:
            raise ValueError(
                f"need {need} microbatches ({self.grad_accum_steps} "
                f"accumulation round(s) x {self.dp} rank(s)), "
                f"got {len(micros)}"
            )

    def _wire_nbytes(self, nbytes: float) -> float:
        """Logical payload bytes of a native buffer at the wire dtype."""
        if self._wire_dtype is None:
            return float(nbytes)
        return nbytes * wire_fraction(self._wire_dtype)

    def _cast_micro(self, micro: Any) -> Any:
        """Round a microbatch's floating arrays onto the bf16 grid.

        Microbatches are opaque to the engine except for this cast:
        bare arrays and (nested) tuples/lists of arrays are handled;
        non-float leaves pass through untouched.
        """
        if self.precision != "bf16":
            return micro
        return _cast_tree(micro)

    def _outbound_grad(self, g: np.ndarray, owned: bool = False) -> np.ndarray:
        """One rank's gradient contribution as it enters the collective.

        Under bf16 this is where the loss scale is applied and the
        payload drops to bf16 resolution. ``owned=True`` marks a buffer
        the caller already copied (skips the defensive fp32 copy).
        """
        if self.precision != "bf16":
            return g if owned else g.copy()
        if self.scaler.scale != 1.0:
            return bf16_round(g * self.scaler.scale)
        return bf16_round(g)

    def _grad_postprocess(self, reduced: list[np.ndarray]) -> bool:
        """Unscale reduced gradients in place; decide whether to step.

        Returns False — and advances the dynamic scaler's backoff —
        when a non-finite gradient means this optimizer step must be
        skipped. On the fp32 default path this touches nothing.
        """
        if self.precision != "bf16" and not self.scaler.enabled:
            return True
        s = self.scaler.scale
        if s != 1.0:
            for a in reduced:
                np.divide(a, s, out=a)
        if not self.scaler.dynamic:
            return True
        found_inf = any(not np.isfinite(a).all() for a in reduced)
        self.scaler.update(found_inf)
        if found_inf and self.telemetry.enabled:
            self.telemetry.counter("precision.skipped_steps", 1)
        return not found_inf

    def _emit_precision_gauges(self) -> None:
        """Publish per-step precision/accumulation gauges (non-default runs)."""
        bus = self.telemetry
        if not bus.enabled:
            return
        if self.grad_accum_steps > 1:
            bus.gauge("train.grad_accum_steps", float(self.grad_accum_steps))
        if self.precision != "fp32" or self.scaler.enabled:
            bus.gauge("precision.loss_scale", self.scaler.scale)

    # -- collectives -------------------------------------------------------

    def _collective(self, fn, op: str, nbytes: float, axis: str | None = None):
        """Issue one collective, retrying transient failures per policy.

        With telemetry enabled the call is wrapped in a ``comm.<op>``
        span (bytes attached, plus the mesh ``axis`` when there is one)
        and any retries/backoff incurred are emitted as step-attributed
        counters — including when the retry budget is exhausted and the
        error propagates, so backoff time is never silently dropped from
        the step's account.
        """
        bus = self.telemetry
        if not bus.enabled:
            return call_with_retry(fn, self.retry_policy, stats=self.comm.stats)
        stats = self.comm.stats
        retries0 = stats.total_retries
        backoff0 = stats.backoff_seconds
        attrs = {"bytes": float(nbytes)}
        if axis is not None:
            attrs["axis"] = axis
        try:
            with bus.span(f"comm.{op}", **attrs):
                return call_with_retry(fn, self.retry_policy, stats=stats)
        finally:
            if stats.total_retries != retries0:
                bus.counter("comm.retries", stats.total_retries - retries0, op=op)
                bus.counter(
                    "comm.backoff_s", stats.backoff_seconds - backoff0, op=op
                )

    def _stage_call(
        self, stage: ReductionStage, group: Group, bufs: list[np.ndarray], parts: int
    ) -> list[np.ndarray]:
        """Issue one of ``stage``'s collectives over ``group``."""
        fn = getattr(self.comm, stage.op)
        return self._collective(
            lambda: fn(
                bufs,
                group,
                op="mean",
                parts_per_rank=parts,
                wire_dtype=self._wire_dtype,
            ),
            op=stage.op,
            nbytes=self._wire_nbytes(bufs[0].nbytes),
            axis=stage.axis,
        )

    def _issue_param_allgathers(self) -> None:
        """Materialize every unit's full parameters from its shards.

        With a single materialized flat buffer the gather is a fixed
        point (the shards are views of the buffer); issuing it still
        exercises the collective layer's data path and accounting,
        which is the point.
        """
        axis = self.stages[0].axis  # gathers run over the reduction's axis
        for unit in self.units:
            for group in self._gather_groups:
                shards = [unit.shard_view(j) for j in range(self.shard_size)]
                gathered = self._collective(
                    lambda: self.comm.all_gather(
                        shards, group, wire_dtype=self._wire_dtype
                    ),
                    op="all_gather",
                    nbytes=self._wire_nbytes(unit.flat.nbytes),
                    axis=axis,
                )
                np.copyto(unit.flat, gathered[0])

    def _reduce_gradients(
        self, micro_grads: list[list[list[np.ndarray]]]
    ) -> list[np.ndarray]:
        """Run the plan's stages over every bucket.

        ``micro_grads[j][r][i]`` is round j, dp-rank r's contribution
        ``i`` (a parameter gradient, or a unit's flat gradient). Returns
        the reduced pieces in optimizer-target order: one flat array per
        bucket under the bucketed layout, one per shard otherwise.
        """
        out: list[np.ndarray] = []
        for idxs in self.buckets:
            if self.shard_size is None:
                # Coalesce the bucket per (round, rank); concatenation
                # commutes with the elementwise stacked mean.
                chunk = [
                    [np.concatenate([g[i].reshape(-1) for i in idxs]) for g in rnd]
                    for rnd in micro_grads
                ]
            else:
                chunk = [[g[idxs[0]] for g in rnd] for rnd in micro_grads]
            out.extend(self._reduce_bucket(chunk))
        return out

    def _reduce_bucket(self, chunk: list[list[np.ndarray]]) -> list[np.ndarray]:
        """Reduce one bucket's ``chunk[j][r]`` contributions through the stages.

        A deferred first stage stacks all ``k`` rounds into one call, so
        an fp32 ``k``-round step matches a ``k``-times-larger world.
        HYBRID reduce-scatters per round inside each shard group, then
        all-reduces each shard index across replica groups with the
        round partials folded in (``parts_per_rank=k``) — the larger
        world at the same shard size has ``k``-times the replica groups
        and computes this exact mean-of-round-partials.
        """
        k = len(chunk)
        first = self.stages[0]
        if not first.per_round:
            bufs = [chunk[j][r] for j in range(k) for r in first.members[0]]
            reduced = self._stage_call(first, first.groups[0], bufs, k)
            return reduced[:1] if first.op == "all_reduce" else reduced
        partials = [
            [
                self._stage_call(first, group, [chunk[j][r] for r in members], 1)
                for group, members in zip(first.groups, first.members)
            ]
            for j in range(k)
        ]
        if len(self.stages) == 1:
            return partials[0][0]
        second = self.stages[1]
        shard_grads: list[np.ndarray] = []
        for s, group in enumerate(second.groups):
            bufs = [partials[j][g][s] for j in range(k) for g in range(len(first.groups))]
            reduced = self._stage_call(second, group, bufs, k)
            if self.check_replicas:
                for r in reduced[1:]:
                    np.testing.assert_allclose(r, reduced[0], rtol=0, atol=1e-12)
            shard_grads.append(reduced[0])
        return shard_grads

    def _send(self, arr: np.ndarray, src: int, dst: int) -> np.ndarray:
        """Move a stage-boundary tensor through ``SimComm.send``."""
        arr = np.ascontiguousarray(arr)
        bus = self.telemetry
        if bus.enabled:
            with bus.span("comm.send", bytes=float(arr.nbytes), axis="pp"):
                return self.comm.send(arr, src, dst)
        return self.comm.send(arr, src, dst)

    # -- pipeline ----------------------------------------------------------

    def _stage_param_lists(self) -> list[list]:
        """Per-stage parameter ownership; must partition the model."""
        all_params = self.model.parameters()
        known = {id(p) for p in all_params}
        seen: set[int] = set()
        stages: list[list] = []
        for start, stop in self._stage_bounds:
            stage_params = []
            for op in self._ops[start:stop]:
                for p in op.params():
                    if id(p) not in known:
                        raise ValueError(
                            f"pipeline op {type(op).__name__} owns a "
                            "parameter not in model.parameters()"
                        )
                    if id(p) in seen:
                        raise ValueError(
                            f"pipeline op {type(op).__name__} claims a "
                            "parameter another stage already owns"
                        )
                    seen.add(id(p))
                    stage_params.append(p)
            stages.append(stage_params)
        if len(seen) != len(all_params):
            raise ValueError(
                "pipeline ops do not cover every model parameter "
                f"({len(seen)} of {len(all_params)} claimed)"
            )
        return stages

    def _run_pipeline(
        self, micros: Sequence[Any], k: int
    ) -> tuple[list[float], list[list[list[np.ndarray]]]]:
        """Drive the pipeline schedule for each dp rank's microbatches.

        Returns ``(losses, micro_grads)`` with losses indexed
        ``j * dp + r`` and ``micro_grads[j][r]`` the rank's outbound
        contribution for round ``j`` — the same shapes the round loop
        produces, so the reduction path downstream is shared.
        """
        bus = self.telemetry
        actions = schedule_actions(self.schedule, k, self.pp)
        # Parameters are static within a step, so the full_shard
        # materialization traffic is booked with the round loop's
        # cadence: one gather set per round plus the backward regather.
        for _ in range(k * self._gathers_per_round):
            self._issue_param_allgathers()
        losses = [0.0] * (k * self.dp)
        rows: list[list[list[np.ndarray] | None]] = [
            [None] * k for _ in range(self.dp)
        ]
        for r in range(self.dp):
            rank_micros = [
                self._cast_micro(micros[j * self.dp + r]) for j in range(k)
            ]
            with bus.span("compute.fwd_bwd"):
                self._run_pipeline_rank(r, rank_micros, actions, losses, rows[r])
        micro_grads = [
            [rows[r][j] for r in range(self.dp)] for j in range(k)
        ]
        return losses, micro_grads

    def _run_pipeline_rank(
        self,
        r: int,
        rank_micros: list,
        actions: list,
        losses: list[float],
        out_row: list,
    ) -> None:
        """Execute the schedule for dp rank ``r``'s ``k`` microbatches."""
        pp = self.pp
        ops = self._ops
        bounds = self._stage_bounds
        ranks = self._pp_group.ranks
        n_micro = len(rank_micros)
        ctxs: list[dict] = [dict() for _ in range(n_micro)]
        # inbox[s][j]: stage s's forward input for micro j (arrives via
        # send from stage s-1, kept alive for the recompute-at-backward).
        inbox: list[list] = [[None] * n_micro for _ in range(pp)]
        grad_inbox: list[list] = [[None] * n_micro for _ in range(pp)]
        partials: list[dict[int, np.ndarray]] = [dict() for _ in range(n_micro)]
        for j, micro in enumerate(rank_micros):
            inbox[0][j] = micro if isinstance(micro, tuple) else (micro, None)
        self._zero_local_grads()
        for kind, s, j in actions:
            start, stop = bounds[s]
            ctx = ctxs[j]
            x = inbox[s][j]
            for op in ops[start:stop]:
                x = op.forward(x, ctx)
            if kind == "fwd":
                if s < pp - 1:
                    inbox[s + 1][j] = self._send(x, ranks[s], ranks[s + 1])
                else:
                    losses[j * self.dp + r] = float(ctx["output"].loss)
                continue
            # Backward: the forward above was the recompute (in-flight
            # micros clobbered the module caches since this micro's
            # scheduled forward; deterministic via the ctx noise stash).
            d = grad_inbox[s][j]  # None on the last stage: tail seeds it
            for op in reversed(ops[start:stop]):
                d = op.backward(d, ctx)
            if s > 0:
                grad_inbox[s - 1][j] = self._send(d, ranks[s], ranks[s - 1])
            # Snapshot this stage's freshly accumulated gradients and
            # zero them, so in-flight micros never mix contributions.
            for p in self._stage_params[s]:
                partials[j][id(p)] = p.grad.copy()
                p.zero_grad()
            if s == 0:
                # Micro j fully done: reassemble its full-model gradient
                # and collect the outbound contribution through the same
                # path the round loop uses.
                snap = partials[j]
                for p in self.model.parameters():
                    p.grad[...] = snap.pop(id(p))
                out_row[j] = self._collect_rank_grads()
                self._zero_local_grads()

    def _book_pipeline_transfers(self, micros: Sequence[Any]) -> None:
        """Analytic stage-boundary byte accounting (process backend).

        Workers run each microbatch depth-first — numerically identical
        to any schedule — so no activation is ever materialized on a
        boundary. The parent books the traffic the inline schedule
        would move: per micro, per boundary, one forward activation and
        one backward gradient of the same size.
        """
        bus = self.telemetry
        for micro in micros:
            imgs = micro[0] if isinstance(micro, tuple) else micro
            batch = int(imgs.shape[0])
            itemsize = np.result_type(imgs.dtype, self._param_dtype).itemsize
            sizes = boundary_nbytes(self._ops, self._stage_bounds, batch, itemsize)
            for nbytes in sizes:
                for _direction in ("fwd", "bwd"):
                    self.comm.stats.record("send", 2, float(nbytes))
                    if bus.enabled:
                        with bus.span(
                            "comm.send", bytes=float(nbytes), axis="pp"
                        ):
                            pass

    # -- the step ----------------------------------------------------------

    def train_step(self, micros: Sequence[Any], step_fn: StepFn) -> float:
        """One optimizer step over ``grad_accum_steps * dp`` microbatches.

        ``step_fn(model, micro)`` must run forward *and* backward for one
        microbatch (accumulating into the model's gradients) and return
        the scalar loss. Micro ``(round j, dp-rank r)`` sits at index
        ``j * dp + r``; the optimizer fires once per call. Returns the
        mean loss across all microbatches.
        """
        self._check_micros(micros)
        k = self.grad_accum_steps
        dp = self.dp
        bus = self.telemetry
        bus.set_step(self.step_count)
        self._emit_precision_gauges()
        losses: list[float] = []
        # micro_grads[j][r][i]: round j, rank r's contribution i, already
        # loss-scaled/quantized for the wire.
        micro_grads: list[list[list[np.ndarray]]] = []
        try:
            if self.pp > 1 and self._backend.name == "inline":
                losses, micro_grads = self._run_pipeline(micros, k)
            else:
                for j in range(k):
                    # Flat-unit plans re-gather parameters every round
                    # even when the gradient sync is deferred.
                    if self._gathers_per_round:
                        self._issue_param_allgathers()
                    with bus.span("compute.fwd_bwd"):
                        cast = [
                            self._cast_micro(micros[j * dp + r]) for r in range(dp)
                        ]
                        round_losses, per_rank = self._backend.run_round(
                            j, cast, step_fn
                        )
                        losses.extend(round_losses)
                        micro_grads.append(per_rank)
                    if self._gathers_per_round == 2:
                        self._issue_param_allgathers()
                if self.pp > 1:
                    self._book_pipeline_transfers(micros)
        except Exception:
            # A step_fn (or materialization collective) that fails
            # mid-step would otherwise leave every module holding its
            # activation cache — a model's worth of arrays pinned until
            # the next successful step.
            self.model.release_caches()
            raise

        try:
            reduced = self._reduce_gradients(micro_grads)
        except CollectiveError:
            # Retry budget exhausted: same cleanup contract, so
            # re-driving the step starts from a clean cache state.
            self.model.release_caches()
            raise

        apply_update = self._grad_postprocess(reduced)
        for buf, idxs in zip(reduced, self._slots):
            offset = 0
            for i in idxs:
                g = self._targets[i].grad
                g[...] = buf[offset : offset + g.size].reshape(g.shape)
                offset += g.size
        if apply_update:
            with bus.span("optim.step"):
                self.optimizer.step()
        self.step_count += 1
        return float(np.mean(losses))


def _cast_tree(micro: Any) -> Any:
    if isinstance(micro, np.ndarray):
        return bf16_round(micro) if micro.dtype.kind == "f" else micro
    if isinstance(micro, (tuple, list)):
        return type(micro)(_cast_tree(m) for m in micro)
    return micro


def _normalize_strategy(strategy) -> tuple[ShardingStrategy, int | None]:
    """Map a strategy name/enum onto (ShardingStrategy, implied shard size)."""
    if isinstance(strategy, ShardingStrategy):
        return strategy, None
    label = str(strategy).strip()
    if label.lower() in STRATEGY_CHOICES:
        label = label.upper()
    return parse_strategy(label)


def make_engine(
    model: "Module",
    strategy: str | ShardingStrategy = "ddp",
    *,
    world: "World",
    config: EngineConfig | None = None,
    **overrides,
) -> Engine:
    """Build a training engine for any strategy with one call.

    Parameters
    ----------
    model:
        The NumPy model to train.
    strategy:
        ``"ddp"``, ``"no_shard"``, ``"full_shard"``, ``"shard_grad_op"``,
        ``"hybrid_shard"`` (any case), a paper label like
        ``"HYBRID_2GPUs"`` (which also implies ``shard_size``), or a
        :class:`~repro.core.sharding.ShardingStrategy` member. With
        ``config.mesh`` set, only ``"ddp"`` and ``"full_shard"`` are
        valid (the plan of the mesh's dp axis).
    world:
        Rank layout.
    config:
        Shared :class:`EngineConfig`; defaults to ``EngineConfig()``.
    overrides:
        Individual :class:`EngineConfig` fields applied on top of
        ``config`` for one-off tweaks
        (``make_engine(..., shard_size=2)``).
    """
    cfg = config if config is not None else EngineConfig()
    if overrides:
        cfg = replace(cfg, **overrides)
    strat, implied_shard = _normalize_strategy(strategy)
    if cfg.mesh is not None:
        if strat not in (ShardingStrategy.DDP, ShardingStrategy.FULL_SHARD):
            raise ValueError(
                f"strategy {strategy!r} cannot run on a mesh; the dp axis "
                "composes with 'ddp' or 'full_shard'"
            )
    elif implied_shard is not None:
        if cfg.shard_size is not None and cfg.shard_size != implied_shard:
            raise ValueError(
                f"strategy {strategy!r} implies shard_size={implied_shard}, "
                f"but config.shard_size={cfg.shard_size}"
            )
        cfg = replace(cfg, shard_size=implied_shard)
    return Engine(model, world, strat, cfg)
