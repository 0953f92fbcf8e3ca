"""Characterization of every engine plan's observable call pattern.

For one inline step of each configuration below this pins what the
rest of the codebase keys off: the per-op collective calls and wire
bytes in ``comm.stats``, a digest of the ordered call log (op, group
ranks, buffer count, payload bytes — so group order is pinned too), the
``topology()`` dict checkpoints record, the ``state_dict`` key layout,
and a digest of the telemetry event stream without its timings (which
spans carry an ``axis`` tag feeds ``RunReport.axis_bytes``). Snapshots, the elastic resharder and the MESHPERF
reconciliation all read these, so any engine refactor must leave every
row unchanged.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.comm.collectives import SimComm
from repro.comm.world import World
from repro.core.engine import EngineConfig, make_engine
from repro.elastic.layout import ReductionLayout
from repro.mesh.spec import MeshSpec
from repro.telemetry import RecordingSink, TelemetryBus

from tests.test_mesh.helpers import build_model, mae_step, tiny_micros


class RecordingComm(SimComm):
    """A SimComm that also logs every call in issue order."""

    def __init__(self):
        super().__init__()
        self.log: list[tuple] = []

    def all_reduce(self, buffers, group, op="sum", **kw):
        self.log.append(("all_reduce", group.ranks, len(buffers), buffers[0].nbytes))
        return super().all_reduce(buffers, group, op, **kw)

    def reduce_scatter(self, buffers, group, op="sum", **kw):
        self.log.append(
            ("reduce_scatter", group.ranks, len(buffers), buffers[0].nbytes)
        )
        return super().reduce_scatter(buffers, group, op, **kw)

    def all_gather(self, shards, group, **kw):
        self.log.append(
            ("all_gather", group.ranks, len(shards), sum(s.nbytes for s in shards))
        )
        return super().all_gather(shards, group, **kw)

    def send(self, buf, src, dst, **kw):
        self.log.append(("send", (src, dst), 1, buf.nbytes))
        return super().send(buf, src, dst, **kw)


_MESH = MeshSpec(pp=2, dp=2, tp=2, schedule="1f1b")

# name -> (strategy, world size, microbatches per step, EngineConfig
# overrides)
CONFIGS = {
    "ddp_buckets": ("ddp", 2, 2, {"bucket_cap_bytes": 16 * 1024}),
    "no_shard": ("no_shard", 4, 4, {}),
    "full_shard": ("full_shard", 4, 4, {}),
    "shard_grad_op": ("shard_grad_op", 4, 4, {}),
    "hybrid_s2_k1": ("hybrid_shard", 4, 4, {"shard_size": 2}),
    "hybrid_s2_k2": (
        "hybrid_shard", 4, 8, {"shard_size": 2, "grad_accum_steps": 2}
    ),
    "hybrid_folded": (
        "hybrid_shard",
        4,
        8,
        {
            "shard_size": 4,
            "grad_accum_steps": 2,
            "reduction_layout": ReductionLayout(total=8, chunk=8),
        },
    ),
    "mesh_ddp": ("ddp", 8, 2, {"mesh": _MESH}),
    "mesh_full_shard": ("full_shard", 8, 2, {"mesh": _MESH}),
}


def _topology(kind, strategy, world, shard, k, layout, mesh=None):
    out = {
        "kind": kind,
        "strategy": strategy,
        "world_size": world,
        "ranks_per_node": 8,
        "shard_size": shard,
        "grad_accum_steps": k,
        "layout": {"total": layout[0], "chunk": layout[1]},
        "precision": "fp32",
        "backend": "inline",
    }
    if mesh is not None:
        out["mesh"] = {"pp": 2, "dp": 2, "tp": 2, "schedule": "1f1b"}
    return out


# name -> (calls_by_op, bytes_by_op, call-log digest, topology,
# optimizer slot count)
EXPECTED = {
    "ddp_buckets": (
        {"all_reduce": 29},
        {"all_reduce": 900096.0},
        "d7baeafd54283d13",
        _topology("ddp", "DDP", 2, None, 1, (2, 2)),
        60,
    ),
    "no_shard": (
        {"all_reduce": 5},
        {"all_reduce": 2700288.0},
        "2fbed1f15b18df3f",
        _topology("fsdp", "NO_SHARD", 4, 1, 1, (4, 4)),
        5,
    ),
    "full_shard": (
        {"all_gather": 10, "reduce_scatter": 5},
        {"all_gather": 2700288.0, "reduce_scatter": 1350144.0},
        "c68c0daf8340ed1b",
        _topology("fsdp", "FULL_SHARD", 4, 4, 1, (4, 4)),
        20,
    ),
    "shard_grad_op": (
        {"all_gather": 5, "reduce_scatter": 5},
        {"all_gather": 1350144.0, "reduce_scatter": 1350144.0},
        "bd0d3d3aea49f50b",
        _topology("fsdp", "SHARD_GRAD_OP", 4, 4, 1, (4, 4)),
        20,
    ),
    "hybrid_s2_k1": (
        {"all_gather": 10, "reduce_scatter": 10, "all_reduce": 10},
        {"all_gather": 900096.0, "reduce_scatter": 900096.0, "all_reduce": 900096.0},
        "ce82dd630bbdb61c",
        _topology("fsdp", "HYBRID_SHARD", 4, 2, 1, (4, 2)),
        10,
    ),
    "hybrid_s2_k2": (
        {"all_gather": 20, "reduce_scatter": 20, "all_reduce": 10},
        {
            "all_gather": 1800192.0,
            "reduce_scatter": 1800192.0,
            "all_reduce": 900096.0,
        },
        "c49fa32e2daefd9f",
        _topology("fsdp", "HYBRID_SHARD", 4, 2, 2, (8, 2)),
        10,
    ),
    "hybrid_folded": (
        {"all_gather": 10, "reduce_scatter": 5},
        {"all_gather": 2700288.0, "reduce_scatter": 1350144.0},
        "62f076213b4ea385",
        _topology("fsdp", "HYBRID_SHARD", 4, 4, 2, (8, 8)),
        20,
    ),
    "mesh_ddp": (
        {"all_gather": 96, "send": 4, "all_reduce": 1},
        {"all_gather": 372736.0, "send": 10240.0, "all_reduce": 900096.0},
        "beefb434bd77945e",
        _topology("mesh", "ddp", 8, None, 1, (2, 2), mesh=True),
        60,
    ),
    "mesh_full_shard": (
        {"all_gather": 106, "send": 4, "reduce_scatter": 5},
        {"all_gather": 1272832.0, "send": 10240.0, "reduce_scatter": 450048.0},
        "5dee95a8b3d04217",
        _topology("mesh", "full_shard", 8, 2, 1, (2, 2), mesh=True),
        10,
    ),
}

#: Every engine snapshots the same top-level and optimizer keys.
STATE_KEYS = ["model", "optimizer", "scaler", "step_count"]
OPTIMIZER_KEYS = ["lr", "slots", "t"]
MODEL_TENSORS = 60


def _observe(name):
    strategy, world, n_micros, overrides = CONFIGS[name]
    comm = RecordingComm()
    engine = make_engine(
        build_model(),
        strategy,
        world=World(world, ranks_per_node=8),
        config=EngineConfig(comm=comm, **overrides),
    )
    try:
        engine.train_step(tiny_micros(n_micros), mae_step)
        stats = comm.stats
        calls = {op: c for op, c in stats.calls_by_op.items() if c}
        nbytes = {op: stats.bytes_by_op[op] for op in calls}
        digest = hashlib.sha256(repr(comm.log).encode()).hexdigest()[:16]
        sd = engine.state_dict()
        keys = (sorted(sd), sorted(sd["optimizer"]), len(sd["model"]))
        slots = len(sd["optimizer"]["slots"])
        return calls, nbytes, digest, engine.topology(), keys, slots
    finally:
        engine.close()


@pytest.mark.parametrize("name", list(CONFIGS))
def test_engine_plan_is_pinned(name):
    calls, nbytes, digest, topology, keys, slots = _observe(name)
    want_calls, want_bytes, want_digest, want_topology, want_slots = EXPECTED[name]
    assert calls == want_calls
    assert nbytes == want_bytes
    assert digest == want_digest
    assert topology == want_topology
    assert keys == (STATE_KEYS, OPTIMIZER_KEYS, MODEL_TENSORS)
    assert slots == want_slots


def _event_digest(name):
    strategy, world, n_micros, overrides = CONFIGS[name]
    bus = TelemetryBus(RecordingSink())
    engine = make_engine(
        build_model(),
        strategy,
        world=World(world, ranks_per_node=8),
        config=EngineConfig(telemetry=bus, **overrides),
    )
    try:
        engine.train_step(tiny_micros(n_micros), mae_step)
    finally:
        engine.close()
    shape = [
        (e.kind, e.name, e.step, e.depth, sorted(e.attrs.items()))
        for e in bus.sink.events
    ]
    return hashlib.sha256(repr(shape).encode()).hexdigest()[:16]


EVENT_DIGESTS = {
    "ddp_buckets": "b51cf69c9bdaf550",
    "no_shard": "ab7331620a81a4df",
    "full_shard": "0ce5724f840ced20",
    "shard_grad_op": "fb9ee73759df56fb",
    "hybrid_s2_k1": "83e93cfc971e60ce",
    "hybrid_s2_k2": "6ff68140e9ae9668",
    "hybrid_folded": "29193b51e85f6725",
    "mesh_ddp": "02ddcfaab04f5ebf",
    "mesh_full_shard": "d601af6fa9b030cf",
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_engine_telemetry_shape_is_pinned(name):
    assert _event_digest(name) == EVENT_DIGESTS[name]
