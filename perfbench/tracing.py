"""Outside-in per-layer tracing by wrapping public methods.

The traced run replaces each public method listed by :func:`targets`
with a wrapper that times the call and subtracts the time of wrapped
calls made inside it, which gives the call's *self* time. Nothing under
``src/`` changes, and the untraced run never installs the wrappers.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Accumulates self time, total time and calls per span name.

    ``clock`` is injectable so the nesting arithmetic can be tested
    with a fake clock.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        # One entry per open span: seconds its wrapped children took.
        self._child_s: list[float] = []

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` timed under ``name``.

        ``on_call(tracer, name, args, kwargs, result, self_s)`` runs
        after the call, outside the timed interval, to book counts such
        as bytes or FLOPs.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._child_s
            stack.append(0.0)
            t0 = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.clock() - t0
                own = dur - stack.pop()
                tracer.self_s[name] += own
                tracer.total_s[name] += dur
                tracer.calls[name] += 1
                if stack:
                    stack[-1] += dur
            if on_call is not None:
                on_call(tracer, name, args, kwargs, result, own)
            return result

        return traced

    def self_total(self) -> float:
        """Sum of every span's self time: the wall time of the root spans."""
        return sum(self.self_s.values())


def _linear_flops(tracer, name, args, kwargs, result, self_s):
    layer, arr = args[0], args[1]
    rows = arr.size // arr.shape[-1]
    # Forward: one (rows x in) @ (in x out) GEMM. Backward: dW and dx.
    gemms = 1 if name.endswith(".forward") else 2
    tracer.counts["linear.flops"] += 2.0 * gemms * rows * layer.in_features * layer.out_features


def _optimizer_tensors(tracer, name, args, kwargs, result, self_s):
    tracer.counts["optim.tensors"] += len(args[0].params)


def _comm_bytes(axis_of):
    """Book input bytes (summed over ranks) per op, and calls, bytes and
    self time per mesh axis."""

    def book(tracer, name, args, kwargs, result, self_s):
        op = name.rsplit(".", 1)[1]
        if op == "send":
            nbytes, axis = args[1].nbytes, "pp"
        else:
            nbytes = sum(b.nbytes for b in args[1])
            group = args[2] if len(args) > 2 else kwargs["group"]
            axis = axis_of(group)
        tracer.counts[f"comm.{op}.bytes"] += nbytes
        if axis is not None:
            tracer.counts[f"comm.{axis}.{op}.calls"] += 1
            tracer.counts[f"comm.{axis}.{op}.bytes"] += nbytes
            tracer.counts[f"comm.{axis}.{op}.self_s"] += self_s

    return book


def _digest_count(tracer, name, args, kwargs, result, self_s):
    tracer.counts["serve.digests"] += 1


def _cache_outcome(tracer, name, args, kwargs, result, self_s):
    tracer.counts["serve.cache_hits" if result is not None else "serve.cache_misses"] += 1


def _batch_images(tracer, name, args, kwargs, result, self_s):
    tracer.counts["serve.batched_images"] += len(args[1])


def targets(axis_of=lambda group: None):
    """``(owner, attribute, span name, on_call)`` for every traced call.

    ``axis_of(group)`` names the mesh axis a collective's group spans,
    or ``None`` outside a mesh.
    """
    import repro.serve.server as server_mod
    from repro.comm.collectives import SimComm
    from repro.core.trainer import MAEPretrainer
    from repro.models.attention import MultiHeadSelfAttention
    from repro.models.layers import GELU, LayerNorm, Linear
    from repro.models.mae import MaskedAutoencoder
    from repro.optim.base import Optimizer
    from repro.serve.cache import LRUFeatureCache
    from repro.serve.replica import Replica
    from repro.serve.server import InferenceServer

    out = []
    for cls, label in (
        (Linear, "linear"),
        (LayerNorm, "layernorm"),
        (GELU, "gelu"),
        (MultiHeadSelfAttention, "attention"),
        (MaskedAutoencoder, "mae"),
    ):
        hook = _linear_flops if cls is Linear else None
        for meth in ("forward", "backward"):
            out.append((cls, meth, f"models.{label}.{meth}", hook))
    out.append((Optimizer, "step", "optim.step", _optimizer_tensors))
    comm_hook = _comm_bytes(axis_of)
    for op in ("all_reduce", "all_gather", "reduce_scatter", "send"):
        out.append((SimComm, op, f"comm.{op}", comm_hook))
    out.append((MAEPretrainer, "run", "trainer.run", None))
    out.append((InferenceServer, "run", "serve.run", None))
    out.append((Replica, "run_batch", "serve.run_batch", _batch_images))
    out.append((server_mod, "image_digest", "serve.image_digest", _digest_count))
    out.append((LRUFeatureCache, "get", "serve.cache.get", _cache_outcome))
    out.append((LRUFeatureCache, "put", "serve.cache.put", None))
    return out


@contextmanager
def installed(tracer: Tracer, engine=None, axis_of=lambda group: None):
    """Wrap every target (and ``engine.train_step``) for the block's duration.

    The engine's ``train_step`` is wrapped on its class, since the engine
    kind differs per workload. Originals are restored on exit.
    """
    patches = targets(axis_of)
    if engine is not None:
        patches.append((type(engine), "train_step", "engine.train_step", None))
    saved = []
    try:
        for owner, attr, name, hook in patches:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


COMM_OPS = ("all_reduce", "all_gather", "reduce_scatter", "send")
#: (axis, op) pairs the 2x2x2 mesh issues, split out by group.
MESH_AXIS_OPS = (("tp", "all_gather"), ("dp", "all_gather"), ("dp", "reduce_scatter"), ("pp", "send"))
#: Per-layer metrics of the traced run: name -> (unit, better). Training
#: rows are per timed step, serving rows per request unless the name
#: says otherwise; a layer a workload never calls reports 0.
PER_LAYER = {
    "models.linear_ms": ("ms", "lower"),
    "models.linear_gflops": ("GFLOP/s", "higher"),
    "models.layernorm_ms": ("ms", "lower"),
    "models.gelu_ms": ("ms", "lower"),
    "models.attention_ms": ("ms", "lower"),
    "models.mae_ms": ("ms", "lower"),
    "models.fwd_ms": ("ms", "lower"),
    "models.bwd_ms": ("ms", "lower"),
    "optim.step_ms": ("ms", "lower"),
    "optim.tensors": ("count", "lower"),
    **{
        f"comm.{op}_{field}": (unit, "lower")
        for op in COMM_OPS
        for field, unit in (("ms", "ms"), ("calls", "count"), ("mb", "MB"))
    },
    "comm.retries": ("count", "lower"),
    **{
        f"comm.{axis}.{op}_{field}": (unit, "lower")
        for axis, op in MESH_AXIS_OPS
        for field, unit in (("ms", "ms"), ("calls", "count"), ("mb", "MB"))
    },
    "engine.self_ms": ("ms", "lower"),
    "trainer.loop_ms": ("ms", "lower"),
    "serve.encode_ms_per_batch": ("ms", "lower"),
    "serve.batch_size_mean": ("images", "higher"),
    "serve.digest_us": ("us", "lower"),
    "serve.cache_hit_share": ("share", "higher"),
    "serve.cache_us": ("us", "lower"),
    "serve.loop_ms": ("ms", "lower"),
    "serve.rejected": ("count", "lower"),
    "serve.timed_out": ("count", "lower"),
    "serve.failed": ("count", "lower"),
    "trace.wall_ms": ("ms", "lower"),
    "trace.residual_share": ("share", "lower"),
    "trace.overhead_share": ("share", "lower"),
}

#: Largest share of the traced wall time the self times may leave
#: unexplained before the trace is declared broken.
RESIDUAL_LIMIT = 0.05


def per_layer_metrics(
    tracer: Tracer, per: int, traced_wall_s: float, overhead_share: float,
    retries: int = 0, outcomes: dict | None = None,
) -> dict:
    """The :data:`PER_LAYER` values from one traced window.

    ``per`` is the number of steps (training) or requests (serving) the
    window timed, ``traced_wall_s`` their wall time measured outside
    the wrappers, and ``outcomes`` the serving verdict counts.
    """
    s, total, calls, counts = tracer.self_s, tracer.total_s, tracer.calls, tracer.counts

    def ms(*names, table=s):
        return sum(table.get(n, 0.0) for n in names) * 1e3 / per

    linear_s = s.get("models.linear.forward", 0.0) + s.get("models.linear.backward", 0.0)
    batches = calls.get("serve.run_batch", 0)
    lookups = counts.get("serve.cache_hits", 0) + counts.get("serve.cache_misses", 0)
    digests = counts.get("serve.digests", 0)
    out = {
        "models.linear_ms": ms("models.linear.forward", "models.linear.backward"),
        "models.linear_gflops": counts.get("linear.flops", 0) / linear_s / 1e9 if linear_s else 0.0,
        "models.layernorm_ms": ms("models.layernorm.forward", "models.layernorm.backward"),
        "models.gelu_ms": ms("models.gelu.forward", "models.gelu.backward"),
        "models.attention_ms": ms("models.attention.forward", "models.attention.backward"),
        "models.mae_ms": ms("models.mae.forward", "models.mae.backward"),
        "models.fwd_ms": ms("models.mae.forward", table=total),
        "models.bwd_ms": ms("models.mae.backward", table=total),
        "optim.step_ms": ms("optim.step"),
        "optim.tensors": counts.get("optim.tensors", 0) / per,
        "comm.retries": retries / per,
        "engine.self_ms": ms("engine.train_step"),
        "trainer.loop_ms": ms("trainer.run"),
        "serve.encode_ms_per_batch": total.get("serve.run_batch", 0.0) * 1e3 / batches if batches else 0.0,
        "serve.batch_size_mean": counts.get("serve.batched_images", 0) / batches if batches else 0.0,
        "serve.digest_us": total.get("serve.image_digest", 0.0) * 1e6 / digests if digests else 0.0,
        "serve.cache_hit_share": counts.get("serve.cache_hits", 0) / lookups if lookups else 0.0,
        "serve.cache_us": (total.get("serve.cache.get", 0.0) + total.get("serve.cache.put", 0.0)) * 1e6 / per,
        "serve.loop_ms": ms("serve.run"),
        "trace.wall_ms": traced_wall_s * 1e3 / per,
        "trace.residual_share": (traced_wall_s - tracer.self_total()) / traced_wall_s,
        "trace.overhead_share": overhead_share,
    }
    for key in ("rejected", "timed_out", "failed"):
        out[f"serve.{key}"] = (outcomes or {}).get(key, 0)
    for op in COMM_OPS:
        out[f"comm.{op}_ms"] = ms(f"comm.{op}")
        out[f"comm.{op}_calls"] = calls.get(f"comm.{op}", 0) / per
        out[f"comm.{op}_mb"] = counts.get(f"comm.{op}.bytes", 0) / 1e6 / per
    for axis, op in MESH_AXIS_OPS:
        key = f"comm.{axis}.{op}"
        out[f"{key}_ms"] = counts.get(f"{key}.self_s", 0.0) * 1e3 / per
        out[f"{key}_calls"] = counts.get(f"{key}.calls", 0) / per
        out[f"{key}_mb"] = counts.get(f"{key}.bytes", 0) / 1e6 / per
    return out
