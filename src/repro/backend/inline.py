"""The inline execution backend: all ranks run in the calling process.

This is the historical behavior of the engine, factored behind the
:class:`ExecutionBackend` seam so :class:`~repro.core.engine.Engine`
runs one compute loop regardless of where rank compute actually runs.
The engine owns everything outside the loop (casting, collectives,
optimizer, telemetry); a backend owns
exactly one thing — running ``step_fn`` for every rank of one
accumulation round and handing back the per-rank outbound gradients.

The contract both backends honor (the differential suite in
``tests/test_backend`` asserts it bit-for-bit under fp32):

- ranks run in ascending order within a round, each against the rank's
  already-cast microbatch, with local gradients zeroed first;
- ``per_rank[r]`` holds rank ``r``'s outbound contributions (already
  loss-scaled/quantized for the wire) in the engine's parameter/unit
  order, ready for the engine's unchanged deterministic reduction.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

__all__ = ["ExecutionBackend", "InlineBackend"]


class ExecutionBackend:
    """Where rank forward/backward compute runs (subclass hook).

    Engines construct a backend before the optimizer (a backend may
    re-home parameter storage), then call :meth:`start` once the model
    is fully wired, :meth:`run_round` once per accumulation round, and
    :meth:`shutdown` from ``engine.close()``.
    """

    #: Name reported in telemetry/benchmarks.
    name = "base"

    def __init__(self, engine):
        self.engine = engine

    def start(self) -> None:
        """Bring up workers (no-op for inline)."""

    def run_round(
        self, round_index: int, micros: Sequence[Any], step_fn: Callable
    ) -> tuple[list[float], list[list[np.ndarray]]]:
        """Run one accumulation round; returns ``(losses, per_rank_grads)``."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Tear down workers and release shared resources (idempotent)."""


class InlineBackend(ExecutionBackend):
    """Sequential rank-SPMD execution on the calling thread."""

    name = "inline"

    def run_round(self, round_index, micros, step_fn):
        eng = self.engine
        losses: list[float] = []
        per_rank: list[list[np.ndarray]] = []
        for micro in micros:
            eng._zero_local_grads()
            losses.append(float(step_fn(eng.model, micro)))
            per_rank.append(eng._collect_rank_grads())
        return losses, per_rank
