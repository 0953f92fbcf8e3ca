"""MAE pretraining loop (paper Section V-B recipe, proxy scale).

The trainer owns the data order and the MAE masking noise, both derived
deterministically from the seed and the global step — *not* from the rank
— so the same run under any world size / sharding strategy sees identical
samples and masks. This is what makes the engine-equivalence guarantees
testable end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from repro.core.checkpoints import CheckpointManager
from repro.core.engine import Engine
from repro.elastic.errors import ElasticCompatibilityError, PreemptedError
from repro.elastic.preemption import PreemptionToken
from repro.models.mae import MaskedAutoencoder
from repro.models.workspace import Workspace
from repro.optim.schedules import CosineWithWarmup
from repro.telemetry import NULL_BUS, StepStats, TelemetryBus

__all__ = ["MAEPretrainer", "TrainResult", "CheckpointingTrainer"]


@dataclass
class TrainResult:
    """Per-step records of one pretraining run."""

    losses: list[float] = field(default_factory=list)
    lrs: list[float] = field(default_factory=list)
    steps_per_epoch: int = 0

    @property
    def n_steps(self) -> int:
        """Number of recorded optimizer steps."""
        return len(self.losses)

    def epoch_means(self) -> np.ndarray:
        """Mean loss per epoch (trailing partial epoch included)."""
        if not self.losses or self.steps_per_epoch <= 0:
            return np.array([])
        arr = np.asarray(self.losses)
        n_full = len(arr) // self.steps_per_epoch
        means = [
            arr[i * self.steps_per_epoch : (i + 1) * self.steps_per_epoch].mean()
            for i in range(n_full)
        ]
        if len(arr) % self.steps_per_epoch:
            means.append(arr[n_full * self.steps_per_epoch :].mean())
        return np.asarray(means)


class CheckpointingTrainer:
    """Elastic-recovery mixin shared by the pretraining loops.

    Gives a trainer periodic atomic snapshots (``save_every``) and
    :meth:`resume`. A snapshot captures everything the trajectory depends
    on — engine state (model params, optimizer moments, step count) plus
    the loss/LR history — while the data order, augmentation/masking
    noise, and LR schedule are pure functions of (seed, absolute step),
    so restoring the snapshot and replaying from its step is bit-identical
    to never having stopped (the ``chaos`` test campaign asserts this).

    Host classes must provide ``engine``, ``seed``, ``global_batch``,
    ``steps_per_epoch`` and a ``run(n_steps, start_step)`` that calls
    :meth:`_record_step` once per optimizer step.
    """

    checkpoints: CheckpointManager | None
    save_every: int
    preemption: PreemptionToken | None

    def _init_checkpointing(
        self,
        checkpoint_dir: str | None,
        save_every: int,
        keep: int,
        preemption: PreemptionToken | None = None,
    ) -> None:
        if save_every < 0:
            raise ValueError(f"save_every must be non-negative, got {save_every}")
        if save_every and checkpoint_dir is None:
            raise ValueError("save_every requires a checkpoint_dir")
        self.checkpoints = (
            CheckpointManager(checkpoint_dir, keep=keep) if checkpoint_dir else None
        )
        self.save_every = save_every
        self.preemption = preemption
        self._hist_losses: list[float] = []
        self._hist_lrs: list[float] = []

    def _init_telemetry(self, telemetry: TelemetryBus | None) -> None:
        """Resolve the trainer's bus: an explicit one wins (and is shared
        down into the engine unless the engine already has a live bus);
        otherwise the trainer inherits the engine's."""
        engine_bus = getattr(self.engine, "telemetry", NULL_BUS)
        if telemetry is not None:
            self.telemetry = telemetry
            if not engine_bus.enabled:
                self.engine.telemetry = telemetry
        else:
            self.telemetry = engine_bus

    def state_dict(self) -> dict:
        """Everything the trajectory depends on: engine + loss/LR history."""
        return {
            "engine": self.engine.state_dict(),
            "history": {
                "losses": np.asarray(self._hist_losses, dtype=np.float64),
                "lrs": np.asarray(self._hist_lrs, dtype=np.float64),
            },
        }

    def load_state_dict(self, sd: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (engine + history)."""
        self.engine.load_state_dict(sd["engine"])
        self._hist_losses = [float(x) for x in sd["history"]["losses"]]
        self._hist_lrs = [float(x) for x in sd["history"]["lrs"]]

    def _record_step(self, step: int, loss: float, lr: float) -> None:
        """Append one step to the history; snapshot on the save cadence.

        This is also the preemption drain point: when the trainer's
        :class:`~repro.elastic.preemption.PreemptionToken` has tripped
        (signal) or armed (scheduler), the step that just completed is
        snapshotted — exactly once — and
        :class:`~repro.elastic.errors.PreemptedError` unwinds the run so
        a requeue driver can rebuild the next allocation.
        """
        self._hist_losses.append(loss)
        self._hist_lrs.append(lr)
        saved: str | None = None
        if self.checkpoints is not None and self.save_every:
            if (step + 1) % self.save_every == 0:
                saved = self.save_snapshot()
        tok = self.preemption
        if tok is not None and tok.should_preempt(step):
            if saved is None and self.checkpoints is not None:
                saved = self.save_snapshot()
            if self.telemetry.enabled:
                self.telemetry.counter(
                    "elastic.preemptions", 1, reason=tok.reason or "unknown"
                )
            raise PreemptedError(step=step, checkpoint=saved)

    def save_snapshot(self) -> str:
        """Atomically snapshot the engine + history at the current step.

        The metadata records the engine topology (world size, strategy,
        shard size, reduction layout) so :meth:`resume` can refuse — and
        :func:`repro.elastic.elastic_resume` can reshard — a restore
        into a differently-shaped world.
        """
        if self.checkpoints is None:
            raise ValueError("trainer was constructed without a checkpoint_dir")
        state = self.state_dict()
        meta = {
            "seed": self.seed,
            "global_batch": self.global_batch,
            "elastic": self.engine.topology(),
        }
        return self.checkpoints.save(state, step=self.engine.step_count, meta=meta)

    def resume(self, total_steps: int) -> TrainResult:
        """Train through absolute step ``total_steps``, restoring the
        latest valid snapshot first (corrupt ones are skipped).

        Starts from scratch when no valid snapshot exists. Returns the
        *full* history (restored + newly trained), so the result of an
        interrupted-and-resumed run compares 1:1 against an
        uninterrupted ``run(total_steps)``.
        """
        if self.checkpoints is None:
            raise ValueError("resume() requires a checkpoint_dir")
        if total_steps <= 0:
            raise ValueError(f"total_steps must be positive, got {total_steps}")
        start = 0
        loaded = self.checkpoints.latest_valid()
        if loaded is not None:
            state, meta, _ = loaded
            if meta.get("seed") != self.seed or meta.get("global_batch") != self.global_batch:
                raise ValueError(
                    f"snapshot was taken with seed={meta.get('seed')}, "
                    f"global_batch={meta.get('global_batch')}; trainer has "
                    f"seed={self.seed}, global_batch={self.global_batch}"
                )
            self._check_snapshot_topology(meta)
            try:
                self.load_state_dict(state)
            except (ValueError, KeyError) as e:
                # A legacy (pre-topology) snapshot from a different world
                # can fail structurally deep in the optimizer; surface it
                # as the typed elastic error with the way out.
                raise ElasticCompatibilityError(
                    f"snapshot does not fit this engine ({e}); it was "
                    "likely saved under a different world size or sharding "
                    "strategy. Resume it through "
                    "repro.elastic.elastic_resume(trainer, total_steps), "
                    "which reshards the state."
                ) from e
            start = self.engine.step_count
        if total_steps < start:
            raise ValueError(
                f"snapshot is already at step {start}, beyond total_steps {total_steps}"
            )
        if total_steps > start:
            self.run(total_steps - start, start_step=start)
        return TrainResult(
            losses=list(self._hist_losses),
            lrs=list(self._hist_lrs),
            steps_per_epoch=self.steps_per_epoch,
        )

    def _check_snapshot_topology(self, meta: dict) -> None:
        """Refuse a plain resume across a world/sharding change.

        Snapshots record the engine topology under ``meta["elastic"]``;
        restoring one into a differently-shaped engine would either fail
        structurally (FSDP shard counts) or — worse — load cleanly and
        silently follow a different trajectory (a DDP world change
        re-slices every global batch). Both cases get the typed error;
        legacy snapshots without the record are loaded as before (the
        structural failure path still catches cross-shard loads).
        """
        recorded = meta.get("elastic")
        if recorded is None:
            return
        current = self.engine.topology()
        compare = (
            "strategy",
            "world_size",
            "shard_size",
            "grad_accum_steps",
            "layout",
            "precision",
            "mesh",
        )
        diffs = [
            f"{k}: snapshot {recorded.get(k)!r} != engine {current.get(k)!r}"
            for k in compare
            if recorded.get(k) != current.get(k)
        ]
        if diffs:
            raise ElasticCompatibilityError(
                "snapshot topology does not match this engine ("
                + "; ".join(diffs)
                + "). A direct resume would not continue the same "
                "trajectory; use repro.elastic.elastic_resume(trainer, "
                "total_steps) to reshard into this world, or rebuild the "
                "engine with the snapshot's topology."
            )


def _mae_step_fn(model: MaskedAutoencoder, micro) -> float:
    imgs, noise = micro
    out = model.forward(imgs, noise=noise)
    model.backward()
    return out.loss


class MAEPretrainer(CheckpointingTrainer):
    """Drives an engine through MAE pretraining on an image array.

    Parameters
    ----------
    engine:
        An :class:`~repro.core.engine.Engine` wrapping a
        :class:`MaskedAutoencoder`.
    images:
        Pretraining corpus, ``(N, C, H, W)``.
    global_batch:
        Global batch size; must be divisible by the world size.
    schedule:
        Step -> learning rate. Defaults to the paper's recipe scaled to
        the run length (cosine, 10% warmup).
    seed:
        Controls shuffling and masking noise only (weights were seeded at
        model construction).
    workspace:
        Attach a :class:`~repro.models.workspace.Workspace` to the model
        so steady-state steps reuse scratch buffers instead of
        allocating (on by default; numerics are unchanged). Skipped when
        the model already has one attached.
    checkpoint_dir:
        Directory for atomic training snapshots; enables
        :meth:`~CheckpointingTrainer.resume` and ``save_every``.
    save_every:
        Snapshot every this many optimizer steps (0 disables the
        cadence; explicit :meth:`~CheckpointingTrainer.save_snapshot`
        still works when a directory is set).
    keep:
        How many snapshots to retain (older ones are pruned).
    preemption:
        A :class:`~repro.elastic.preemption.PreemptionToken`; when it
        trips (signal) or arms (scheduler), the in-flight step drains, a
        final snapshot is written, and
        :class:`~repro.elastic.errors.PreemptedError` unwinds the run
        for the requeue driver.
    telemetry:
        Instrumentation bus; when given it is shared down into the
        engine (unless the engine already carries a live bus), and the
        trainer publishes per-step :class:`~repro.telemetry.StepStats`
        gauges (wall time, images/s, loss, lr). Defaults to the
        engine's bus.
    """

    def __init__(
        self,
        engine: Engine,
        images: np.ndarray,
        global_batch: int,
        schedule: Callable[[int], float] | None = None,
        seed: int = 0,
        workspace: bool = True,
        checkpoint_dir: str | None = None,
        save_every: int = 0,
        keep: int = 3,
        preemption: PreemptionToken | None = None,
        telemetry: TelemetryBus | None = None,
    ):
        if images.ndim != 4:
            raise ValueError(f"images must be (N, C, H, W), got {images.shape}")
        n_micros = engine.data_parallel_size * engine.grad_accum_steps
        if global_batch % n_micros != 0:
            raise ValueError(
                f"global batch {global_batch} not divisible by world size x "
                f"grad_accum_steps = {n_micros}"
            )
        if global_batch > len(images):
            raise ValueError(
                f"global batch {global_batch} exceeds corpus size {len(images)}"
            )
        if not isinstance(engine.model, MaskedAutoencoder):
            raise TypeError("MAEPretrainer requires a MaskedAutoencoder model")
        self.engine = engine
        self.images = images
        self.global_batch = global_batch
        self.schedule = schedule
        self.seed = seed
        self.steps_per_epoch = len(images) // global_batch
        self._init_checkpointing(checkpoint_dir, save_every, keep, preemption)
        self._init_telemetry(telemetry)
        if workspace and engine.model.workspace is None:
            engine.model.use_workspace(Workspace())

    def _epoch_order(self, epoch: int) -> np.ndarray:
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, 7919, epoch]))
        )
        return rng.permutation(len(self.images))

    def _step_noise(self, step: int, batch: int, n_patches: int) -> np.ndarray:
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, 104729, step]))
        )
        return rng.random((batch, n_patches))

    def run(self, n_steps: int, start_step: int = 0) -> TrainResult:
        """Train for steps ``[start_step, start_step + n_steps)``.

        ``start_step`` resumes an interrupted run: the data order,
        masking noise, and schedule are pure functions of the absolute
        step, so restoring an engine snapshot and passing the saved step
        count continues the original trajectory exactly (tested).
        """
        if n_steps <= 0:
            raise ValueError(f"n_steps must be positive, got {n_steps}")
        if start_step < 0:
            raise ValueError(f"start_step must be non-negative, got {start_step}")
        model: MaskedAutoencoder = self.engine.model
        n_patches = model.cfg.encoder.n_patches
        schedule = self.schedule
        if schedule is None:
            schedule = CosineWithWarmup(
                base_lr=self.engine.lr,
                total_steps=start_step + n_steps,
                warmup_steps=max(1, (start_step + n_steps) // 10),
            )
        # One micro slot per (accumulation round, data-parallel rank),
        # round-major — the same slicing a k-times-larger world would use
        # rank-major, which is what keeps fp32 accumulation bit-identical
        # across layouts. Mesh engines consume micros only along dp (tp
        # ranks share each micro; pp ranks split the model, not the data).
        n_micros = self.engine.data_parallel_size * self.engine.grad_accum_steps
        micro = self.global_batch // n_micros
        result = TrainResult(steps_per_epoch=self.steps_per_epoch)
        order = self._epoch_order(start_step // self.steps_per_epoch)
        for step in range(start_step, start_step + n_steps):
            epoch, pos = divmod(step, self.steps_per_epoch)
            if pos == 0 and step > 0:
                order = self._epoch_order(epoch)
            idx = order[pos * self.global_batch : (pos + 1) * self.global_batch]
            imgs = self.images[idx]
            noise = self._step_noise(step, self.global_batch, n_patches)
            micros = [
                (imgs[m * micro : (m + 1) * micro], noise[m * micro : (m + 1) * micro])
                for m in range(n_micros)
            ]
            self.engine.lr = schedule(step)
            t0 = perf_counter()
            loss = self.engine.train_step(micros, _mae_step_fn)
            if self.telemetry.enabled:
                wall = perf_counter() - t0
                StepStats(
                    step=step,
                    wall_s=wall,
                    images_per_s=self.global_batch / wall if wall > 0 else 0.0,
                    loss=loss,
                    lr=self.engine.lr,
                ).emit(self.telemetry)
            result.losses.append(loss)
            result.lrs.append(self.engine.lr)
            self._record_step(step, loss, self.engine.lr)
        return result
