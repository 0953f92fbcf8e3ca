"""Contrastive (SimCLR) pretraining loop.

The contrastive counterpart of :class:`repro.core.trainer.MAEPretrainer`:
drives any engine through NT-Xent pretraining, with augmentations a pure
function of (seed, step) so distributed runs stay equivalent to the
single-process reference, exactly like the MAE trainer.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

import numpy as np

from repro.core.engine import Engine
from repro.core.trainer import CheckpointingTrainer, TrainResult
from repro.data.transforms import augment_view
from repro.models.simclr import SimCLRModel
from repro.optim.schedules import CosineWithWarmup
from repro.telemetry import StepStats, TelemetryBus

__all__ = ["SimCLRPretrainer"]


def _simclr_step_fn(model: SimCLRModel, micro) -> float:
    view_a, view_b = micro
    out = model.forward(view_a, view_b)
    model.backward()
    return out.loss


class SimCLRPretrainer(CheckpointingTrainer):
    """Contrastive pretraining over an image corpus.

    Distributed note: like real SimCLR without an embedding all-gather,
    each rank contrasts only against its *local* negatives, so runs at
    different world sizes optimize slightly different objectives (unlike
    the MAE trainer, whose loss is sample-separable). Sharding-strategy
    equivalence at a fixed world size still holds exactly.
    """

    def __init__(
        self,
        engine: Engine,
        images: np.ndarray,
        global_batch: int,
        schedule: Callable[[int], float] | None = None,
        seed: int = 0,
        checkpoint_dir: str | None = None,
        save_every: int = 0,
        keep: int = 3,
        preemption=None,
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
        if global_batch // n_micros < 2:
            raise ValueError(
                "contrastive training needs >= 2 samples per rank "
                "(in-batch negatives)"
            )
        if global_batch > len(images):
            raise ValueError(
                f"global batch {global_batch} exceeds corpus size {len(images)}"
            )
        if not isinstance(engine.model, SimCLRModel):
            raise TypeError("SimCLRPretrainer requires a SimCLRModel")
        self.engine = engine
        self.images = images
        self.global_batch = global_batch
        self.schedule = schedule
        self.seed = seed
        self.steps_per_epoch = len(images) // global_batch
        self._init_checkpointing(checkpoint_dir, save_every, keep, preemption)
        self._init_telemetry(telemetry)

    def _epoch_order(self, epoch: int) -> np.ndarray:
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, 7919, epoch]))
        )
        return rng.permutation(len(self.images))

    def _views(self, imgs: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
        rng_a = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, 311, step]))
        )
        rng_b = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, 313, step]))
        )
        return augment_view(imgs, rng_a), augment_view(imgs, rng_b)

    def run(self, n_steps: int, start_step: int = 0) -> TrainResult:
        """Train for steps ``[start_step, start_step + n_steps)``; see ``MAEPretrainer.run``."""
        if n_steps <= 0:
            raise ValueError(f"n_steps must be positive, got {n_steps}")
        schedule = self.schedule
        if schedule is None:
            schedule = CosineWithWarmup(
                base_lr=self.engine.lr,
                total_steps=start_step + n_steps,
                warmup_steps=max(1, (start_step + n_steps) // 10),
            )
        # One micro slot per (accumulation round, rank), round-major —
        # same convention as MAEPretrainer.
        n_micros = self.engine.data_parallel_size * self.engine.grad_accum_steps
        micro = self.global_batch // n_micros
        result = TrainResult(steps_per_epoch=self.steps_per_epoch)
        order = self._epoch_order(start_step // self.steps_per_epoch)
        for step in range(start_step, start_step + n_steps):
            epoch, pos = divmod(step, self.steps_per_epoch)
            if pos == 0 and step > start_step:
                order = self._epoch_order(epoch)
            idx = order[pos * self.global_batch : (pos + 1) * self.global_batch]
            imgs = self.images[idx]
            view_a, view_b = self._views(imgs, step)
            micros = [
                (view_a[m * micro : (m + 1) * micro],
                 view_b[m * micro : (m + 1) * micro])
                for m in range(n_micros)
            ]
            self.engine.lr = schedule(step)
            t0 = perf_counter()
            loss = self.engine.train_step(micros, _simclr_step_fn)
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
