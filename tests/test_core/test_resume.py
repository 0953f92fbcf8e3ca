"""Tests for engine checkpointing and exact training resume."""

import numpy as np
import pytest

from repro.comm.world import World
from repro.core.config import get_mae_config
from repro.core.engine import make_engine
from repro.core.sharding import ShardingStrategy
from repro.core.trainer import MAEPretrainer
from repro.models.mae import MaskedAutoencoder

CFG = get_mae_config("proxy-base")


def _fresh_engine(strategy=ShardingStrategy.FULL_SHARD, world_size=2):
    model = MaskedAutoencoder(CFG, rng=np.random.default_rng(7))
    return make_engine(model, strategy, world=World(world_size, ranks_per_node=2))


def _images():
    return np.random.default_rng(42).standard_normal((32, 3, 32, 32))


class TestEngineCheckpoint:
    def test_state_dict_roundtrip(self):
        engine = _fresh_engine()
        trainer = MAEPretrainer(engine, _images(), global_batch=8, seed=5)
        trainer.run(3)
        sd = engine.state_dict()
        assert sd["step_count"] == 3

        other = _fresh_engine()
        other.load_state_dict(sd)
        assert other.step_count == 3
        for (_, a), (_, b) in zip(
            engine.model.named_parameters(), other.model.named_parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data)

    def test_resume_reproduces_uninterrupted_run(self):
        # Uninterrupted: 6 steps.
        full = _fresh_engine()
        t_full = MAEPretrainer(full, _images(), global_batch=8, seed=5)
        losses_full = t_full.run(6).losses

        # Interrupted: 3 steps, checkpoint, restore into a new engine,
        # resume for 3 more.
        first = _fresh_engine()
        t1 = MAEPretrainer(first, _images(), global_batch=8, seed=5)
        # Match the uninterrupted run's schedule horizon.
        from repro.optim.schedules import CosineWithWarmup

        sched = CosineWithWarmup(base_lr=first.lr, total_steps=6, warmup_steps=1)
        t1.schedule = sched
        losses_a = t1.run(3).losses
        snapshot = first.state_dict()

        second = _fresh_engine()
        second.load_state_dict(snapshot)
        t2 = MAEPretrainer(second, _images(), global_batch=8, seed=5)
        t2.schedule = sched
        losses_b = t2.run(3, start_step=second.step_count).losses

        np.testing.assert_allclose(losses_a + losses_b, losses_full, atol=1e-12)
        for (_, a), (_, b) in zip(
            full.model.named_parameters(), second.model.named_parameters()
        ):
            np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_resume_across_strategies(self):
        """A FULL_SHARD checkpoint restores into a NO_SHARD engine
        (same shard count is not required for model weights; optimizer
        layouts differ, so only the model transfers)."""
        engine = _fresh_engine(ShardingStrategy.FULL_SHARD)
        MAEPretrainer(engine, _images(), global_batch=8, seed=5).run(2)
        target = _fresh_engine(ShardingStrategy.FULL_SHARD)
        target.load_state_dict(engine.state_dict())
        for (_, a), (_, b) in zip(
            engine.model.named_parameters(), target.model.named_parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data)

    def test_start_step_validation(self):
        engine = _fresh_engine()
        trainer = MAEPretrainer(engine, _images(), global_batch=8)
        with pytest.raises(ValueError, match="start_step"):
            trainer.run(2, start_step=-1)
