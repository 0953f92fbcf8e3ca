"""Cross-module integration tests.

These tie the executable engine to the analytical models: the bytes the
engine actually moves must match the closed-form ring formulas the
performance simulator prices, and the optimizer state the engine
allocates must match the memory model's sharding arithmetic.
"""

import numpy as np
import pytest

from repro.comm.world import World
from repro.core.config import count_mae_params, get_mae_config
from repro.core.engine import make_engine
from repro.core.sharding import ShardingStrategy
from repro.core.trainer import MAEPretrainer
from repro.models.mae import MaskedAutoencoder

CFG = get_mae_config("proxy-base")


def _run_one_step(strategy, world_size=4, shard_size=None, ranks_per_node=4):
    model = MaskedAutoencoder(CFG, rng=np.random.default_rng(0))
    world = World(world_size, ranks_per_node=ranks_per_node)
    engine = make_engine(model, strategy, world=world, shard_size=shard_size)
    images = np.random.default_rng(1).standard_normal((16, 3, 32, 32))
    MAEPretrainer(engine, images, global_batch=8, seed=0).run(1)
    return engine


class TestWireBytesMatchClosedForm:
    """Engine-measured wire bytes == analytical ring formulas."""

    def test_no_shard_allreduce_bytes(self):
        engine = _run_one_step(ShardingStrategy.NO_SHARD)
        g = 4
        total_padded = sum(u.plan.padded_numel for u in engine.units)
        nbytes = total_padded * 8  # float64
        expected = 2 * (g - 1) / g * nbytes * g  # per rank x ranks
        assert engine.comm.stats.bytes_by_op["all_reduce"] == pytest.approx(expected)

    def test_full_shard_bytes(self):
        engine = _run_one_step(ShardingStrategy.FULL_SHARD)
        g = 4
        nbytes = sum(u.plan.padded_numel for u in engine.units) * 8
        stats = engine.comm.stats
        # Two all-gathers (fwd + bwd regather) and one reduce-scatter.
        assert stats.bytes_by_op["all_gather"] == pytest.approx(
            2 * (g - 1) / g * nbytes * g
        )
        assert stats.bytes_by_op["reduce_scatter"] == pytest.approx(
            (g - 1) / g * nbytes * g
        )

    def test_hybrid_replica_bytes_are_sharded(self):
        engine = _run_one_step(
            ShardingStrategy.HYBRID_SHARD, world_size=4, shard_size=2
        )
        nbytes = sum(u.plan.padded_numel for u in engine.units) * 8
        stats = engine.comm.stats
        # Replica all-reduce moves only the *shard* (half the bytes),
        # but happens in 2 groups of 2 ranks.
        n_groups, g = 2, 2
        shard_bytes = nbytes / 2
        expected_ar = n_groups * 2 * (g - 1) / g * shard_bytes * g
        assert stats.bytes_by_op["all_reduce"] == pytest.approx(expected_ar)

    def test_sgo_moves_fewer_bytes_than_full(self):
        full = _run_one_step(ShardingStrategy.FULL_SHARD)
        sgo = _run_one_step(ShardingStrategy.SHARD_GRAD_OP)
        assert sgo.comm.stats.total_bytes < full.comm.stats.total_bytes


class TestOptimizerStateSharding:
    """Engine-allocated optimizer state follows the sharding arithmetic."""

    @pytest.mark.parametrize(
        "strategy,shard_size,divisor",
        [
            (ShardingStrategy.NO_SHARD, None, 1),
            (ShardingStrategy.FULL_SHARD, None, 1),  # dedup: union = full
            (ShardingStrategy.HYBRID_SHARD, 2, 1),
        ],
    )
    def test_total_moment_bytes(self, strategy, shard_size, divisor):
        """The union of all shards' AdamW moments covers the padded
        parameter count exactly once (the engine deduplicates replica
        state, so totals equal the full model regardless of strategy)."""
        engine = _run_one_step(strategy, shard_size=shard_size)
        padded = sum(u.plan.padded_numel for u in engine.units)
        expected = 2 * padded * 8 / divisor  # m and v, float64
        assert engine.optimizer.state_bytes() == expected

    def test_param_count_vs_analytic(self):
        engine = _run_one_step(ShardingStrategy.NO_SHARD)
        # Padding adds at most (shard_size - 1) per unit.
        assert engine.n_params() >= count_mae_params(CFG)
        slack = sum(u.plan.padded_numel - u.plan.numel for u in engine.units)
        assert engine.n_params() == count_mae_params(CFG) + slack


class TestEndToEndDeterminism:
    def test_identical_runs_bitwise(self):
        a = _run_one_step(ShardingStrategy.FULL_SHARD)
        b = _run_one_step(ShardingStrategy.FULL_SHARD)
        for (_, pa), (_, pb) in zip(
            a.model.named_parameters(), b.model.named_parameters()
        ):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_stats_deterministic(self):
        a = _run_one_step(ShardingStrategy.HYBRID_SHARD, shard_size=2)
        b = _run_one_step(ShardingStrategy.HYBRID_SHARD, shard_size=2)
        assert a.comm.stats.calls_by_op == b.comm.stats.calls_by_op
        assert a.comm.stats.bytes_by_op == b.comm.stats.bytes_by_op
