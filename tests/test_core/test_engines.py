"""Engine equivalence: the library's central numerical guarantee.

Training the same model on the same data must produce identical losses
and parameters (to float64 reduction-order noise) under:

- a single-rank reference;
- DDP and NO_SHARD at any world size;
- FULL_SHARD / SHARD_GRAD_OP across the world;
- HYBRID_SHARD at every divisor shard size.
"""

import numpy as np
import pytest

from repro.comm.world import World
from repro.core.config import get_mae_config
from repro.core.engine import make_engine
from repro.core.sharding import ShardingStrategy
from repro.core.trainer import MAEPretrainer
from repro.models.mae import MaskedAutoencoder
from repro.optim.adamw import AdamW

CFG = get_mae_config("proxy-base")
ATOL = 1e-10


def _images(n=48):
    rng = np.random.default_rng(42)
    return rng.standard_normal((n, 3, 32, 32))


def _run(engine_kind, world_size, strategy=None, shard_size=None, steps=3,
         ranks_per_node=2, **engine_kwargs):
    model = MaskedAutoencoder(CFG, rng=np.random.default_rng(7))
    world = World(world_size, ranks_per_node=ranks_per_node)
    if engine_kind == "fsdp":
        engine = make_engine(
            model, strategy, world=world, shard_size=shard_size, **engine_kwargs
        )
    else:
        engine = make_engine(model, "ddp", world=world, **engine_kwargs)
    trainer = MAEPretrainer(engine, _images(), global_batch=16, seed=5)
    result = trainer.run(steps)
    return result.losses, model.state_dict(), engine


@pytest.fixture(scope="module")
def reference():
    losses, state, _ = _run("fsdp", 1, ShardingStrategy.NO_SHARD)
    return losses, state


def _assert_equivalent(losses, state, reference):
    ref_losses, ref_state = reference
    np.testing.assert_allclose(losses, ref_losses, atol=ATOL)
    for k in ref_state:
        np.testing.assert_allclose(state[k], ref_state[k], atol=ATOL, err_msg=k)


class TestEquivalence:
    @pytest.mark.parametrize("ws", [2, 4])
    def test_no_shard(self, reference, ws):
        losses, state, _ = _run("fsdp", ws, ShardingStrategy.NO_SHARD)
        _assert_equivalent(losses, state, reference)

    @pytest.mark.parametrize("ws", [2, 4])
    def test_full_shard(self, reference, ws):
        losses, state, _ = _run("fsdp", ws, ShardingStrategy.FULL_SHARD)
        _assert_equivalent(losses, state, reference)

    def test_shard_grad_op(self, reference):
        losses, state, _ = _run("fsdp", 4, ShardingStrategy.SHARD_GRAD_OP)
        _assert_equivalent(losses, state, reference)

    @pytest.mark.parametrize("shard_size", [1, 2, 4, 8])
    def test_hybrid_all_shard_sizes(self, reference, shard_size):
        losses, state, _ = _run(
            "fsdp", 8, ShardingStrategy.HYBRID_SHARD, shard_size=shard_size,
            ranks_per_node=4, check_replicas=True,
        )
        _assert_equivalent(losses, state, reference)

    @pytest.mark.parametrize("ws", [2, 4])
    def test_ddp(self, reference, ws):
        losses, state, _ = _run("ddp", ws)
        _assert_equivalent(losses, state, reference)

    def test_ddp_tiny_buckets_still_equivalent(self, reference):
        """Bucket boundaries change reduction grouping, not results."""
        losses, state, _ = _run(
            "ddp", 4, bucket_cap_bytes=1024, first_bucket_cap_bytes=None
        )
        _assert_equivalent(losses, state, reference)


class TestEngineBehaviour:
    def test_fsdp_requires_matching_microbatches(self):
        model = MaskedAutoencoder(CFG, rng=np.random.default_rng(0))
        engine = make_engine(model, ShardingStrategy.FULL_SHARD, world=World(4))
        with pytest.raises(ValueError, match="microbatches"):
            engine.train_step([None, None], lambda m, b: 0.0)

    def test_hybrid_requires_shard_size(self):
        model = MaskedAutoencoder(CFG, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="shard_size"):
            make_engine(model, ShardingStrategy.HYBRID_SHARD, world=World(4))

    def test_no_shard_rejects_shard_size(self):
        model = MaskedAutoencoder(CFG, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="shard_size=1"):
            make_engine(
                model, ShardingStrategy.NO_SHARD, world=World(4), shard_size=2
            )

    def test_indivisible_hybrid_rejected(self):
        model = MaskedAutoencoder(CFG, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="divisible"):
            make_engine(
                model, ShardingStrategy.HYBRID_SHARD, world=World(6), shard_size=4
            )

    def test_lr_passthrough(self):
        model = MaskedAutoencoder(CFG, rng=np.random.default_rng(0))
        engine = make_engine(
            model, ShardingStrategy.FULL_SHARD, world=World(2),
            optimizer_factory=lambda p: AdamW(p, lr=0.5),
        )
        assert engine.lr == 0.5
        engine.lr = 0.25
        assert engine.optimizer.lr == 0.25

    def test_comm_stats_match_strategy(self):
        """FULL_SHARD issues AGs + reduce-scatters; NO_SHARD only ARs."""
        model = MaskedAutoencoder(CFG, rng=np.random.default_rng(0))
        world = World(4)
        engine = make_engine(model, ShardingStrategy.FULL_SHARD, world=world)
        trainer = MAEPretrainer(engine, _images(), global_batch=8, seed=1)
        trainer.run(1)
        ops = engine.comm.stats.calls_by_op
        n_units = len(engine.units)
        # Forward gathers + backward regathers, one reduce-scatter each.
        assert ops["all_gather"] == 2 * n_units
        assert ops["reduce_scatter"] == n_units
        assert "all_reduce" not in ops

        model2 = MaskedAutoencoder(CFG, rng=np.random.default_rng(0))
        engine2 = make_engine(model2, ShardingStrategy.NO_SHARD, world=world)
        trainer2 = MAEPretrainer(engine2, _images(), global_batch=8, seed=1)
        trainer2.run(1)
        ops2 = engine2.comm.stats.calls_by_op
        assert ops2["all_reduce"] == len(engine2.units)
        assert "all_gather" not in ops2

    def test_sgo_gathers_once_per_step(self):
        model = MaskedAutoencoder(CFG, rng=np.random.default_rng(0))
        engine = make_engine(model, ShardingStrategy.SHARD_GRAD_OP, world=World(4))
        trainer = MAEPretrainer(engine, _images(), global_batch=8, seed=1)
        trainer.run(1)
        ops = engine.comm.stats.calls_by_op
        assert ops["all_gather"] == len(engine.units)  # forward only

    def test_hybrid_issues_replica_allreduce(self):
        model = MaskedAutoencoder(CFG, rng=np.random.default_rng(0))
        engine = make_engine(
            model, ShardingStrategy.HYBRID_SHARD, world=World(4, ranks_per_node=2),
            shard_size=2,
        )
        trainer = MAEPretrainer(engine, _images(), global_batch=8, seed=1)
        trainer.run(1)
        ops = engine.comm.stats.calls_by_op
        n_units = len(engine.units)
        assert ops["reduce_scatter"] == 2 * n_units  # one per shard group
        assert ops["all_reduce"] == 2 * n_units  # one per shard index

    def test_ddp_bucket_count(self):
        model = MaskedAutoencoder(CFG, rng=np.random.default_rng(0))
        small = make_engine(model, "ddp", world=World(2), bucket_cap_bytes=8 * 1024)
        model2 = MaskedAutoencoder(CFG, rng=np.random.default_rng(0))
        large = make_engine(
            model2, "ddp", world=World(2), bucket_cap_bytes=64 * 1024 * 1024
        )
        assert small.n_buckets > large.n_buckets

    def test_step_count_advances(self):
        model = MaskedAutoencoder(CFG, rng=np.random.default_rng(0))
        engine = make_engine(model, ShardingStrategy.FULL_SHARD, world=World(2))
        trainer = MAEPretrainer(engine, _images(), global_batch=8, seed=1)
        trainer.run(3)
        assert engine.step_count == 3

    @pytest.mark.parametrize("kind", ["ddp", "fsdp"])
    def test_failed_step_releases_activation_caches(self, kind):
        """A step_fn raising mid-chain must not leave activations pinned."""
        model = MaskedAutoencoder(CFG, rng=np.random.default_rng(0))
        world = World(2)
        strategy = ShardingStrategy.NO_SHARD if kind == "fsdp" else "ddp"
        engine = make_engine(model, strategy, world=world)
        imgs = _images(8)

        def exploding_step(m, micro):
            m.forward(micro)  # fills every module's cache...
            raise RuntimeError("boom")  # ...then dies before backward

        with pytest.raises(RuntimeError, match="boom"):
            engine.train_step([imgs[:4], imgs[4:]], exploding_step)
        for mod in model.modules():
            cache = getattr(mod, "_cache", None)
            assert cache is None, type(mod).__name__
            assert getattr(mod, "_x2", None) is None, type(mod).__name__

        # The engine stays usable after the failure.
        trainer = MAEPretrainer(engine, _images(), global_batch=8, seed=1)
        losses = trainer.run(1).losses
        assert np.isfinite(losses).all()
