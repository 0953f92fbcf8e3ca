"""make_engine / EngineConfig: plan selection, equivalence, overrides.

Every spelling of a strategy must be a pure re-plumbing: an engine
built from a string label trains bit-identically to one built from the
:class:`ShardingStrategy` member and an explicit :class:`EngineConfig`,
for DDP and all four FSDP strategies. Unknown config fields raise
TypeError.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.world import World
from repro.core.engine import STRATEGY_CHOICES, Engine, EngineConfig, make_engine
from repro.core.sharding import ShardingStrategy
from repro.core.trainer import MAEPretrainer
from repro.models.mae import MaskedAutoencoder
from repro.telemetry import NULL_BUS


def _train(engine_factory, tiny_mae_cfg, n_steps=2):
    rng = np.random.default_rng(0)
    images = rng.standard_normal((64, 3, 16, 16))
    model = MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(1))
    engine = engine_factory(model)
    result = MAEPretrainer(engine, images, global_batch=16, seed=0).run(n_steps)
    return result.losses, model.state_dict()


DIRECT = {
    "ddp": lambda m, w: make_engine(m, ShardingStrategy.DDP, world=w),
    "no_shard": lambda m, w: make_engine(m, ShardingStrategy.NO_SHARD, world=w),
    "full_shard": lambda m, w: make_engine(m, ShardingStrategy.FULL_SHARD, world=w),
    "shard_grad_op": lambda m, w: make_engine(
        m, ShardingStrategy.SHARD_GRAD_OP, world=w
    ),
    "hybrid_shard": lambda m, w: make_engine(
        m, ShardingStrategy.HYBRID_SHARD, world=w, config=EngineConfig(shard_size=2)
    ),
}


@pytest.mark.parametrize("strategy", STRATEGY_CHOICES)
def test_factory_matches_direct_construction_bit_identically(
    tiny_mae_cfg, strategy
):
    world = World(4, ranks_per_node=2)
    kwargs = {"shard_size": 2} if strategy == "hybrid_shard" else {}
    losses_f, state_f = _train(
        lambda m: make_engine(m, strategy, world=world, **kwargs), tiny_mae_cfg
    )
    losses_d, state_d = _train(
        lambda m: DIRECT[strategy](m, world), tiny_mae_cfg
    )
    assert losses_f == losses_d
    for k in state_f:
        np.testing.assert_array_equal(state_f[k], state_d[k])


def test_factory_dispatches_to_the_right_engine_kind():
    world = World(4, ranks_per_node=2)
    ddp = make_engine(_tiny_model(), "ddp", world=world)
    assert isinstance(ddp, Engine)
    assert ddp.strategy is ShardingStrategy.DDP
    for s in ("no_shard", "full_shard", "shard_grad_op"):
        eng = make_engine(_tiny_model(), s, world=world)
        assert isinstance(eng, Engine)
        assert eng.strategy.value.lower() == s
    hybrid = make_engine(_tiny_model(), "hybrid_shard", world=world, shard_size=2)
    assert hybrid.strategy is ShardingStrategy.HYBRID_SHARD
    assert hybrid.shard_size == 2


def _tiny_model():
    from repro.core.config import MAEConfig, ViTConfig

    cfg = MAEConfig(
        encoder=ViTConfig(
            name="t", width=16, depth=1, mlp=32, heads=4, patch=8, img_size=16
        ),
        dec_width=16,
        dec_depth=1,
        dec_heads=4,
        mask_ratio=0.5,
    )
    return MaskedAutoencoder(cfg, rng=np.random.default_rng(0))


def test_paper_label_implies_shard_size():
    eng = make_engine(_tiny_model(), "HYBRID_2GPUs", world=World(4, ranks_per_node=2))
    assert eng.strategy is ShardingStrategy.HYBRID_SHARD
    assert eng.shard_size == 2


def test_conflicting_shard_size_rejected():
    with pytest.raises(ValueError, match="implies shard_size=2"):
        make_engine(
            _tiny_model(),
            "HYBRID_2GPUs",
            world=World(4, ranks_per_node=2),
            shard_size=4,
        )


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        make_engine(_tiny_model(), "mystery_shard", world=World(4, ranks_per_node=2))


def test_overrides_apply_on_top_of_config():
    cfg = EngineConfig(bucket_cap_bytes=1024)
    eng = make_engine(
        _tiny_model(),
        "ddp",
        world=World(2, ranks_per_node=2),
        config=cfg,
        bucket_cap_bytes=2048,
    )
    assert eng.config.bucket_cap_bytes == 2048


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(bucket_cap_bytes=0)
    with pytest.raises(ValueError):
        EngineConfig(first_bucket_cap_bytes=-1)
    with pytest.raises(ValueError):
        EngineConfig(shard_size=0)
    # None first bucket cap is legal (single flat bucket scheme).
    EngineConfig(first_bucket_cap_bytes=None)


def test_engines_default_to_the_shared_null_bus():
    eng = make_engine(_tiny_model(), "ddp", world=World(2, ranks_per_node=2))
    assert eng.telemetry is NULL_BUS
    assert not eng.telemetry.enabled


def test_unknown_kwargs_still_raise_type_error():
    world = World(2, ranks_per_node=2)
    with pytest.raises(TypeError, match="bukcet_cap_mb"):
        make_engine(_tiny_model(), "ddp", world=world, bukcet_cap_mb=1)
    # The retired prefetch knob is no longer an EngineConfig field.
    with pytest.raises(TypeError, match="backward_prefetch"):
        make_engine(_tiny_model(), "full_shard", world=world, backward_prefetch=None)


def test_trainer_lifecycle_names_align(tiny_mae_cfg, tmp_path):
    # state_dict/load_state_dict round-trips a trainer across engines.
    rng = np.random.default_rng(0)
    images = rng.standard_normal((64, 3, 16, 16))
    world = World(4, ranks_per_node=2)

    model_a = MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(1))
    trainer_a = MAEPretrainer(
        make_engine(model_a, "full_shard", world=world), images, global_batch=16,
        seed=0,
    )
    trainer_a.run(2)
    sd = trainer_a.state_dict()

    model_b = MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(2))
    trainer_b = MAEPretrainer(
        make_engine(model_b, "full_shard", world=world), images, global_batch=16,
        seed=0,
    )
    trainer_b.load_state_dict(sd)
    assert trainer_b.engine.step_count == 2
    # Continuing from the restored state matches continuing the original.
    cont_a = trainer_a.run(2, start_step=2).losses
    cont_b = trainer_b.run(2, start_step=2).losses
    assert cont_a == cont_b


def test_facade_exports_blessed_surface():
    import repro

    for name in (
        "Engine", "make_engine", "EngineConfig", "STRATEGY_CHOICES",
        "TelemetryBus", "RecordingSink", "JsonlSink", "NullSink",
        "StepStats", "RunReport", "NULL_BUS", "write_span_trace",
        "SimCLRPretrainer", "TrainResult", "DataLoader", "AdamW",
    ):
        assert hasattr(repro, name), name
        assert name in repro.__all__, name
