"""Differential resume tests.

For every sharding strategy (and DDP): N steps straight vs
(k steps -> atomic checkpoint -> fresh process state -> resume -> N-k
steps) must produce bit-identical parameters, optimizer moments, and
losses. "Fresh process state" means a newly constructed model (different
init seed — fully overwritten by the restore), engine, and trainer that
share nothing in memory with the interrupted run.
"""

import numpy as np
import pytest

from repro.comm.world import World
from repro.core.engine import make_engine
from repro.core.sharding import ShardingStrategy
from repro.core.trainer import MAEPretrainer
from repro.models.mae import MaskedAutoencoder
from repro.optim.schedules import CosineWithWarmup

N_TOTAL = 5
K_SPLIT = 2
WORLD = dict(size=4, ranks_per_node=2)

ENGINE_SPECS = [
    ("ddp", None),
    ("fsdp", dict(strategy=ShardingStrategy.NO_SHARD)),
    ("fsdp", dict(strategy=ShardingStrategy.FULL_SHARD)),
    ("fsdp", dict(strategy=ShardingStrategy.SHARD_GRAD_OP)),
    ("fsdp", dict(strategy=ShardingStrategy.HYBRID_SHARD, shard_size=2)),
    ("fsdp", dict(strategy=ShardingStrategy.HYBRID_SHARD, shard_size=4)),
]

IDS = ["DDP", "NO_SHARD", "FULL_SHARD", "SHARD_GRAD_OP", "HYBRID_2", "HYBRID_4"]


def _make_engine(kind, kwargs, tiny_mae_cfg, init_seed):
    model = MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(init_seed))
    world = World(**WORLD)
    if kind == "ddp":
        return make_engine(model, "ddp", world=world)
    return make_engine(model, world=world, **kwargs)


def _images():
    return np.random.default_rng(11).standard_normal((16, 3, 16, 16))


def _schedule(engine):
    return CosineWithWarmup(base_lr=engine.lr, total_steps=N_TOTAL, warmup_steps=1)


def _trainer(engine, **kw):
    return MAEPretrainer(
        engine, _images(), global_batch=8, schedule=_schedule(engine), seed=9, **kw
    )


def _assert_bit_identical(engine_a, engine_b):
    for (name, a), (_, b) in zip(
        engine_a.model.named_parameters(), engine_b.model.named_parameters()
    ):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
    opt_a, opt_b = engine_a.optimizer, engine_b.optimizer
    assert opt_a.t == opt_b.t
    assert len(opt_a.state) == len(opt_b.state)
    for i, (sa, sb) in enumerate(zip(opt_a.state, opt_b.state)):
        assert sa.keys() == sb.keys()
        for k in sa:
            np.testing.assert_array_equal(sa[k], sb[k], err_msg=f"slot {i}[{k}]")
            assert sa[k].dtype == sb[k].dtype


@pytest.mark.parametrize(("kind", "kwargs"), ENGINE_SPECS, ids=IDS)
def test_interrupted_resume_is_bit_identical(kind, kwargs, tiny_mae_cfg, tmp_path):
    # Golden: N steps, no interruption.
    golden = _make_engine(kind, kwargs, tiny_mae_cfg, init_seed=7)
    golden_losses = _trainer(golden).run(N_TOTAL).losses

    # Interrupted: k steps with a snapshot cadence landing on k.
    first = _make_engine(kind, kwargs, tiny_mae_cfg, init_seed=7)
    _trainer(first, checkpoint_dir=str(tmp_path), save_every=K_SPLIT).run(K_SPLIT)

    # Fresh process state: new model (different init seed; overwritten by
    # the restore), engine, trainer — only the checkpoint dir is shared.
    second = _make_engine(kind, kwargs, tiny_mae_cfg, init_seed=1234)
    resumed = _trainer(second, checkpoint_dir=str(tmp_path), save_every=K_SPLIT)
    result = resumed.resume(N_TOTAL)

    assert second.step_count == N_TOTAL
    assert result.losses == golden_losses  # bit-identical, not approx
    _assert_bit_identical(golden, second)


@pytest.mark.parametrize(("kind", "kwargs"), ENGINE_SPECS[:2], ids=IDS[:2])
def test_resume_without_snapshot_starts_fresh(kind, kwargs, tiny_mae_cfg, tmp_path):
    golden = _make_engine(kind, kwargs, tiny_mae_cfg, init_seed=7)
    golden_losses = _trainer(golden).run(N_TOTAL).losses

    fresh = _make_engine(kind, kwargs, tiny_mae_cfg, init_seed=7)
    result = _trainer(fresh, checkpoint_dir=str(tmp_path)).resume(N_TOTAL)
    assert result.losses == golden_losses


def test_resume_mismatched_seed_rejected(tiny_mae_cfg, tmp_path):
    engine = _make_engine("ddp", None, tiny_mae_cfg, init_seed=7)
    _trainer(engine, checkpoint_dir=str(tmp_path), save_every=1).run(1)
    other = _make_engine("ddp", None, tiny_mae_cfg, init_seed=7)
    t = MAEPretrainer(
        other, _images(), global_batch=8, schedule=_schedule(other), seed=10,
        checkpoint_dir=str(tmp_path),
    )
    with pytest.raises(ValueError, match="seed"):
        t.resume(N_TOTAL)


def test_resume_validation(tiny_mae_cfg, tmp_path):
    engine = _make_engine("ddp", None, tiny_mae_cfg, init_seed=7)
    bare = _trainer(engine)
    with pytest.raises(ValueError, match="checkpoint_dir"):
        bare.resume(N_TOTAL)
    with pytest.raises(ValueError, match="save_every"):
        _trainer(engine, save_every=2)
    ckpt = _trainer(engine, checkpoint_dir=str(tmp_path))
    with pytest.raises(ValueError, match="positive"):
        ckpt.resume(0)


def test_resume_past_snapshot_returns_history_only(tiny_mae_cfg, tmp_path):
    engine = _make_engine("ddp", None, tiny_mae_cfg, init_seed=7)
    trainer = _trainer(engine, checkpoint_dir=str(tmp_path), save_every=2)
    run_losses = trainer.run(4).losses

    fresh = _make_engine("ddp", None, tiny_mae_cfg, init_seed=3)
    resumed = _trainer(fresh, checkpoint_dir=str(tmp_path))
    # total_steps equal to the snapshot step: nothing new to train.
    result = resumed.resume(4)
    assert result.losses == run_losses
    with pytest.raises(ValueError, match="beyond"):
        resumed.resume(2)
