"""Tests for the contrastive (SimCLR) baseline."""

import numpy as np
import pytest

from repro.comm.world import World
from repro.core.config import ViTConfig
from repro.core.engine import make_engine
from repro.core.sharding import ShardingStrategy
from repro.core.simclr_trainer import SimCLRPretrainer
from repro.data.transforms import augment_view
from repro.models.simclr import SimCLRModel, nt_xent


def _cfg():
    return ViTConfig("t", 16, 2, 32, 4, patch=8, img_size=16)


class TestNTXent:
    def test_perfect_positives_low_loss(self, rng):
        """Identical view embeddings with dissimilar negatives give a
        much lower loss than random embeddings."""
        b = 8
        base = rng.standard_normal((b, 16)) * 3
        z_aligned = np.concatenate([base, base])
        loss_aligned, _ = nt_xent(z_aligned, temperature=0.1)
        z_random = rng.standard_normal((2 * b, 16))
        loss_random, _ = nt_xent(z_random, temperature=0.1)
        assert loss_aligned < loss_random

    def test_scale_invariance(self, rng):
        """NT-Xent normalizes embeddings: global scaling is a no-op."""
        z = rng.standard_normal((8, 6))
        l1, _ = nt_xent(z)
        l2, _ = nt_xent(z * 7.5)
        assert l1 == pytest.approx(l2, abs=1e-12)

    def test_gradcheck(self, rng):
        z = rng.standard_normal((6, 5))
        _, dz = nt_xent(z, temperature=0.3)
        eps = 1e-6
        for _ in range(10):
            i = tuple(int(rng.integers(s)) for s in z.shape)
            old = z[i]
            z[i] = old + eps
            lp, _ = nt_xent(z, temperature=0.3)
            z[i] = old - eps
            lm, _ = nt_xent(z, temperature=0.3)
            z[i] = old
            num = (lp - lm) / (2 * eps)
            assert dz[i] == pytest.approx(num, rel=1e-4, abs=1e-8)

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="even batch"):
            nt_xent(rng.standard_normal((5, 4)))
        with pytest.raises(ValueError, match="zero embedding"):
            nt_xent(np.zeros((4, 4)))


class TestSimCLRModel:
    def test_forward_backward(self, rng):
        model = SimCLRModel(_cfg(), proj_dim=8, rng=np.random.default_rng(1))
        imgs = rng.standard_normal((4, 3, 16, 16))
        out = model.forward(imgs, imgs + 0.01 * rng.standard_normal(imgs.shape))
        assert np.isfinite(out.loss)
        assert out.embeddings.shape == (8, 8)
        model.zero_grad()
        model.forward(imgs, imgs)
        model.backward()
        grads = sum(float(np.abs(p.grad).sum()) for p in model.parameters())
        assert grads > 0

    def test_gradcheck_end_to_end(self, rng):
        model = SimCLRModel(_cfg(), proj_dim=6, rng=np.random.default_rng(1))
        a = rng.standard_normal((2, 3, 16, 16))
        b = rng.standard_normal((2, 3, 16, 16))

        def loss():
            return model.forward(a, b).loss

        model.zero_grad()
        model.forward(a, b)
        model.backward()
        from tests.conftest import central_difference_check

        params = [
            (n, p) for n, p in model.named_parameters() if "qkv.bias" not in n
        ]
        central_difference_check(params, loss, rng, samples_per_param=1)

    def test_view_shape_mismatch(self, rng):
        model = SimCLRModel(_cfg(), rng=np.random.default_rng(1))
        with pytest.raises(ValueError, match="share a shape"):
            model.forward(
                rng.standard_normal((2, 3, 16, 16)),
                rng.standard_normal((3, 3, 16, 16)),
            )

    def test_encode_features(self, rng):
        model = SimCLRModel(_cfg(), rng=np.random.default_rng(1))
        feats = model.encode_features(rng.standard_normal((3, 3, 16, 16)))
        assert feats.shape == (3, 16)

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            SimCLRModel(_cfg()).backward()


class TestAugmentView:
    def test_preserves_shape(self, rng):
        x = rng.random((4, 3, 16, 16))
        y = augment_view(x, rng)
        assert y.shape == x.shape
        assert not np.array_equal(x, y)

    def test_deterministic_per_rng(self, rng):
        x = rng.random((4, 3, 16, 16))
        a = augment_view(x, np.random.default_rng(5))
        b = augment_view(x, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_no_ops_configurable(self, rng):
        x = rng.random((2, 3, 8, 8))
        y = augment_view(
            x, np.random.default_rng(0), max_shift=0, brightness=0, noise_std=0
        )
        # Only the flip remains.
        for i in range(2):
            assert np.array_equal(y[i], x[i]) or np.array_equal(
                y[i], x[i, :, :, ::-1]
            )


class TestSimCLRTrainer:
    def test_loss_decreases(self, rng):
        model = SimCLRModel(_cfg(), proj_dim=8, rng=np.random.default_rng(1))
        engine = make_engine(
            model, ShardingStrategy.NO_SHARD, world=World(1, ranks_per_node=1)
        )
        engine.lr = 1e-3
        images = rng.standard_normal((64, 3, 16, 16))
        trainer = SimCLRPretrainer(engine, images, global_batch=16, seed=0)
        result = trainer.run(20)
        assert np.mean(result.losses[-5:]) < np.mean(result.losses[:5])

    def test_strategy_equivalence_at_fixed_world(self, rng):
        images = np.random.default_rng(9).standard_normal((32, 3, 16, 16))

        def run(strategy):
            model = SimCLRModel(_cfg(), proj_dim=8, rng=np.random.default_rng(1))
            engine = make_engine(model, strategy, world=World(4, ranks_per_node=2))
            trainer = SimCLRPretrainer(engine, images, global_batch=16, seed=3)
            losses = trainer.run(2).losses
            return losses, model.state_dict()

        l1, s1 = run(ShardingStrategy.NO_SHARD)
        l2, s2 = run(ShardingStrategy.FULL_SHARD)
        np.testing.assert_allclose(l1, l2, atol=1e-12)
        for k in s1:
            np.testing.assert_allclose(s1[k], s2[k], atol=1e-10)

    def test_validation(self, rng):
        model = SimCLRModel(_cfg(), rng=np.random.default_rng(1))
        engine = make_engine(
            model, ShardingStrategy.NO_SHARD, world=World(8, ranks_per_node=8)
        )
        images = rng.standard_normal((32, 3, 16, 16))
        with pytest.raises(ValueError, match="negatives"):
            SimCLRPretrainer(engine, images, global_batch=8)
        from repro.core.config import get_mae_config
        from repro.models.mae import MaskedAutoencoder

        mae = MaskedAutoencoder(
            get_mae_config("proxy-base"), rng=np.random.default_rng(0)
        )
        eng2 = make_engine(
            mae, ShardingStrategy.NO_SHARD, world=World(1, ranks_per_node=1)
        )
        with pytest.raises(TypeError, match="SimCLRModel"):
            SimCLRPretrainer(eng2, rng.standard_normal((8, 3, 32, 32)), 4)
