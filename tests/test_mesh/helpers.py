"""Shared builders for the mesh suites.

Module-level (not fixtures) because the process-backend differential
tests spawn workers that unpickle the step function by reference —
``tests`` is a package, so ``tests.test_mesh.helpers`` resolves inside
spawned children too.
"""

from __future__ import annotations

import numpy as np

from repro.comm.world import World
from repro.core.config import MAEConfig, ViTConfig
from repro.core.engine import EngineConfig, make_engine
from repro.core.trainer import _mae_step_fn
from repro.mesh.spec import MeshSpec
from repro.models.mae import MaskedAutoencoder

#: Tiny MAE whose dims divide by tp in {2, 4}: 4 heads both sides,
#: widths/mlp multiples of 4, and 6 pipeline ops (head, 2 enc blocks,
#: bridge, 2 dec blocks, tail support pp up to 6).
TINY = MAEConfig(
    encoder=ViTConfig(
        name="mesh-tiny", width=32, depth=2, mlp=64, heads=4, patch=8, img_size=16
    ),
    dec_width=32,
    dec_depth=2,
    dec_heads=4,
    mask_ratio=0.5,
)

mae_step = _mae_step_fn


def build_model(seed: int = 7) -> MaskedAutoencoder:
    """A fresh tiny MAE with deterministic weights."""
    return MaskedAutoencoder(TINY, rng=np.random.default_rng(seed))


def tiny_micros(n: int, batch: int = 2, seed: int = 3) -> list:
    """``n`` round-major (images, mask-noise) microbatches."""
    enc = TINY.encoder
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        imgs = rng.standard_normal(
            (batch, enc.in_chans, enc.img_size, enc.img_size)
        ).astype(np.float64)
        noise = rng.random((batch, enc.n_patches))
        out.append((imgs, noise))
    return out


def mesh_engine(
    spec: MeshSpec,
    strategy: str = "ddp",
    k: int = 1,
    backend: str = "inline",
    seed: int = 7,
    **config_kwargs,
):
    """A mesh-plan engine over a fresh tiny model via make_engine."""
    cfg = EngineConfig(
        mesh=spec, grad_accum_steps=k, backend=backend, **config_kwargs
    )
    return make_engine(build_model(seed), strategy, world=World(spec.size), config=cfg)


def oracle_engine(total_micros: int, seed: int = 7, **config_kwargs):
    """The world-1 DDP oracle accumulating all micros sequentially."""
    cfg = EngineConfig(grad_accum_steps=total_micros, **config_kwargs)
    return make_engine(build_model(seed), "ddp", world=World(1), config=cfg)


def run_steps(engine, n_micros: int, steps: int = 2):
    """Drive ``steps`` optimizer steps; return (losses, model state copy).

    Closes the engine afterwards so process backends reclaim workers
    even when an assertion later fails.
    """
    try:
        losses = [
            engine.train_step(tiny_micros(n_micros, seed=50 + s), mae_step)
            for s in range(steps)
        ]
        state = {k: np.array(v) for k, v in engine.model.state_dict().items()}
    finally:
        engine.close()
    return losses, state


def assert_states_equal(a: dict, b: dict) -> None:
    """Bitwise equality over two model state dicts."""
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)
