"""Chaos campaign: injected collective faults vs engine resilience.

Every test here runs training twice — once fault-free (golden) and once
under a seeded :class:`FaultPlan` — and asserts the faulted run lands on
*bit-identical* state: retried collectives see the same immutable
buffers, so recovery must be exact, not approximate. Runs that exhaust
the retry budget are "killed" and must resume from the latest atomic
snapshot to the golden trajectory.

Marked ``chaos``; tier-1 runs these by default (deselect with
``-m "not chaos"``).
"""

import numpy as np
import pytest

from repro.comm.collectives import SimComm
from repro.comm.faults import (
    CollectiveError,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    call_with_retry,
)
from repro.comm.world import Group, World
from repro.core.engine import make_engine
from repro.core.sharding import ShardingStrategy
from repro.core.trainer import MAEPretrainer
from repro.models.mae import MaskedAutoencoder

pytestmark = pytest.mark.chaos

N_STEPS = 4


def _engine(tiny_mae_cfg, kind, fault_plan=None, init_seed=7):
    model = MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(init_seed))
    world = World(size=2, ranks_per_node=2)
    comm = SimComm(fault_plan=fault_plan)
    strategy = "ddp" if kind == "ddp" else ShardingStrategy.FULL_SHARD
    return make_engine(model, strategy, world=world, comm=comm)


def _train(engine, n_steps=N_STEPS, **kw):
    from repro.optim.schedules import CosineWithWarmup

    images = np.random.default_rng(11).standard_normal((16, 3, 16, 16))
    schedule = CosineWithWarmup(base_lr=engine.lr, total_steps=N_STEPS, warmup_steps=1)
    trainer = MAEPretrainer(
        engine, images, global_batch=8, schedule=schedule, seed=9, **kw
    )
    return trainer, trainer.run(n_steps) if n_steps else None


def _run(engine, **kw):
    return _train(engine, **kw)[1]


def _assert_params_equal(a, b):
    for (name, pa), (_, pb) in zip(
        a.model.named_parameters(), b.model.named_parameters()
    ):
        np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)


class TestSingleTransientPerOpClass:
    """One transient failure per collective op class: the engine retries,
    the final model matches the fault-free golden exactly, and CommStats
    shows the retry traffic."""

    @pytest.mark.parametrize(
        ("kind", "op"),
        [
            ("ddp", "all_reduce"),
            ("fsdp", "all_gather"),
            ("fsdp", "reduce_scatter"),
        ],
    )
    def test_engine_recovers_bit_identically(self, tiny_mae_cfg, kind, op):
        golden = _engine(tiny_mae_cfg, kind)
        golden_losses = _run(golden).losses

        plan = FaultPlan([FaultSpec(op, "transient", call_index=1)])
        faulted = _engine(tiny_mae_cfg, kind, fault_plan=plan)
        faulted_losses = _run(faulted).losses

        assert plan.pending() == 0, "fault never fired"
        assert faulted_losses == golden_losses
        _assert_params_equal(golden, faulted)

        # The failed attempt's traffic stays on the books.
        g, f = golden.comm.stats, faulted.comm.stats
        assert f.retries_by_op[op] == 1
        assert f.calls_by_op[op] == g.calls_by_op[op] + 1
        assert f.bytes_by_op[op] > g.bytes_by_op[op]
        assert f.backoff_seconds == pytest.approx(RetryPolicy().delay(1))

    def test_broadcast_recovers_via_retry(self, rng):
        # Engines don't broadcast in the training step; exercise the op
        # class at the comm level under the same retry contract.
        group = Group((0, 1, 2))
        bufs = [rng.standard_normal(6) for _ in range(3)]
        clean = SimComm().broadcast(bufs, group)

        comm = SimComm(fault_plan=FaultPlan([FaultSpec("broadcast", "transient")]))
        out = call_with_retry(
            lambda: comm.broadcast(bufs, group), RetryPolicy(), stats=comm.stats
        )
        for o, c in zip(out, clean):
            np.testing.assert_array_equal(o, c)
        assert comm.stats.retries_by_op["broadcast"] == 1

    @pytest.mark.parametrize("fault_kind", ["drop", "corrupt"])
    def test_detected_faults_recover_too(self, tiny_mae_cfg, fault_kind):
        golden = _engine(tiny_mae_cfg, "ddp")
        golden_losses = _run(golden).losses

        plan = FaultPlan([FaultSpec("all_reduce", fault_kind, rank=1)])
        faulted = _engine(tiny_mae_cfg, "ddp", fault_plan=plan)
        assert _run(faulted).losses == golden_losses
        _assert_params_equal(golden, faulted)


class TestSeededChaosSweep:
    def test_random_plan_is_fully_absorbed(self, tiny_mae_cfg):
        golden = _engine(tiny_mae_cfg, "fsdp")
        golden_losses = _run(golden).losses

        plan = FaultPlan.seeded(123, n_faults=6, ops=("all_gather", "reduce_scatter"))
        faulted = _engine(tiny_mae_cfg, "fsdp", fault_plan=plan)
        faulted_losses = _run(faulted).losses

        assert faulted_losses == golden_losses
        _assert_params_equal(golden, faulted)
        assert faulted.comm.stats.total_retries > 0


class TestStragglers:
    def test_numerics_untouched_delay_charged(self, tiny_mae_cfg):
        golden = _engine(tiny_mae_cfg, "ddp")
        golden_losses = _run(golden).losses

        plan = FaultPlan(
            [FaultSpec("all_reduce", "straggler", rank=1, delay_s=0.125, times=3)]
        )
        slow = _engine(tiny_mae_cfg, "ddp", fault_plan=plan)
        assert _run(slow).losses == golden_losses
        _assert_params_equal(golden, slow)
        assert slow.comm.stats.straggler_seconds == pytest.approx(3 * 0.125)
        assert slow.comm.stats.total_retries == 0  # stragglers never raise


class TestKillAndResume:
    """Retry-budget exhaustion kills the run; resume from the atomic
    snapshot must land on the golden trajectory exactly."""

    HARD = RetryPolicy().max_retries + 1  # outlasts the retry budget

    @pytest.mark.parametrize("kind", ["ddp", "fsdp"])
    def test_killed_run_resumes_bit_identically(self, tiny_mae_cfg, kind, tmp_path):
        golden = _engine(tiny_mae_cfg, kind)
        golden_losses = _run(golden).losses

        # Probe how many faultable calls k clean steps issue, so the hard
        # fault lands exactly at the start of step k's reduction.
        op = "all_reduce" if kind == "ddp" else "reduce_scatter"
        k = 3
        probe = _engine(tiny_mae_cfg, kind)
        _run(probe, n_steps=k)
        kill_at = probe.comm.stats.calls_by_op[op]

        plan = FaultPlan(
            [FaultSpec(op, "transient", call_index=kill_at, times=self.HARD)]
        )
        doomed = _engine(tiny_mae_cfg, kind, fault_plan=plan)
        doomed_trainer, _ = _train(
            doomed, n_steps=0, checkpoint_dir=str(tmp_path), save_every=2
        )
        with pytest.raises(CollectiveError):
            doomed_trainer.run(N_STEPS)
        assert doomed.step_count == k  # died mid-step k, snapshot is at 2

        # Fresh process state: new model/engine/trainer, clean comm.
        revived = _engine(tiny_mae_cfg, kind, init_seed=999)
        trainer, _ = _train(
            revived, n_steps=0, checkpoint_dir=str(tmp_path), save_every=2
        )
        result = trainer.resume(N_STEPS)

        assert result.losses == golden_losses
        _assert_params_equal(golden, revived)

    def test_resume_falls_back_past_corrupted_snapshot(self, tiny_mae_cfg, tmp_path):
        golden = _engine(tiny_mae_cfg, "ddp")
        golden_losses = _run(golden).losses

        first = _engine(tiny_mae_cfg, "ddp")
        trainer, _ = _train(first, n_steps=0, checkpoint_dir=str(tmp_path), save_every=2)
        trainer.run(N_STEPS)  # snapshots at steps 2 and 4

        # Flip a byte in the newest snapshot; resume must detect it and
        # fall back to the step-2 snapshot, then retrain to the target.
        newest = trainer.checkpoints.path_for(4)
        raw = bytearray(open(newest, "rb").read())
        raw[len(raw) // 2] ^= 0xFF
        open(newest, "wb").write(bytes(raw))

        revived = _engine(tiny_mae_cfg, "ddp", init_seed=999)
        fresh_trainer, _ = _train(
            revived, n_steps=0, checkpoint_dir=str(tmp_path), save_every=2
        )
        result = fresh_trainer.resume(N_STEPS)
        assert revived.step_count == N_STEPS
        assert result.losses == golden_losses
        _assert_params_equal(golden, revived)
