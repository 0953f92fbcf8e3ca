"""The four benchmark workloads, built only through public entry points.

Training runs go through ``make_engine`` and ``MAEPretrainer.run``;
serving goes through ``InferenceServer.run``. The workload seed drives
the corpus, the trainer's data order and mask noise, and the clients'
Zipf picks; the model weights use a fixed seed so every workload trains
and serves the same network.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

import numpy as np

from repro import (
    EngineConfig,
    InferenceServer,
    MAEPretrainer,
    MaskedAutoencoder,
    MeshSpec,
    World,
    get_mae_config,
    make_engine,
)
from repro.comm.collectives import SimComm
from repro.data.synthetic import SceneGenerator
from repro.optim.schedules import CosineWithWarmup

import stats

MODEL = "proxy-1b"
MODEL_SEED = 0
CORPUS_IMAGES = 256
GLOBAL_BATCH = 16
WARMUP_STEPS = 4
#: Leading steps hashed into ``loss_digest`` and replayed on the
#: reference engine; fixed so the digest does not depend on run length.
DIGEST_STEPS = 8
# A fixed schedule, unlike the trainer's default, which stretches its
# warm-up over however many steps one ``run`` call is asked for.
SCHEDULE_STEPS = 100_000
SCHEDULE_WARMUP = 50

CLIENTS = 8
REPLICAS = 2
MAX_BATCH = 8
CACHE_ENTRIES = 64
WARMUP_ROUNDS = 64
#: Every this-many rounds one delivered feature row is kept and later
#: compared against a direct ``encode_features`` of the same image.
FEATURE_SAMPLE_EVERY = 25

# (strategy, world size, engine overrides) per training workload.
_MESH = MeshSpec(pp=2, dp=2, tp=2, schedule="1f1b")
TRAIN_SPECS = {
    "train-ddp-w1": ("ddp", 1, {}),
    "train-fsdp-w4": ("full_shard", 4, {}),
    "train-mesh-2x2x2": ("full_shard", 8, {"mesh": _MESH}),
}
# (check name, reference engine, relative tolerance; 0 means bit for
# bit). An engine reproduces another's trajectory bit for bit only when
# both reduce gradients in the same layout: FULL_SHARD w4 matches the
# world-1 DDP oracle accumulating 4 micro rounds, the mesh matches it
# accumulating its dp=2 rounds. Across layouts the program promises
# agreement to 1e-10, and plain DDP w1 differs from FULL_SHARD w4 in the
# last bit from the third step on.
TRAIN_REFERENCES = {
    "train-ddp-w1": [("matches_fsdp_w4", ("full_shard", 4, {}), 1e-10)],
    "train-fsdp-w4": [
        ("bitwise_ddp_w1_accum4", ("ddp", 1, {"grad_accum_steps": 4}), 0.0),
        ("matches_ddp_w1", ("ddp", 1, {}), 1e-10),
    ],
    "train-mesh-2x2x2": [
        ("bitwise_ddp_w1_accum2", ("ddp", 1, {"grad_accum_steps": 2}), 0.0),
        ("matches_ddp_w1", ("ddp", 1, {}), 1e-10),
    ],
}
SERVE_WORKLOADS = ("serve-closed-8",)
NAMES = (*TRAIN_SPECS, *SERVE_WORKLOADS)


def make_corpus(seed: int) -> np.ndarray:
    """``CORPUS_IMAGES`` seeded synthetic scenes, ``(N, 3, 32, 32)``."""
    rng = np.random.default_rng([seed, 1])
    gen = SceneGenerator(img_size=get_mae_config(MODEL).encoder.img_size)
    return gen.generate_batch(rng.integers(0, gen.n_classes, CORPUS_IMAGES), rng)


def make_model() -> MaskedAutoencoder:
    return MaskedAutoencoder(get_mae_config(MODEL), rng=np.random.default_rng(MODEL_SEED))


def _trainer(spec, corpus: np.ndarray, seed: int, comm: SimComm | None = None):
    strategy, world, overrides = spec
    engine = make_engine(
        make_model(),
        strategy,
        world=World(world),
        config=EngineConfig(comm=comm, intra_op_threads=1, backend="inline"),
        **overrides,
    )
    schedule = CosineWithWarmup(
        base_lr=engine.lr, total_steps=SCHEDULE_STEPS, warmup_steps=SCHEDULE_WARMUP
    )
    return MAEPretrainer(engine, corpus, GLOBAL_BATCH, schedule=schedule, seed=seed)


class TrainWorkload:
    """A training loop: one ``MAEPretrainer.run(1)`` call per operation."""

    kind = "train"
    images_per_ok = GLOBAL_BATCH
    tail_q = 95.0

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.corpus = make_corpus(seed)
        self.comm = SimComm()
        self.trainer = _trainer(TRAIN_SPECS[name], self.corpus, seed, self.comm)
        self.engine = self.trainer.engine
        # Built once: the traced run looks a group up on every collective.
        mesh = getattr(self.engine, "device_mesh", None)
        self._axes = {} if mesh is None else {
            g.ranks: axis for axis in mesh.axis_names for g in mesh.groups(axis)
        }
        self.losses: list[float] = []
        for _ in range(WARMUP_STEPS):
            self.op()

    def op(self) -> float:
        """One training step; returns its wall seconds."""
        step = len(self.losses)
        t0 = perf_counter()
        try:
            loss = self.trainer.run(1, start_step=step).losses[0]
        except Exception as err:  # a failed step is counted, not fatal
            loss = math.nan
            print(f"step {step} raised {type(err).__name__}: {err}", file=sys.stderr)
        dt = perf_counter() - t0
        self.losses.append(loss)
        return dt

    def op_tally(self) -> tuple[int, int, int]:
        """(attempted, ok, failed) booked by the most recent op."""
        ok = math.isfinite(self.losses[-1])
        return 1, int(ok), int(not ok)

    def samples(self, durations: list[float]) -> list[float]:
        """Latency samples in ms: one per step."""
        return [d * 1e3 for d in durations]

    def axis_of(self, group):
        """The mesh axis ``group`` spans; ``None`` outside a mesh."""
        return self._axes.get(group.ranks)

    def loss_digest(self) -> str:
        return stats.loss_digest(self.losses[:DIGEST_STEPS])

    def checks(self) -> dict:
        """Correctness checks, name -> ``None`` (passed) or a message."""
        bad = stats.nonfinite_steps(self.losses)
        out = {"losses_finite": f"non-finite loss at steps {bad[:5]}" if bad else None}
        if len(self.losses) < DIGEST_STEPS:
            out["digest_steps"] = f"fewer than {DIGEST_STEPS} steps ran"
            return out
        for check, spec, rtol in TRAIN_REFERENCES[self.name]:
            want = _trainer(spec, self.corpus, self.seed).run(DIGEST_STEPS).losses
            out[check] = stats.trajectory_mismatch(
                self.losses[:DIGEST_STEPS], want, rtol
            )
        return out


class ServeWorkload:
    """A closed loop of ``CLIENTS`` clients around ``InferenceServer.run``.

    Each round every client sends one request and waits for its reply;
    ``run`` returns once all replies are delivered, so the next round
    starts only then. A request's wall latency is its round's.
    """

    kind = "serve"
    images_per_ok = 1
    tail_q = 99.0

    def __init__(self, name: str, seed: int):
        self.name = name
        self.pool = make_corpus(seed)
        self.model = make_model()
        self.server = InferenceServer(
            self.model,
            n_replicas=REPLICAS,
            max_batch_size=MAX_BATCH,
            cache_capacity=CACHE_ENTRIES,
            intra_op_threads=1,
        )
        rng = np.random.default_rng([seed, 2])
        # Zipf(1) popularity over a seeded ranking of the pool.
        self._ranking = rng.permutation(len(self.pool))
        weights = 1.0 / np.arange(1, len(self.pool) + 1)
        self._popularity = weights / weights.sum()
        self._picks = np.random.default_rng([seed, 3])
        self.sent = 0
        self.counts = {"ok": 0, "rejected": 0, "timed_out": 0, "failed": 0}
        self.feature_sample: list[tuple[int, np.ndarray]] = []
        self._rounds = 0
        self._last = (0, 0, 0)
        for _ in range(WARMUP_ROUNDS):
            self.op()

    def op(self) -> float:
        """One round of ``CLIENTS`` requests; returns its wall seconds."""
        picks = self._ranking[
            self._picks.choice(len(self.pool), size=CLIENTS, p=self._popularity)
        ]
        now = self.server.clock.now()
        workload = [(now, self.pool[i]) for i in picks]
        t0 = perf_counter()
        responses = self.server.run(workload)
        dt = perf_counter() - t0
        self.sent += CLIENTS
        ok = failed = 0
        for resp in responses:
            if resp.status == "ok":
                ok += 1
            elif resp.status == "rejected":
                self.counts["rejected"] += 1
            elif resp.status == "timeout":
                self.counts["timed_out"] += 1
            else:
                failed += 1
        # A request with no reply at all is a failure too.
        failed += CLIENTS - len(responses)
        self.counts["ok"] += ok
        self.counts["failed"] += failed
        self._last = (CLIENTS, ok, CLIENTS - ok)
        self._rounds += 1
        if self._rounds % FEATURE_SAMPLE_EVERY == 0 and responses:
            if responses[0].status == "ok":
                self.feature_sample.append((int(picks[0]), responses[0].features))
        return dt

    def op_tally(self) -> tuple[int, int, int]:
        return self._last

    def samples(self, durations: list[float]) -> list[float]:
        """Latency samples in ms: one per request, each its round's time."""
        return [d * 1e3 for d in durations for _ in range(CLIENTS)]

    def axis_of(self, group):
        return None

    def checks(self) -> dict:
        out = {"ledger": stats.ledger_mismatch(self.sent, self.counts)}
        if not self.server.stats.reconciles():
            out["server_ledger"] = f"server stats do not reconcile: {self.server.stats}"
        if not self.feature_sample:
            out["features_direct"] = "no feature rows were sampled"
            return out
        idx = [i for i, _ in self.feature_sample]
        direct = self.model.encode_features(self.pool[idx])
        out["features_direct"] = stats.rows_mismatch(
            [row for _, row in self.feature_sample], list(direct)
        )
        return out


def build(name: str, seed: int):
    """Construct and warm up workload ``name``."""
    if name in TRAIN_SPECS:
        return TrainWorkload(name, seed)
    if name in SERVE_WORKLOADS:
        return ServeWorkload(name, seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
