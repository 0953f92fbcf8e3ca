"""The benchmark's own arithmetic: percentiles, the ten-samples-beyond
rule, nested self time, the failed-share denominator and the checks
that must reject a perturbed trajectory or feature row.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import run
import stats
import tracing
import worker


# -- percentiles and the ten-samples-beyond rule -----------------------------


def test_percentile_is_nearest_rank_and_an_observed_sample():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 50) == 2.0
    assert stats.percentile(values, 75) == 3.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 1) == 1.0
    samples = [0.5 * i for i in range(1, 201)]
    for q in (50, 95, 99):
        assert stats.percentile(samples, q) in samples


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_p95_of_one_hundred_leaves_five_above():
    values = list(range(1, 101))
    assert stats.percentile(values, 95) == 95
    assert stats.samples_above(values, 95) == 5


def test_minimum_samples_for_ten_beyond():
    assert stats.min_samples_for(95) == 200
    assert stats.min_samples_for(99) == 1000
    assert stats.min_samples_for(99, 2) == 200


def test_tail_needs_ten_samples_beyond():
    enough = [float(i) for i in range(200)]
    p, above = stats.tail(enough, 95)
    assert (p, above) == (189.0, 10)
    with pytest.raises(ValueError, match="at least 10"):
        stats.tail(enough[:199], 95)


def test_tied_serving_rounds_count_every_request_beyond_the_tail():
    # A round's CLIENTS requests share one latency, so 200 rounds give
    # p99 with two whole rounds (16 requests) beyond it.
    rounds = [float(i) for i in range(200)]
    requests = [r for r in rounds for _ in range(8)]
    p, above = stats.tail(requests, 99)
    assert p == 197.0 and above == 16


def test_worker_minimum_operations_match_the_rule():
    class Train:
        kind, tail_q = "train", 95.0

    class Serve:
        kind, tail_q = "serve", 99.0

    assert worker.min_ops(Train) == 200
    assert worker.min_ops(Serve) == 200


# -- nested self time ---------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_wrapped_children_at_every_depth():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        leaf()
        leaf()

    def root():
        clock.now += 4.0
        middle()
        clock.now += 8.0

    leaf = tracer.wrap("leaf", leaf)
    middle = tracer.wrap("middle", middle)
    root = tracer.wrap("root", root)
    root()
    assert tracer.total_s == {"leaf": 2.0, "middle": 4.0, "root": 16.0}
    assert tracer.self_s == {"leaf": 2.0, "middle": 2.0, "root": 12.0}
    assert tracer.calls == {"leaf": 2, "middle": 1, "root": 1}
    # Self times telescope to the root's wall time.
    assert tracer.self_total() == 16.0


def test_self_time_is_booked_when_the_call_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def boom():
        clock.now += 3.0
        raise RuntimeError("x")

    outer_calls = []

    def outer():
        clock.now += 1.0
        try:
            boom_t()
        except RuntimeError:
            outer_calls.append(1)

    boom_t = tracer.wrap("boom", boom)
    tracer.wrap("outer", outer)()
    assert tracer.self_s == {"boom": 3.0, "outer": 1.0}
    assert outer_calls == [1]


def test_hook_sees_the_call_self_time():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    seen = []

    def inner():
        clock.now += 1.0

    def outer():
        clock.now += 2.0
        inner_t()

    inner_t = tracer.wrap("inner", inner)
    outer_t = tracer.wrap(
        "outer", outer, lambda tr, name, a, k, r, own: seen.append((name, own))
    )
    outer_t()
    assert seen == [("outer", 2.0)]


def test_installed_restores_every_original():
    from repro.models.layers import Linear
    from repro.serve import server as server_mod

    before = (Linear.__dict__["forward"], server_mod.image_digest)
    with tracing.installed(tracing.Tracer()):
        assert Linear.__dict__["forward"] is not before[0]
        assert server_mod.image_digest is not before[1]
    assert (Linear.__dict__["forward"], server_mod.image_digest) == before


def test_per_layer_rows_are_per_step_and_residual_is_unexplained_share():
    tracer = tracing.Tracer()
    tracer.self_s.update(
        {"trainer.run": 0.1, "engine.train_step": 0.2, "models.linear.forward": 0.6}
    )
    tracer.total_s.update(tracer.self_s)
    tracer.calls.update({"models.linear.forward": 4})
    tracer.counts["linear.flops"] = 1.2e9
    m = tracing.per_layer_metrics(tracer, per=2, traced_wall_s=1.0, overhead_share=0.1)
    assert set(m) == set(tracing.PER_LAYER)
    assert m["models.linear_ms"] == pytest.approx(300.0)
    assert m["models.linear_gflops"] == pytest.approx(2.0)
    assert m["engine.self_ms"] == pytest.approx(100.0)
    assert m["trainer.loop_ms"] == pytest.approx(50.0)
    assert m["trace.wall_ms"] == pytest.approx(500.0)
    assert m["trace.residual_share"] == pytest.approx(0.1)


# -- failed share ---------------------------------------------------------------


def test_failed_share_counts_every_attempt_in_the_denominator():
    assert stats.failed_share(0, 8) == 0.0
    assert stats.failed_share(2, 8) == 0.25
    with pytest.raises(ValueError):
        stats.failed_share(0, 0)
    with pytest.raises(ValueError):
        stats.failed_share(9, 8)


# -- correctness checks ---------------------------------------------------------


def test_trajectory_check_rejects_a_one_ulp_perturbation():
    losses = [1.2798795113044534, 1.2712516645766423, 1.2573972979962094]
    assert stats.trajectory_mismatch(losses, list(losses)) is None
    bumped = list(losses)
    bumped[1] = math.nextafter(bumped[1], 2.0)
    assert "step 1" in stats.trajectory_mismatch(bumped, losses)
    assert stats.trajectory_mismatch(losses[:2], losses) is not None


def test_trajectory_tolerance_check():
    want = [1.0, 2.0]
    assert stats.trajectory_mismatch([1.0 + 5e-11, 2.0], want, rtol=1e-10) is None
    assert stats.trajectory_mismatch([1.0 + 5e-10, 2.0], want, rtol=1e-10) is not None


def test_loss_digest_follows_the_bits():
    losses = [1.5, 0.25]
    assert stats.loss_digest(losses) == stats.loss_digest(list(losses))
    assert stats.loss_digest(losses) != stats.loss_digest([1.5, math.nextafter(0.25, 1)])


def test_nonfinite_steps():
    assert stats.nonfinite_steps([1.0, math.nan, 2.0, math.inf]) == [1, 3]


def test_feature_check_rejects_a_perturbed_row():
    rows = [np.arange(4, dtype=np.float64), np.ones(4)]
    assert stats.rows_mismatch(rows, [r.copy() for r in rows]) is None
    bad = [r.copy() for r in rows]
    bad[1][2] = np.nextafter(bad[1][2], 2.0)
    assert "row 1" in stats.rows_mismatch(bad, rows)
    signed = [r.copy() for r in rows]
    signed[0][0] = -0.0
    assert stats.rows_mismatch(signed, rows) is not None


def test_ledger_check():
    counts = {"ok": 6, "rejected": 1, "timed_out": 0, "failed": 1}
    assert stats.ledger_mismatch(8, counts) is None
    assert stats.ledger_mismatch(9, counts) is not None


def test_workload_checks_reject_a_perturbed_loss_and_feature_row():
    import workloads

    train = workloads.build("train-ddp-w1", seed=3)
    while len(train.losses) < workloads.DIGEST_STEPS:
        train.op()
    assert all(problem is None for problem in train.checks().values())
    train.losses[5] = math.nextafter(train.losses[5], 2.0)
    assert train.checks()["matches_fsdp_w4"] is None  # within 1e-10
    train.losses[5] += 1e-6
    assert "step 5" in train.checks()["matches_fsdp_w4"]

    serve = workloads.build("serve-closed-8", seed=3)
    assert all(problem is None for problem in serve.checks().values())
    _, row = serve.feature_sample[0]
    row[0] = np.nextafter(row[0], np.inf)
    assert "row 0" in serve.checks()["features_direct"]
    serve.counts["ok"] -= 1
    assert serve.checks()["ledger"] is not None


def test_report_marks_a_failed_check_incorrect(capsys):
    result = {
        "workload": "train-ddp-w1",
        "seed": 1,
        "kind": "train",
        "checks": {"losses_finite": None, "matches_fsdp_w4": "step 2 differs"},
        "loss_digest": "0" * 16,
        "attempted": 3,
        "failed": 0,
        "peak_rss_mb": 90.0,
        "end_to_end": {
            "images_per_s": 500.0,
            "latency_ms_p50": 30.0,
            "latency_ms_tail": 40.0,
            "samples": 200,
            "samples_above_tail": 10,
            "failed_share": 0.0,
        },
    }
    out = run.report(result, [0.5, 0.7, 0.6])
    assert out["correct"] is False
    assert out["metrics"]["setup_s"]["value"] == 0.6
    assert set(out["metrics"]) == set(run.END_TO_END)
    printed = capsys.readouterr().out
    assert "FAILED: step 2 differs" in printed
    for name in ("train_images_per_s", "step_ms_p50", "step_ms_p95", "failed_share"):
        assert f"{name} = " in printed


# -- the declared benchmark matches the code ------------------------------------


def test_benchmark_json_declares_what_the_command_reports():
    import workloads

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
