"""One workload in one fresh process; prints its result as a JSON line.

Started by ``run.py``; not meant to be run by hand. Usage::

    worker.py WORKLOAD SEED SECONDS TRACE SPAWNED_AT [--setup-only]

``SPAWNED_AT`` is the ``time.monotonic()`` reading taken just before
this process was started, so set-up time covers interpreter start,
imports, construction and warm-up.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import stats
import tracing
import workloads


def measure(wl, seconds: float, min_ops: int) -> dict:
    """Run operations for ``seconds`` (longer if fewer than ``min_ops``)."""
    durations: list[float] = []
    attempted = ok = failed = 0
    t_start = time.perf_counter()
    deadline, cap = t_start + seconds, t_start + 3 * seconds
    while True:
        now = time.perf_counter()
        if now >= cap or (now >= deadline and len(durations) >= min_ops):
            break
        durations.append(wl.op())
        a, o, f = wl.op_tally()
        attempted, ok, failed = attempted + a, ok + o, failed + f
    return {
        "durations": durations,
        "wall_s": time.perf_counter() - t_start,
        "attempted": attempted,
        "ok": ok,
        "failed": failed,
    }


def min_ops(wl) -> int:
    """Operations needed for ``MIN_SAMPLES_ABOVE`` samples above the tail.

    A serving round yields ``CLIENTS`` equal request latencies, so it
    counts as that many samples beyond the tail when it lands there.
    """
    per_op = 1 if wl.kind == "train" else workloads.CLIENTS
    return stats.min_samples_for(wl.tail_q, -(-stats.MIN_SAMPLES_ABOVE // per_op))


def end_to_end(wl, window: dict) -> dict:
    samples = wl.samples(window["durations"])
    p50 = stats.percentile(samples, 50)
    p_tail, above = stats.tail(samples, wl.tail_q)
    return {
        "images_per_s": window["ok"] * wl.images_per_ok / window["wall_s"],
        "latency_ms_p50": p50,
        "latency_ms_tail": p_tail,
        "samples": len(samples),
        "samples_above_tail": above,
        "failed_share": stats.failed_share(window["failed"], window["attempted"]),
    }


#: Untraced and traced chunks alternate at this length, so a drift in
#: host speed hits both sides of ``trace.overhead_share`` alike.
TRACE_CHUNK_S = 1.0


def traced_run(wl, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced chunks over ``seconds``; per-layer
    metrics come from the traced chunks only."""
    baseline: list[float] = []
    window = {"durations": [], "wall_s": 0.0, "attempted": 0, "ok": 0, "failed": 0}
    retries0 = wl.comm.stats.total_retries if wl.kind == "train" else 0
    counts0 = dict(getattr(wl, "counts", {}))
    tracer = tracing.Tracer()
    for _ in range(max(1, round(seconds / (2 * TRACE_CHUNK_S)))):
        baseline += measure(wl, TRACE_CHUNK_S, 1)["durations"]
        with tracing.installed(tracer, getattr(wl, "engine", None), wl.axis_of):
            chunk = measure(wl, TRACE_CHUNK_S, 1)
        for key, value in chunk.items():
            window[key] += value
    retries = wl.comm.stats.total_retries - retries0 if wl.kind == "train" else 0
    outcomes = {k: v - counts0.get(k, 0) for k, v in getattr(wl, "counts", {}).items()}
    traced_s = stats.percentile(window["durations"], 50)
    untraced_s = stats.percentile(baseline, 50)
    per = len(window["durations"]) * (1 if wl.kind == "train" else workloads.CLIENTS)
    metrics = tracing.per_layer_metrics(
        tracer,
        per,
        sum(window["durations"]),
        traced_s / untraced_s - 1.0,
        retries=retries,
        outcomes=outcomes,
    )
    residual = metrics["trace.residual_share"]
    check = None
    if not abs(residual) <= tracing.RESIDUAL_LIMIT:
        check = (
            f"layer self times leave {residual:.1%} of the traced wall time "
            f"unexplained (limit {tracing.RESIDUAL_LIMIT:.0%})"
        )
    return window, {"metrics": metrics, "residual_check": check}


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, spawned_at = argv[:5]
    setup_only = "--setup-only" in argv[5:]
    wl = workloads.build(name, int(seed))
    setup_s = time.monotonic() - float(spawned_at)
    if setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = {"workload": name, "seed": int(seed), "kind": wl.kind, "setup_s": setup_s}
    if trace == "1":
        window, traced = traced_run(wl, float(seconds))
        result["per_layer"] = traced["metrics"]
        checks = {"trace_residual": traced["residual_check"]}
    else:
        window = measure(wl, float(seconds), min_ops(wl))
        result["end_to_end"] = end_to_end(wl, window)
        checks = {}
    # Before the checks, which build a second engine of their own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks.update(wl.checks())
    result.update(
        attempted=window["attempted"],
        failed=window["failed"],
        checks=checks,
        loss_digest=wl.loss_digest() if wl.kind == "train" else None,
        peak_rss_mb=peak_rss_mb,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
