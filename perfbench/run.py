"""The repository benchmark: one command for every workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-ddp-w1 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs a separate traced window and reports the per-layer
metrics. Each workload runs in a fresh worker process (``worker.py``),
so peak RSS and set-up time belong to that workload alone. The last
line of standard output is one JSON object; the lines before it name
every metric with its unit. The command exits 1 when a correctness
check fails and 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("train-ddp-w1", "train-fsdp-w4", "train-mesh-2x2x2", "serve-closed-8")

#: End-to-end metrics of the untraced run that the JSON result carries:
#: name -> (unit, better). ``latency_ms_p50`` and ``failed_share`` are
#: printed but left out: on a 2-vCPU VM step times switch between a fast
#: and a slow mode, and the median flips between them from run to run
#: (its spread over ten runs reached 0.26), while ``failed_share`` is 0
#: and the result's ``attempted``/``failed`` carry it.
END_TO_END = {
    "images_per_s": ("images/s", "higher"),
    "latency_ms_tail": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PRINTED = {**END_TO_END, "latency_ms_p50": ("ms", "lower")}
#: The same numbers under the names a training or serving user knows.
DISPLAY_NAMES = {
    "train": {
        "images_per_s": "train_images_per_s",
        "latency_ms_p50": "step_ms_p50",
        "latency_ms_tail": "step_ms_p95",
    },
    "serve": {
        "images_per_s": "serve_images_per_s",
        "latency_ms_p50": "request_ms_p50",
        "latency_ms_tail": "request_ms_p99",
    },
}
#: Fresh processes whose set-up is timed per untraced run; the median
#: is reported. The last one goes on to measure.
SETUP_REPEATS = 3
#: Wall budget for every worker of one run together.
RUN_BUDGET_S = 170.0


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One thread of compute: intra_op_threads=1 and a single-threaded BLAS.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args: argparse.Namespace, deadline: float, setup_only: bool) -> dict:
    """Run one worker to completion; its last stdout line parsed as JSON."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        args.workload,
        str(args.seed),
        str(args.seconds),
        str(args.trace),
    ]
    spawned_at = time.monotonic()
    cmd.append(repr(spawned_at))
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=_worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def report(result: dict, setup_samples: list[float]) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    name, kind = result["workload"], result["kind"]
    print(f"workload {name} seed {result['seed']}: one process, inline backend, 1 thread")
    for check, problem in result["checks"].items():
        print(f"check {check}: {'ok' if problem is None else 'FAILED: ' + problem}")
    if result.get("loss_digest"):
        print(f"loss_digest = {result['loss_digest']}")
    metrics: dict = {}
    if "end_to_end" in result:
        e2e = dict(result["end_to_end"])
        e2e["setup_s"] = statistics.median(setup_samples)
        e2e["peak_rss_mb"] = result["peak_rss_mb"]
        unit_of = "step" if kind == "train" else "request"
        for key, (unit, _) in PRINTED.items():
            shown = DISPLAY_NAMES[kind].get(key, key)
            note = ""
            if key.startswith("latency_ms"):
                note = f"  (n={e2e['samples']} {unit_of}s"
                if key == "latency_ms_tail":
                    note += f", {e2e['samples_above_tail']} above"
                note += ")"
            elif key == "setup_s":
                note = f"  (median of {len(setup_samples)} fresh processes)"
            print(f"{shown} = {e2e[key]:.6g} {unit}{note}  [{key}]")
            if key in END_TO_END:
                metrics[key] = {"value": e2e[key], "unit": unit}
        print(
            f"failed_share = {e2e['failed_share']:.6g} share  "
            f"({result['failed']} of {result['attempted']} {unit_of}s)"
        )
    else:
        for key, (unit, _) in tracing.PER_LAYER.items():
            value = result["per_layer"][key]
            print(f"{key} = {value:.6g} {unit}")
            metrics[key] = {"value": value, "unit": unit}
    correct = all(problem is None for problem in result["checks"].values())
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    # Termination unwinds through subprocess.run, which kills and reaps
    # the worker before re-raising.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_BUDGET_S
    setup_samples = []
    try:
        if args.trace == 0:
            for _ in range(SETUP_REPEATS - 1):
                setup_samples.append(_spawn(args, deadline, setup_only=True)["setup_s"])
        result = _spawn(args, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 3
    setup_samples.append(result["setup_s"])
    out = report(result, setup_samples)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
