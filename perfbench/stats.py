"""The benchmark's own arithmetic: percentiles, failure shares and the
correctness comparisons.

Kept free of NumPy and of the program under test so that the unit tests
in ``perfbench/tests`` pin it down without building a model.
"""

from __future__ import annotations

import hashlib
import math
import struct

#: A timing percentile is reported only when at least this many samples
#: lie strictly above it; otherwise the tail is a handful of outliers.
MIN_SAMPLES_ABOVE = 10


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile: the smallest observed value with
    at least ``q`` percent of the samples at or below it.

    The result is always a measured sample, never an interpolation
    between two of them, so a tail figure is a latency someone saw.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_above(values, threshold: float) -> int:
    """How many samples lie strictly above ``threshold``."""
    return sum(1 for v in values if v > threshold)


def min_samples_for(q: float, min_above: int = MIN_SAMPLES_ABOVE) -> int:
    """Smallest sample count for which the ``q``-th percentile can leave
    ``min_above`` samples strictly above it (distinct values assumed)."""
    if not 0 < q < 100:
        raise ValueError(f"q must be in (0, 100), got {q}")
    return math.ceil(min_above / (1.0 - q / 100.0))


def tail(values, q: float, min_above: int = MIN_SAMPLES_ABOVE) -> tuple[float, int]:
    """``(percentile, samples above it)``; raises when fewer than
    ``min_above`` samples lie beyond the percentile."""
    p = percentile(values, q)
    above = samples_above(values, p)
    if above < min_above:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {above} samples above it; "
            f"at least {min_above} are needed"
        )
    return p, above


def failed_share(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones (steps or requests sent).

    The denominator counts every attempt, so a refused request lowers
    the share of successes just as an error does.
    """
    if attempted < 1:
        raise ValueError(f"attempted must be >= 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def loss_digest(losses) -> str:
    """Hex digest of a loss trajectory's exact float64 bits."""
    h = hashlib.sha256()
    for loss in losses:
        h.update(struct.pack("<d", float(loss)))
    return h.hexdigest()[:16]


def trajectory_mismatch(got, want, rtol: float = 0.0) -> str | None:
    """``None`` when two loss trajectories agree, else why not.

    ``rtol=0`` demands equal float64 bits; otherwise each loss may
    differ from the reference by ``rtol`` of the reference's magnitude.
    """
    if len(got) != len(want):
        return f"trajectory lengths differ: {len(got)} != {len(want)}"
    for i, (a, b) in enumerate(zip(got, want)):
        a, b = float(a), float(b)
        if rtol == 0.0:
            same = struct.pack("<d", a) == struct.pack("<d", b)
        else:
            same = abs(a - b) <= rtol * abs(b)
        if not same:
            return f"step {i}: loss {a!r} != reference {b!r} (rtol {rtol:g})"
    return None


def nonfinite_steps(losses) -> list[int]:
    """Indices of losses that are NaN or infinite."""
    return [i for i, loss in enumerate(losses) if not math.isfinite(loss)]


def rows_mismatch(got_rows, want_rows) -> str | None:
    """``None`` when two lists of feature rows agree bit for bit.

    Rows are anything with ``tobytes()`` (NumPy arrays); comparing raw
    bytes makes -0.0 vs 0.0 and NaN payloads count as differences.
    """
    if len(got_rows) != len(want_rows):
        return f"row counts differ: {len(got_rows)} != {len(want_rows)}"
    for i, (a, b) in enumerate(zip(got_rows, want_rows)):
        if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
            return f"feature row {i} differs from direct encoding"
    return None


def ledger_mismatch(sent: int, counts: dict) -> str | None:
    """``None`` when ``ok + rejected + timed_out + failed == sent``."""
    total = sum(counts[k] for k in ("ok", "rejected", "timed_out", "failed"))
    if total != sent:
        return f"ledger does not balance: {counts} sums to {total}, sent {sent}"
    return None
