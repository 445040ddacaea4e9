"""Small pure helpers shared by the benchmark's processes: percentiles,
latency summaries, failure counts and input digests."""

from __future__ import annotations

import hashlib
import json
import math
import statistics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share
    ``q`` of all samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[max(rank, 1) - 1]


def tail_count(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q`` percentile of ``n``."""
    return n - max(math.ceil(q * n - 1e-9), 1)


def p90_summary(latencies_s) -> dict:
    """Whole-run p90 in ms with the sample count and the tail behind it.

    A p90 is trustworthy once at least ten samples lie beyond it, i.e. from
    100 samples on; ``p90_tail_ok`` says whether this run got there.
    """
    ms = [1e3 * t for t in latencies_s]
    tail = tail_count(len(ms), 0.9)
    return {
        "latency_ms_p90": percentile(ms, 0.9),
        "samples": len(ms),
        "p90_tail_samples": tail,
        "p90_tail_ok": tail >= 10,
    }


def windowed_summary(start: float, stamps, latencies_s, passed, window: int) -> dict:
    """Throughput and p50 as medians over consecutive windows of ``window``
    operations, plus the whole-run figures.

    ``stamps[i]`` is the clock when operation ``i`` and its check finished.
    A window of one balanced block of the workload's mix is a fair sample
    of it, and the median over windows keeps a burst of machine noise in a
    few windows from moving the run's figure.  A run too short for one
    whole window counts as one window.
    """
    n = len(stamps)
    bounds = [(lo, lo + window) for lo in range(0, n - window + 1, window)] or [(0, n)]
    rates, medians = [], []
    for lo, hi in bounds:
        began = stamps[lo - 1] if lo else start
        rates.append(sum(passed[lo:hi]) / (stamps[hi - 1] - began))
        medians.append(percentile(latencies_s[lo:hi], 0.5))
    return {
        "ops_per_s": statistics.median(rates),
        "latency_ms_p50": 1e3 * statistics.median(medians),
        "windows": len(bounds),
        "window_ops": window,
        "overall_ops_per_s": sum(passed) / (stamps[-1] - start),
        "overall_latency_ms_p50": 1e3 * percentile(latencies_s, 0.5),
    }


def failure_summary(attempted: int, failed: int, known_defects: int) -> dict:
    """Failed operations against attempted ones, both counts kept.

    ``failed_frac`` counts every operation whose check failed, including the
    invalid configs that hit a documented, still-open program defect.
    """
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return {
        "attempted": attempted,
        "failed": failed,
        "known_defects": known_defects,
        "failed_frac": (failed + known_defects) / attempted,
    }


def digest(obj) -> str:
    """Stable sha256 of a JSON-serialisable object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
