"""Run-level key performance indicators and their summaries."""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Mapping, NamedTuple, Sequence

import numpy as np

DEFAULT_LOSS_THRESHOLD_STEPS = 3


class TailStats(NamedTuple):
    mean: float
    p95: float


def tail_stats(samples: Sequence[float]) -> TailStats:
    """Mean and the nearest-rank 95th percentile (the ceil(0.95 n)-th order
    statistic)."""
    vals = np.asarray(list(samples), dtype=float)
    if vals.size == 0:
        raise ValueError("no samples")
    mean = float(np.mean(vals))
    rank = max(0, math.ceil(0.95 * vals.size) - 1)
    p95 = float(np.sort(vals)[rank])
    return TailStats(mean, p95)


def utfr(
    frame_arrival_steps: Sequence[int],
    total_steps: int,
    loss_threshold_steps: int = DEFAULT_LOSS_THRESHOLD_STEPS,
) -> float:
    """User-tracking failure rate, in percent.

    Tracking survives arrival gaps up to ``loss_threshold_steps``; each
    longer gap loses ``gap - threshold`` steps. Gaps include the stretch
    before the first arrival and after the last one. The arrivals are
    sorted once and their gaps summed in one pass, in integers.
    """
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if loss_threshold_steps < 0:
        raise ValueError("loss_threshold_steps must be nonnegative")
    arrivals = sorted(map(int, frame_arrival_steps))
    if arrivals and (arrivals[0] < 0 or arrivals[-1] > total_steps):
        # the smallest step outside the range
        bad = arrivals[0] if arrivals[0] < 0 else arrivals[bisect.bisect_right(arrivals, total_steps)]
        raise ValueError(f"arrival step {bad} outside [0, {total_steps}]")
    arrivals.append(total_steps)
    lost = prev = 0
    for s in arrivals:
        if s - prev > loss_threshold_steps:
            lost += s - prev - loss_threshold_steps
        prev = s
    return 100.0 * lost / total_steps


def run_summary(records: Iterable[Mapping]) -> List[Dict]:
    """Median and interquartile range per (scenario, method, metric).

    ``records`` are run dicts with ``scenario_id``, ``method``, ``seed`` and
    a ``metrics`` mapping. Rows come back sorted for stable output. The rows
    with the same number of values are summarized together, by one
    ``np.percentile`` and one ``np.median`` call along the rows of their
    matrix; each row's results equal those of the calls on that row alone.
    """
    grouped: Dict[tuple, Dict[str, List[float]]] = {}
    for rec in records:
        key = (rec["scenario_id"], rec["method"])
        bucket = grouped.setdefault(key, {})
        for name, value in rec["metrics"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                bucket.setdefault(name, []).append(float(value))
    keys, series = [], []
    for (scenario_id, method) in sorted(grouped):
        bucket = grouped[(scenario_id, method)]
        for metric in sorted(bucket):
            keys.append((scenario_id, method, metric))
            series.append(bucket[metric])
    by_count: Dict[int, List[int]] = {}  # value count -> indices of its series
    for i, vals in enumerate(series):
        by_count.setdefault(len(vals), []).append(i)
    medians = [0.0] * len(series)
    iqrs = [0.0] * len(series)
    for indices in by_count.values():
        vals = np.array([series[i] for i in indices], dtype=float)
        q25, q75 = np.percentile(vals, [25, 75], axis=1)
        for i, median, iqr in zip(indices, np.median(vals, axis=1).tolist(), (q75 - q25).tolist()):
            medians[i] = median
            iqrs[i] = iqr
    return [
        {"scenario_id": scenario_id, "method": method, "metric": metric,
         "median": medians[i], "iqr": iqrs[i], "n": len(series[i])}
        for i, (scenario_id, method, metric) in enumerate(keys)
    ]
