"""Run-level key performance indicators and their summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, NamedTuple, Sequence

import numpy as np

from .planner import SpaceTimePath

DEFAULT_LOSS_THRESHOLD_STEPS = 3


@dataclass
class KpiRecord:
    """KPIs of one simulated run."""

    completion_time_s: float
    stop_events: int
    halt_s: float
    rtt_samples_s: List[float] = field(default_factory=list)
    per_robot_arrival_steps: Dict[int, int] = field(default_factory=dict)

    def as_metrics(self) -> Dict[str, float]:
        out = {
            "completion_time_s": float(self.completion_time_s),
            "stop_events": float(self.stop_events),
            "halt_s": float(self.halt_s),
        }
        if self.rtt_samples_s:
            mean, _, p95 = tail_stats(self.rtt_samples_s)
            out["rtt_mean_s"] = mean
            out["rtt_p95_s"] = p95
        return out


def completion_time(
    paths: Sequence[SpaceTimePath],
    stop_log: Mapping[int, float],
    step_duration_s: float,
) -> float:
    """Seconds until the last robot is done.

    Each robot contributes ``arrival_step * step_duration_s`` (every planned
    step, moves and commanded waits alike, takes one cell-traverse interval)
    plus its accumulated halt seconds from ``stop_log``.
    """
    if not paths:
        raise ValueError("no paths")
    if step_duration_s <= 0:
        raise ValueError("step_duration_s must be positive")
    return max(
        p.arrival_step * step_duration_s + float(stop_log.get(p.robot_id, 0.0)) for p in paths
    )


class TailStats(NamedTuple):
    mean: float
    std: float
    p95: float


def tail_stats(samples: Sequence[float]) -> TailStats:
    """Mean, sample standard deviation (n-1; zero for a single sample), and
    the nearest-rank 95th percentile (the ceil(0.95 n)-th order statistic)."""
    vals = np.asarray(list(samples), dtype=float)
    if vals.size == 0:
        raise ValueError("no samples")
    mean = float(np.mean(vals))
    std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
    rank = max(0, math.ceil(0.95 * vals.size) - 1)
    p95 = float(np.sort(vals)[rank])
    return TailStats(mean, std, p95)


def utfr(
    frame_arrival_steps: Sequence[int],
    total_steps: int,
    loss_threshold_steps: int = DEFAULT_LOSS_THRESHOLD_STEPS,
) -> float:
    """User-tracking failure rate, in percent.

    Tracking survives arrival gaps up to ``loss_threshold_steps``; each
    longer gap loses ``gap - threshold`` steps. Gaps include the stretch
    before the first arrival and after the last one.
    """
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if loss_threshold_steps < 0:
        raise ValueError("loss_threshold_steps must be nonnegative")
    arrivals = sorted(int(s) for s in frame_arrival_steps)
    for s in arrivals:
        if s < 0 or s > total_steps:
            raise ValueError(f"arrival step {s} outside [0, {total_steps}]")
    if not arrivals:
        gaps = [total_steps]
    else:
        gaps = [arrivals[0]]
        gaps.extend(b - a for a, b in zip(arrivals, arrivals[1:]))
        gaps.append(total_steps - arrivals[-1])
    lost = sum(max(0, g - loss_threshold_steps) for g in gaps)
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
