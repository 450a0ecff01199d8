"""Link adaptation policies under delayed feedback.

A policy walks a link trace step by step, forms an SNR estimate (possibly
stale or predicted), selects an MCS for the estimate, and realizes the
transmission against the true SNR. Throughput and latency then quantify how
much an estimate's staleness costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .radio import LinkState, McsTable, PathGainMap, bler, select_mcs, simulate_transmission
from .world import Cell

POLICY_KINDS = ("oracle", "ideal", "delayed", "predictive")

_MAP_AWARE_MIN_SAMPLES = 8


@dataclass(frozen=True)
class PolicySpec:
    """Which estimate drives MCS selection.

    oracle      -- true SNR
    ideal       -- true instantaneous SNR
    delayed     -- the true SNR ``delay`` steps ago
    predictive  -- the map-aware predictor extrapolating from feedback that
                   is ``delay`` steps old
    """

    kind: str
    delay: int = 0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"kind {self.kind!r} not in {POLICY_KINDS}")
        if self.delay < 0:
            raise ValueError("delay must be nonnegative")


class MapAwarePredictor:
    """Predicts SNR as map gain at the target cell plus a decayed shadowing
    residual, backed off by the residual's conditional spread.

    The residual process statistics (lag-1 correlation and spread) are
    estimated online from the residuals observed so far, so the predictor
    only ever uses information available at feedback time.
    """

    def __init__(self):
        self._n = 0
        self._s1 = 0.0
        self._s2 = 0.0
        self._sx = 0.0
        self._last = 0.0

    def observe(self, residual: float) -> None:
        if self._n >= 1:
            self._sx += residual * self._last
        self._n += 1
        self._s1 += residual
        self._s2 += residual * residual
        self._last = residual

    def predict(self, map_snr_target: float, delay: int) -> float:
        if self._n == 0:
            return map_snr_target
        if self._n < _MAP_AWARE_MIN_SAMPLES:
            return map_snr_target + self._last
        rho = min(max(self._sx / self._s2, 0.0), 0.9999) if self._s2 > 0 else 0.0
        var = self._s2 / self._n - (self._s1 / self._n) ** 2
        sigma = math.sqrt(max(var, 0.0))
        decay = rho**delay
        spread = sigma * math.sqrt(max(1.0 - decay * decay, 0.0))
        return map_snr_target + decay * self._last - spread


@dataclass
class PolicyTimeSeries:
    """Per-step outcomes of one policy over one trace.

    No policy skips a slot; ``skipped`` is all False and stays a field so
    that positional construction keeps its shape."""

    policy: PolicySpec
    mcs_index: np.ndarray
    throughput_bps: np.ndarray
    latency_s: np.ndarray
    bler_realized: np.ndarray
    success: np.ndarray
    skipped: np.ndarray

    def __len__(self) -> int:
        return len(self.mcs_index)

    @property
    def mean_throughput_bps(self) -> float:
        return float(np.mean(self.throughput_bps))

    @property
    def mean_latency_s(self) -> float:
        return float(np.mean(self.latency_s))

    def bler_mass_at_or_below(self, level: float) -> float:
        return float(np.mean(self.bler_realized <= level))


def run_policy(
    trace: Sequence[LinkState],
    spec: PolicySpec,
    table: McsTable,
    payload_bytes_per_step: int,
    bler_target: float = 0.1,
    *,
    seed: int = 0,
    cells: Optional[Sequence[Cell]] = None,
    gain_map: Optional[PathGainMap] = None,
    max_retx: int = 4,
) -> PolicyTimeSeries:
    """Walk ``trace`` under ``spec``; realized outcomes always come from the
    true SNR regardless of what the policy believed.

    ``cells`` and ``gain_map`` are required for predictive policies (the
    predictor needs the route and the average-gain field). The same ``seed``
    across policies shares no randomness between steps beyond the
    per-attempt failure draws, so traces are comparable policy-to-policy.
    """
    n = len(trace)
    if n == 0:
        raise ValueError("empty trace")
    if spec.kind in ("delayed", "predictive") and spec.delay >= n:
        raise ValueError(f"trace length {n} must exceed policy delay {spec.delay}")
    true_snr = np.array([ls.snr_db for ls in trace], dtype=float)

    if spec.kind == "predictive":
        if cells is None or gain_map is None:
            raise ValueError("predictive policy needs cells and gain_map")
        if len(cells) != n:
            raise ValueError("cells must align with trace")
        map_snr = np.array(
            [trace[t].tx_power_dbm + gain_map.gain_at(cells[t]) - trace[t].noise_dbm for t in range(n)],
            dtype=float,
        )
        residuals = true_snr - map_snr
        model = MapAwarePredictor()
        observed_up_to = -1

    rng = np.random.default_rng(seed)
    mcs = np.zeros(n, dtype=int)
    tput = np.zeros(n)
    lat = np.zeros(n)
    blr = np.zeros(n)
    succ = np.zeros(n, dtype=bool)

    for t in range(n):
        if spec.kind in ("oracle", "ideal"):
            estimate = true_snr[t]
        elif spec.kind == "delayed":
            estimate = true_snr[max(0, t - spec.delay)]
        else:
            feedback_at = t - spec.delay
            while observed_up_to < feedback_at:
                observed_up_to += 1
                model.observe(float(residuals[observed_up_to]))
            estimate = model.predict(float(map_snr[t]), spec.delay)

        sel = select_mcs(table, float(estimate), bler_target)
        entry = table.entries[sel.index]
        result = simulate_transmission(
            payload_bytes_per_step, entry, [float(true_snr[t])], table, rng, max_retx
        )
        mcs[t] = entry.index
        lat[t] = result.latency_s
        succ[t] = result.success
        blr[t] = bler(entry, float(true_snr[t]))
        if result.success and result.latency_s > 0:
            tput[t] = payload_bytes_per_step * 8.0 / result.latency_s
    return PolicyTimeSeries(spec, mcs, tput, lat, blr, succ, np.zeros(n, dtype=bool))


def gains(proposed: PolicyTimeSeries, baseline: PolicyTimeSeries) -> Tuple[float, float]:
    """Percent throughput gain and latency reduction of ``proposed`` over
    ``baseline``: ``(100 * (tp_p - tp_b) / tp_b, 100 * (lat_b - lat_p) / lat_b)``.
    """
    tp_b = baseline.mean_throughput_bps
    lat_b = baseline.mean_latency_s
    if tp_b == 0:
        raise ValueError("baseline mean throughput is zero")
    if lat_b == 0:
        raise ValueError("baseline mean latency is zero")
    tp_p = proposed.mean_throughput_bps
    lat_p = proposed.mean_latency_s
    return 100.0 * (tp_p - tp_b) / tp_b, 100.0 * (lat_b - lat_p) / lat_b
