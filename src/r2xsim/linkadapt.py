"""Link adaptation policies under delayed feedback.

A policy walks a link trace step by step, forms an SNR estimate (possibly
stale or predicted), selects an MCS for the estimate, and realizes the
transmission against the true SNR. Throughput and latency then quantify how
much an estimate's staleness costs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .radio import McsEntry, McsTable, PathGainMap, RadioConfig, bler, sample_trace, serialization_time_s
from .world import Cell

POLICY_KINDS = ("oracle", "ideal", "delayed", "predictive")

_MAP_AWARE_MIN_SAMPLES = 8

# HARQ draws turned into Python floats at a time.
_DRAW_BLOCK = 4096

_SIGN_BIT = 1 << 63
_MAGNITUDE_BITS = _SIGN_BIT - 1


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


@dataclass
class PolicyTimeSeries:
    """Per-step outcomes of one policy over one trace."""

    policy: PolicySpec
    mcs_index: np.ndarray
    throughput_bps: np.ndarray
    latency_s: np.ndarray
    bler_realized: np.ndarray
    success: np.ndarray

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


class LinkTable:
    """Every seed-dependent quantity of one link trace, computed once and read
    by every policy replayed over it.

    ``true_snr`` is the SNR each step is sent on; ``map_snr`` (needed by
    predictive policies only) is what the average-gain map predicts for
    that step. Built here, once:

    - ``bler[t, e]``: ``radio.bler`` of entry ``e`` at ``true_snr[t]``, each
      value from the scalar ``math`` formula;
    - ``best[t]``: what ``select_mcs`` picks at ``true_snr[t]``;
    - ``cutoff[e]``: the least float ``x`` with ``bler(e, x) <= bler_target``
      (NaN when no float qualifies). ``bler`` is nonincreasing in the SNR,
      so ``bler(e, x) <= bler_target`` exactly when ``x >= cutoff[e]``.
    """

    def __init__(
        self,
        true_snr: Sequence[float],
        table: McsTable,
        bler_target: float = 0.1,
        map_snr: Optional[Sequence[float]] = None,
    ):
        if not 0.0 < bler_target < 1.0:
            raise ValueError("bler_target must be in (0, 1)")
        self.true_snr = [float(x) for x in true_snr]
        n = len(self.true_snr)
        if n == 0:
            raise ValueError("empty trace")
        if not all(math.isfinite(x) for x in self.true_snr):
            raise ValueError("true SNRs must be finite")
        self.map_snr = None
        if map_snr is not None:
            self.map_snr = [float(x) for x in map_snr]
            if len(self.map_snr) != n:
                raise ValueError(f"{len(self.map_snr)} map SNRs for a {n}-step trace")
            if not all(math.isfinite(x) for x in self.map_snr):
                raise ValueError("map SNRs must be finite")
        self.table = table
        self.bler_target = bler_target
        self.bler = np.empty((n, len(table.entries)))
        for entry in table.entries:
            self.bler[:, entry.index] = [bler(entry, x) for x in self.true_snr]
        self.best = _highest_true(self.bler <= bler_target)
        self.cutoff = np.array([_cutoff(entry, bler_target) for entry in table.entries])

    @classmethod
    def sample(
        cls,
        gain_map: PathGainMap,
        cells: Sequence[Cell],
        cfg: RadioConfig,
        table: McsTable,
        seed: int,
        bler_target: float = 0.1,
    ) -> "LinkTable":
        """The table of ``sample_trace(gain_map, cells, cfg, seed)``."""
        trace = sample_trace(gain_map, cells, cfg, seed)
        gain = {cell: gain_map.gain_at(cell) for cell in set(cells)}
        return cls(
            [ls.snr_db for ls in trace],
            table,
            bler_target,
            [ls.tx_power_dbm + gain[cell] - ls.noise_dbm for ls, cell in zip(trace, cells)],
        )

    def __len__(self) -> int:
        return len(self.true_snr)

    def select(self, estimates: Sequence[float]) -> np.ndarray:
        """``select_mcs`` index for each SNR estimate, by the cut-offs."""
        return _highest_true(np.asarray(estimates, dtype=float)[:, np.newaxis] >= self.cutoff)

    @cached_property
    def _residual_stats(self) -> Tuple[List[float], List[float], List[float]]:
        """The map-aware predictor's state after each number of observed
        residuals ``true_snr - map_snr``, the same for every delay: index
        ``k - 1`` holds, after ``k`` residuals, the last residual, the
        lag-1 correlation ``rho`` clipped to [0, 0.9999] and the spread
        ``sigma``, each from running sums in observation order."""
        if self.map_snr is None:
            raise ValueError("predictive policy needs the map SNR of every step")
        last: List[float] = []
        rhos: List[float] = []
        sigmas: List[float] = []
        n = 0
        s1 = s2 = sx = prev = 0.0
        for true, mapped in zip(self.true_snr, self.map_snr):
            r = true - mapped
            if n >= 1:
                sx += r * prev
            n += 1
            s1 += r
            s2 += r * r
            prev = r
            last.append(r)
            rhos.append(min(max(sx / s2, 0.0), 0.9999) if s2 > 0 else 0.0)
            sigmas.append(math.sqrt(max(s2 / n - (s1 / n) ** 2, 0.0)))
        return last, rhos, sigmas

    def predict(self, delay: int) -> List[float]:
        """Map-aware estimates for every step from feedback ``delay`` steps
        old: step ``t`` has seen the residuals up to ``t - delay``. The
        estimate is the map SNR plus the last residual while fewer than
        ``_MAP_AWARE_MIN_SAMPLES`` residuals are seen, and afterwards the map
        SNR plus the residual decayed by ``rho ** delay``, backed off by the
        residual's conditional spread."""
        last, rhos, sigmas = self._residual_stats
        ahead = self.map_snr[delay:]
        head = _MAP_AWARE_MIN_SAMPLES - 1
        estimates = self.map_snr[:delay]
        estimates += [m + r for m, r in zip(ahead[:head], last)]
        for m, r, rho, sigma in zip(ahead[head:], last[head:], rhos[head:], sigmas[head:]):
            decay = rho**delay
            estimates.append(m + decay * r - sigma * math.sqrt(max(1.0 - decay * decay, 0.0)))
        return estimates


def _highest_true(ok: np.ndarray) -> np.ndarray:
    """Per row, the highest column index that is True, or 0 if none is."""
    last = ok.shape[1] - 1 - np.argmax(ok[:, ::-1], axis=1)
    return np.where(ok.any(axis=1), last, 0)


def _float_key(x: float) -> int:
    """An integer that orders like ``x`` among non-NaN floats: consecutive
    floats get consecutive integers, and both zeros get 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & _MAGNITUDE_BITS)


def _key_float(key: int) -> float:
    bits = key if key >= 0 else -key | _SIGN_BIT
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _cutoff(entry: McsEntry, target: float) -> float:
    """Bisection over every float for the least ``x`` with
    ``bler(entry, x) <= target``; NaN when there is none."""
    if bler(entry, -math.inf) <= target:
        return -math.inf
    if not bler(entry, math.inf) <= target:
        return math.nan
    lo, hi = _float_key(-math.inf), _float_key(math.inf)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bler(entry, _key_float(mid)) <= target:
            hi = mid
        else:
            lo = mid
    return _key_float(hi)


def run_policy(
    link: LinkTable,
    spec: PolicySpec,
    payload_bytes_per_step: int,
    *,
    seed: int = 0,
    max_retx: int = 4,
) -> PolicyTimeSeries:
    """Replay ``link`` under ``spec``; realized outcomes always come from the
    true SNR regardless of what the policy believed.

    Per step this equals ``select_mcs`` on the policy's estimate followed by
    ``simulate_transmission`` at the true SNR, with every HARQ attempt
    drawing, in step order, from one ``default_rng(seed)``: the same
    ``seed`` across policies gives each the same stream of draws.
    """
    n = len(link)
    if spec.kind in ("delayed", "predictive") and spec.delay >= n:
        raise ValueError(f"trace length {n} must exceed policy delay {spec.delay}")
    if payload_bytes_per_step < 0 or max_retx < 0:
        raise ValueError("payload_bytes and max_retx must be nonnegative")
    if spec.kind in ("oracle", "ideal"):
        mcs = link.best
    elif spec.kind == "delayed":
        mcs = link.best[np.maximum(np.arange(n) - spec.delay, 0)]
    else:
        mcs = link.select(link.predict(spec.delay))
    blr = link.bler[np.arange(n), mcs]
    attempts, succ = _harq(np.random.default_rng(seed), blr.tolist(), max_retx)
    table = link.table
    per_attempt = np.array(
        [serialization_time_s(payload_bytes_per_step, e, table) + table.slot_s for e in table.entries]
    )
    lat = attempts * per_attempt[mcs]
    tput = np.zeros(n)
    np.divide(payload_bytes_per_step * 8.0, lat, out=tput, where=succ & (lat > 0))
    return PolicyTimeSeries(spec, mcs.astype(int), tput, lat, blr, succ)


def _harq(rng: np.random.Generator, p_fail: List[float], max_retx: int) -> Tuple[np.ndarray, np.ndarray]:
    """Attempts and success per step: attempt ``i`` of step ``t`` fails when
    its draw is below ``p_fail[t]``, and a step stops at its first success or
    after ``max_retx + 1`` attempts. Draws are taken in blocks; they equal
    the scalar ``rng.random()`` draws of ``simulate_transmission``."""
    attempts = [0] * len(p_fail)
    success = [False] * len(p_fail)
    draws: List[float] = []
    pos = 0
    for t, p in enumerate(p_fail):
        a = 0
        while a <= max_retx:
            if pos == len(draws):
                draws = rng.random(_DRAW_BLOCK).tolist()
                pos = 0
            a += 1
            pos += 1
            if draws[pos - 1] >= p:
                success[t] = True
                break
        attempts[t] = a
    return np.array(attempts), np.array(success, dtype=bool)


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
