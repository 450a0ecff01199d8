"""Link adaptation policies under delayed feedback.

A policy walks a link trace step by step, forms an SNR estimate (possibly
stale or predicted), selects an MCS for the estimate, and realizes the
transmission against the true SNR. Throughput and latency then quantify how
much an estimate's staleness costs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, takewhile
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .radio import HarqStream, McsTable, _draw_sizes, bler_curve, draw_blocks, serialization_time_s
from .schema import bounded, check_bounds

_MAP_AWARE_MIN_SAMPLES = 8

# LinkTable's SNR magnitude cap: squared residuals then sum finitely over 4e7 steps.
_MAX_SNR = 1e150

# The HARQ draws of one seed that a LinkTable keeps for all its policies:
# the most whole ``draw_blocks`` blocks within 2^16 draws (21 blocks, 65,472
# draws, about 2 MiB of floats). A policy of the bundled mcs-ar1 file reads at
# most 13,353 draws on seeds 0-19.
_SHARED_DRAWS = 1 << 16
_SHARED_BLOCKS = sum(1 for _ in takewhile(lambda total: total <= _SHARED_DRAWS, accumulate(_draw_sizes())))


@dataclass(frozen=True)
class PolicySpec:
    """Which estimate drives MCS selection.

    oracle      -- true SNR
    ideal       -- true instantaneous SNR
    delayed     -- the true SNR ``delay`` steps ago
    predictive  -- the map-aware predictor extrapolating from feedback that
                   is ``delay`` steps old
    """

    kind: str = bounded(choices=("oracle", "ideal", "delayed", "predictive"))
    delay: int = bounded(0, lo=0, integer=True)

    __post_init__ = check_bounds


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

    - ``bler[t, e]``: ``radio.bler`` of entry ``e`` at ``true_snr[t]``; each
      entry's column is one ``radio.bler_curve`` call, the scalar ``math``
      formula looped over the trace, whose clamp keeps a NaN SNR at 1.0;
    - ``cutoff[e]``: ``table.cutoffs(bler_target)``, the SNR cut-offs
      ``select_mcs`` reads;
    - ``best[t]``: what ``select_mcs`` picks at ``true_snr[t]``.

    The HARQ draws of a seed are drawn once too, as far as a policy reads
    them, up to a cap (``harq_blocks``).
    """

    def __init__(
        self,
        true_snr: Sequence[float],
        table: McsTable,
        bler_target: float = 0.1,
        map_snr: Optional[Sequence[float]] = None,
    ):
        self.cutoff = np.array(table.cutoffs(bler_target))
        self.true_snr = [float(x) for x in true_snr]
        n = len(self.true_snr)
        if n == 0:
            raise ValueError("empty trace")
        if not all(abs(x) <= _MAX_SNR for x in self.true_snr):
            raise ValueError(f"true SNRs must be at most {_MAX_SNR:g} in magnitude")
        self.map_snr = self._map = None
        if map_snr is not None:
            self.map_snr = [float(x) for x in map_snr]
            if len(self.map_snr) != n:
                raise ValueError(f"{len(self.map_snr)} map SNRs for a {n}-step trace")
            if not all(abs(x) <= _MAX_SNR for x in self.map_snr):
                raise ValueError(f"map SNRs must be at most {_MAX_SNR:g} in magnitude")
            self._map = np.array(self.map_snr)
        self.table = table
        self.bler_target = bler_target
        self.bler = np.empty((n, len(table.entries)))
        for entry in table.entries:
            self.bler[:, entry.index] = bler_curve(entry, self.true_snr)
        self.best = self.select(self.true_snr)
        self._harq = None  # (seed, its generator, draw_blocks of that generator, the kept blocks)

    def __len__(self) -> int:
        return len(self.true_snr)

    def select(self, estimates: Sequence[float]) -> np.ndarray:
        """``select_mcs`` index for each SNR estimate, by the cut-offs: the
        highest entry whose cut-off the estimate meets, or 0 if none."""
        ok = np.asarray(estimates, dtype=float)[:, np.newaxis] >= self.cutoff
        return np.where(ok.any(axis=1), ok.shape[1] - 1 - np.argmax(ok[:, ::-1], axis=1), 0)

    def harq_blocks(self, seed: int) -> Iterator[List[float]]:
        """``draw_blocks(default_rng(seed))``, each block drawn once for every
        reader of this table and seed: the first ``_SHARED_BLOCKS`` blocks,
        at most ``_SHARED_DRAWS`` draws, are kept. A reader that goes past
        them goes on with ``draw_blocks`` over its own deep copy of the
        generator, taken where the kept blocks end, which continues the
        stream exactly. Only the last seed asked for is kept."""
        if self._harq is None or self._harq[0] != seed:
            rng = np.random.default_rng(seed)
            self._harq = (seed, rng, draw_blocks(rng), [])
        return _shared_blocks(*self._harq[1:])

    @cached_property
    def _residual_stats(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The map-aware predictor's state after each number of observed
        residuals ``true_snr - map_snr``, the same for every delay: index
        ``k - 1`` holds, after ``k`` residuals, the last residual, the
        lag-1 correlation ``rho`` clipped to [0, 0.9999] and the spread
        ``sigma``, each from running sums in observation order.

        The running sums are ``np.cumsum``, which adds in order, so every
        value has the scalar loop's bits. The clamps are ``np.where`` on
        ``<``/``>``, which keep ``-0.0`` as Python's ``max``/``min`` do
        (numpy's elementwise max of ``-0.0`` and ``0.0`` is ``0.0``), and
        ``(s1 / n) ** 2`` is Python's ``**``, which ``np.power`` and
        ``y * y`` do not match."""
        if self.map_snr is None:
            raise ValueError("predictive policy needs the map SNR of every step")
        r = np.array(self.true_snr) - self._map
        n = np.arange(1.0, len(r) + 1.0)
        s1 = np.cumsum(r)
        s2 = np.cumsum(r * r)
        sx = np.cumsum(np.concatenate(([0.0], r[1:] * r[:-1])))
        rho = np.divide(sx, s2, out=np.zeros(len(r)), where=s2 > 0)
        rho = np.where(rho < 0.0, 0.0, rho)
        rho = np.where(rho > 0.9999, 0.9999, rho)
        var = s2 / n - np.array([m**2 for m in (s1 / n).tolist()])
        sigma = np.sqrt(np.where(var < 0.0, 0.0, var))
        return r, rho, sigma

    def predict(self, delay: int) -> np.ndarray:
        """Map-aware estimates for every step from feedback ``delay`` steps
        old: step ``t`` has seen the residuals up to ``t - delay``. The
        estimate is the map SNR for the first ``delay`` steps, the map SNR
        plus the last residual while fewer than ``_MAP_AWARE_MIN_SAMPLES``
        residuals are seen, and afterwards the map SNR plus the residual
        decayed by ``rho ** delay`` (Python's ``**``), backed off by the
        residual's conditional spread."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        last, rhos, sigmas = self._residual_stats
        seen = max(len(self) - delay, 0)
        head = min(_MAP_AWARE_MIN_SAMPLES - 1, seen)
        start = delay + head
        estimates = self._map.copy()
        estimates[delay:start] += last[:head]
        decay = np.array([rho**delay for rho in rhos[head:seen].tolist()])
        spread = sigmas[head:seen] * np.sqrt(1.0 - decay * decay)
        # (m + decay * r) - spread, in the scalar formula's order: an in-place
        # += of (decay * r - spread) rounds differently.
        estimates[start:] = self._map[start:] + decay * last[head:seen] - spread
        return estimates


def _shared_blocks(
    rng: np.random.Generator, source: Iterator[List[float]], kept: List[List[float]]
) -> Iterator[List[float]]:
    """The first ``_SHARED_BLOCKS`` blocks of ``source``, which is
    ``draw_blocks(rng)``: those in ``kept``, then the ones this reader is
    the first to reach, drawn and added to ``kept``. Past them,
    ``draw_blocks`` over a copy of ``rng``, which ``source`` left where its
    last kept block ends."""
    for i in range(_SHARED_BLOCKS):
        if i == len(kept):
            kept.append(next(source))
        yield kept[i]
    yield from draw_blocks(copy.deepcopy(rng))


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
    ``simulate_transmission`` at the true SNR. Every HARQ attempt draws, in
    step order, from one ``HarqStream`` over ``default_rng(seed)``: the same
    ``seed`` across policies gives each the same stream of draws, and
    ``link.harq_blocks`` draws that stream once for all of them.
    """
    n = len(link)
    if spec.kind in ("delayed", "predictive") and spec.delay >= n:
        raise ValueError(f"trace length {n} must exceed policy delay {spec.delay}")
    if payload_bytes_per_step < 0 or max_retx < 0:
        raise ValueError("payload_bytes and max_retx must be nonnegative")
    if spec.kind in ("oracle", "ideal"):
        mcs = link.best
    elif spec.kind == "delayed":
        mcs = link.best[(np.arange(n) - spec.delay).clip(0)]
    else:
        mcs = link.select(link.predict(spec.delay))
    blr = link.bler[np.arange(n), mcs]
    attempts, success = HarqStream(link.harq_blocks(seed)).run(blr.tolist(), max_retx)
    table = link.table
    per_attempt = np.array(
        [serialization_time_s(payload_bytes_per_step, e, table.bandwidth_hz) + table.slot_s
         for e in table.entries]
    )
    lat = np.fromiter(attempts, float, n) * per_attempt[mcs]
    succ = np.fromiter(success, bool, n)
    tput = np.zeros(n)
    np.divide(payload_bytes_per_step * 8.0, lat, out=tput, where=succ & (lat > 0))
    return PolicyTimeSeries(spec, mcs.astype(int), tput, lat, blr, succ)


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
