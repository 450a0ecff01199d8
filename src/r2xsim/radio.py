"""Radio link modeling: path-gain maps, MCS tables, power control, HARQ.

All link algebra is in dB: ``snr_db = tx_power_dbm + gain_db - noise_dbm``
and ``rssi_dbm = tx_power_dbm + gain_db``. Block error rates follow a
logistic waterfall per modulation-and-coding scheme (MCS); a slope of
``inf`` degenerates to a step curve.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import indexOf, le
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .schema import (
    _BLER_TARGET, _MAX_DB, _MAX_DELAY_S, _MAX_RETRIES, _echo, _is_number, bounded, check_bounds, check_value,
)
from .world import Cell

DEFAULT_NOISE_DBM = -100.0
DEFAULT_BANDWIDTH_HZ = 10e6
DEFAULT_SLOT_S = 1e-3

_WEIGHT_SUM_TOL = 1e-6

# Random draws turned into Python floats at a time: the first block, doubled
# on each refill up to the largest, for HARQ and for shadowing. A run reads
# a few dozen shadowing frames, so the first blocks are small.
_FIRST_DRAW_BLOCK = 64
_DRAW_BLOCK = 4096  # HARQ
_AR1_BLOCK = 1024  # shadowing

_SIGN_BIT = 1 << 63
_MAGNITUDE_BITS = _SIGN_BIT - 1


@dataclass(frozen=True)
class McsEntry:
    index: int
    rate_bps_per_hz: float = bounded(gt=0.0)
    snr_threshold_db: float
    slope_per_db: float = bounded(1.5, gt=0.0)  # math.inf for a step curve

    __post_init__ = check_bounds


@dataclass(frozen=True)
class McsTable:
    """Entries in index order. Each BLER target's SNR cut-offs are computed on
    first use and kept on the instance, outside equality and hashing."""

    entries: Tuple[McsEntry, ...]
    bandwidth_hz: float = bounded(DEFAULT_BANDWIDTH_HZ, lo=1.0)
    slot_s: float = bounded(DEFAULT_SLOT_S, gt=0.0, hi=_MAX_DELAY_S)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("MCS table needs at least one entry")
        check_bounds(self)
        for i, e in enumerate(self.entries):
            if e.index != i:
                raise ValueError("entry indices must be 0..n-1 in order")
        rates = [e.rate_bps_per_hz for e in self.entries]
        thresholds = [e.snr_threshold_db for e in self.entries]
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValueError("rates must be strictly increasing with index")
        if any(b < a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("SNR thresholds must be nondecreasing with index")

    @cached_property
    def _cutoffs(self) -> Dict[float, Tuple[float, ...]]:
        return {}

    def cutoffs(self, bler_target: float) -> Tuple[float, ...]:
        """Per entry ``e``, the least float ``x`` with ``bler(e, x) <=
        bler_target`` (NaN when no float qualifies), computed once per
        target. ``bler`` is nonincreasing in the SNR, so ``bler(e, x) <=
        bler_target`` exactly when ``x >= cutoffs[e]``."""
        cut = self._cutoffs.get(bler_target)
        if cut is None:
            check_value("bler_target", bler_target, _BLER_TARGET)
            cut = self._cutoffs[bler_target] = tuple(_cutoff(e, bler_target) for e in self.entries)
        return cut


def default_mcs_table(bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ, slot_s: float = DEFAULT_SLOT_S) -> McsTable:
    """Eight-entry table spanning 0.5 to 6.0 bps/Hz with activation
    thresholds from -2 to 22 dB and a common 1.5/dB waterfall slope."""
    rates = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0)
    thresholds = (-2.0, 1.0, 4.0, 7.0, 10.0, 14.0, 18.0, 22.0)
    entries = tuple(
        McsEntry(i, r, t, 1.5) for i, (r, t) in enumerate(zip(rates, thresholds))
    )
    return McsTable(entries, bandwidth_hz, slot_s)


def weight_errors(weights, robots: Optional[int] = None) -> List[str]:
    """How ``weights`` break the priority-weight rule: a nonempty list of
    finite positive numbers summing to 1 within ``_WEIGHT_SUM_TOL``, one per
    robot when ``robots`` is given. Empty when they keep it."""
    if not isinstance(weights, (list, tuple)) or not weights or not all(_is_number(w) for w in weights):
        return ["must be a nonempty list of finite numbers"]
    errors = []
    if any(w <= 0 for w in weights):  # a zero-weight robot could never uplink
        errors.append("weights must be positive")
    total = sum(float(w) for w in weights)  # inf, not OverflowError, past the float range
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        errors.append(f"sum {total:g} != 1 (tolerance {_WEIGHT_SUM_TOL})")
    if robots is not None and len(weights) != robots:
        errors.append(f"{len(weights)} weights for {robots} robots")
    return errors


@dataclass(frozen=True)
class RadioConfig:
    fairness: str = bounded("max_min", choices=("max_min", "proportional"))
    priority_weights: Tuple[float, ...] = (0.5, 0.5)
    target_snr_db: float = bounded(15.0, lo=-_MAX_DB, hi=_MAX_DB)
    max_power_dbm: float = bounded(23.0, lo=-_MAX_DB, hi=_MAX_DB)
    max_retx: int = bounded(4, lo=0, hi=_MAX_RETRIES, integer=True)
    noise_dbm: float = bounded(DEFAULT_NOISE_DBM, lo=-_MAX_DB, hi=_MAX_DB)

    def __post_init__(self):
        check_bounds(self)
        errors = weight_errors(self.priority_weights)
        if errors:
            raise ValueError(f"priority_weights {_echo(self.priority_weights)}: {errors[0]}")
        object.__setattr__(self, "priority_weights", tuple(float(w) for w in self.priority_weights))


@dataclass(frozen=True)
class PathGainMap:
    """Per-cell average path gain in dB plus lognormal shadowing parameters.

    ``gains`` is indexed ``[y][x]``; NaN marks cells with no radio coverage.
    """

    gains: np.ndarray
    shadowing_rho: float = bounded(0.0, lo=0, lt=1)
    shadowing_sigma_db: float = bounded(0.0, lo=0.0, hi=_MAX_DB)

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=float)
        if g.ndim != 2:
            raise ValueError("gains must be a 2D array")
        object.__setattr__(self, "gains", g)
        check_bounds(self)

    @property
    def height(self) -> int:
        return self.gains.shape[0]

    @property
    def width(self) -> int:
        return self.gains.shape[1]

    def gain_at(self, cell: Cell) -> float:
        x, y = cell
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"cell {cell} outside {self.width}x{self.height} gain map")
        g = float(self.gains[y, x])
        if math.isnan(g):
            raise ValueError(f"cell {cell} has no radio coverage (NaN gain)")
        return g


def required_power(
    gain_db: float,
    target_snr_db: float,
    noise_dbm: float = DEFAULT_NOISE_DBM,
    max_power_dbm: float = 23.0,
) -> float:
    """Transmit power that hits the target SNR, clamped to the power budget;
    when clamped, the realized SNR falls short by the clamp amount."""
    ideal = target_snr_db + noise_dbm - gain_db
    if ideal > max_power_dbm:
        return max_power_dbm
    return ideal


def bler_curve(entry: McsEntry, snrs_db: Sequence[float]) -> List[float]:
    """Logistic block-error probability at each SNR, 0.5 exactly at the
    threshold: ``1 / (1 + exp(x))`` for ``x = slope * (snr - threshold)``
    clamped to [-700, 700], so that ``exp`` never overflows. A NaN ``x``
    clamps to -700, so a NaN SNR has BLER 1. A step curve (slope ``inf``)
    is 0 above the threshold, 1 below it and 0.5 at it and at NaN."""
    thr, slope = entry.snr_threshold_db, entry.slope_per_db
    if math.isinf(slope):
        return [0.0 if s > thr else 1.0 if s < thr else 0.5 for s in snrs_db]
    exp = math.exp
    out = []
    for s in snrs_db:
        x = slope * (s - thr)
        if not -700.0 < x < 700.0:
            x = 700.0 if x >= 700.0 else -700.0  # NaN fails both tests
        out.append(1.0 / (1.0 + exp(x)))
    return out


def bler(entry: McsEntry, snr_db: float) -> float:
    """``bler_curve`` at one SNR."""
    return bler_curve(entry, (snr_db,))[0]


def _float_key(x: float) -> int:
    """An integer that orders like ``x`` among non-NaN floats: consecutive
    floats get consecutive integers, and both zeros get 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & _MAGNITUDE_BITS)


def _key_float(key: int) -> float:
    bits = key if key >= 0 else -key | _SIGN_BIT
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _cutoff(entry: McsEntry, target: float) -> float:
    """The least float ``x`` with ``bler(entry, x) <= target``; NaN when
    there is none.

    A bisection over float keys, inside a bracket that grows by doubling
    from the float where the logistic curve meets the target (the threshold
    for a step curve). Since ``bler`` is nonincreasing, every bracket with
    ``bler(lo) > target >= bler(hi)`` holds the one key where the test
    turns, so the result is that of a bisection over every float."""
    if bler(entry, -math.inf) <= target:
        return -math.inf
    if not bler(entry, math.inf) <= target:
        return math.nan
    lo, hi = _float_key(-math.inf), _float_key(math.inf)
    thr, slope = entry.snr_threshold_db, entry.slope_per_db
    guess = thr if math.isinf(slope) else thr + math.log(1.0 / target - 1.0) / slope
    mid, step = (0 if math.isnan(guess) else _float_key(guess)), 1
    if bler(entry, _key_float(mid)) <= target:
        hi = mid
        while hi - step > lo and bler(entry, _key_float(hi - step)) <= target:
            hi -= step
            step *= 2
        lo = max(lo, hi - step)
    else:
        lo = mid
        while lo + step < hi and not bler(entry, _key_float(lo + step)) <= target:
            lo += step
            step *= 2
        hi = min(hi, lo + step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bler(entry, _key_float(mid)) <= target:
            hi = mid
        else:
            lo = mid
    return _key_float(hi)


def select_mcs(table: McsTable, snr_db: float, bler_target: float = 0.1) -> int:
    """Index of the highest-rate entry whose BLER at ``snr_db`` meets the
    target: the highest entry with ``snr_db >= table.cutoffs(bler_target)[e]``.

    If no entry qualifies (``snr_db < table.cutoffs(bler_target)[0]``) the
    most robust entry, index 0, is returned. A NaN SNR is refused.
    """
    if math.isnan(snr_db):
        raise ValueError("snr_db must not be NaN")
    cutoffs = table.cutoffs(bler_target)
    for index in range(len(cutoffs) - 1, -1, -1):
        if snr_db >= cutoffs[index]:
            return index
    return 0


def serialization_time_s(payload_bytes: int, entry: McsEntry, bandwidth_hz: float) -> float:
    return payload_bytes * 8.0 / (entry.rate_bps_per_hz * bandwidth_hz)


def _draw_sizes() -> Iterator[int]:
    """The sizes of ``draw_blocks``' blocks."""
    size = _FIRST_DRAW_BLOCK
    while True:
        yield size
        size = min(2 * size, _DRAW_BLOCK)


def draw_blocks(rng: np.random.Generator) -> Iterator[List[float]]:
    """``rng``'s ``random`` draws as lists of ``_FIRST_DRAW_BLOCK`` floats,
    doubling on each list up to ``_DRAW_BLOCK``, each drawn only when it is
    asked for. Joined, they equal the scalar ``rng.random()`` draws."""
    for size in _draw_sizes():
        yield rng.random(size).tolist()


class HarqStream:
    """HARQ attempts that read one stream of uniform draws, given as an
    endless iterable of blocks (``draw_blocks`` of a generator, say). A draw
    is taken only when an attempt needs it, so a block is asked for only
    when the blocks before it are read to the end."""

    def __init__(self, blocks: Iterable[List[float]]):
        self._draws = chain.from_iterable(blocks)

    def run(self, p_fail: Sequence[float], max_retx: int) -> Tuple[List[int], List[bool]]:
        """Attempts and success per step: attempt ``i`` of step ``t`` fails
        when its draw is below ``p_fail[t]``, and a step stops at its first
        success or after ``max_retx + 1`` attempts.

        The first attempts are compared in C: ``map(le, p_fail, draws)``
        is ``p <= u`` per step, which is ``u >= p`` (NaN included), and
        ``indexOf`` finds the next step whose first attempt fails. ``p_fail``
        comes first, so no draw is taken past its end. Python runs only the
        retries of those steps, which read the draws that follow the step's
        first, before the next step's."""
        n = len(p_fail)
        attempts, success = [1] * n, [True] * n
        draws, limit = self._draws, max_retx + 1
        firsts = map(le, p_fail, draws)
        t = -1
        while True:
            try:
                t += 1 + indexOf(firsts, False)
            except ValueError:  # no first attempt fails past t
                return attempts, success
            p, a = p_fail[t], 1
            while a < limit:
                a += 1
                if next(draws) >= p:
                    break
            else:
                success[t] = False
            attempts[t] = a


class TransmissionResult(NamedTuple):
    latency_s: float
    success: bool
    attempts: int


def simulate_transmission(
    payload_bytes: int, entry: McsEntry, snr_db: float, bandwidth_hz: float, slot_s: float,
    harq: HarqStream, max_retx: int = 4,
) -> TransmissionResult:
    """One HARQ transmission at ``snr_db`` over ``bandwidth_hz``: every
    attempt fails with probability ``bler(entry, snr_db)``, and at most
    ``max_retx`` retransmissions follow the first attempt. Latency counts
    every attempt: ``attempts * (serialization + slot_s)``.
    """
    if payload_bytes < 0 or max_retx < 0:
        raise ValueError("payload_bytes and max_retx must be nonnegative")
    (attempts,), (success,) = harq.run((bler(entry, snr_db),), max_retx)
    per_attempt = serialization_time_s(payload_bytes, entry, bandwidth_hz) + slot_s
    return TransmissionResult(attempts * per_attempt, success, attempts)


def allocate(unit_rates: Sequence[float], weights: Sequence[float], fairness: str) -> List[float]:
    """Bandwidth fractions for robots with per-Hz rates ``unit_rates`` and
    priority ``weights`` that sum to 1.

    ``proportional`` returns the weights unchanged; ``max_min`` equalizes
    weight-scaled rates, giving each robot a share proportional to
    ``weight / rate``. Fractions sum to 1.
    """
    rates = [float(r) for r in unit_rates]
    if len(rates) != len(weights):
        raise ValueError(f"{len(rates)} rates vs {len(weights)} priority weights")
    if any(r <= 0 for r in rates):
        raise ValueError("unit rates must be positive for allocation")
    if fairness == "proportional":
        return list(weights)
    inv = [w / r for w, r in zip(weights, rates)]
    total = sum(inv)
    return [v / total for v in inv]


def _ar1_sizes(n: int) -> Iterator[int]:
    """The sizes of ``ar1_blocks``' blocks of ``n`` steps: the first
    ``_FIRST_DRAW_BLOCK``, doubled on each block up to ``_AR1_BLOCK``."""
    size = _FIRST_DRAW_BLOCK
    while n > 0:
        yield min(size, n)
        n -= size
        size = min(2 * size, _AR1_BLOCK)


def ar1_blocks(rng: np.random.Generator, n: int, rho: float, sigma: float) -> Iterator[List[float]]:
    """``ar1_series(rng, n, rho, sigma)`` as consecutive lists of
    ``_FIRST_DRAW_BLOCK`` values, doubling on each list up to
    ``_AR1_BLOCK``, each drawn from ``rng`` only when it is asked for, so
    that a caller pays for about the steps it reads. ``standard_normal``
    drawn block by block gives the same values as one draw of all ``n``.
    Blocks of zeros, drawing nothing, when ``sigma <= 0``.
    """
    if sigma <= 0:
        for size in _ar1_sizes(n):
            yield [0.0] * size
        return
    # Each innovation is what a scalar rng.normal(0, s) call gives: 0 + s * z.
    # The recursion runs on Python floats.
    scale = sigma * math.sqrt(1.0 - rho * rho)
    prev = 0.0
    for index, size in enumerate(_ar1_sizes(n)):
        draws = rng.standard_normal(size)
        first = sigma * draws[0]
        draws *= scale
        if index == 0:
            draws[0] = first
        block = draws.tolist()
        for j, step in enumerate(block):
            prev = rho * prev + step
            block[j] = prev
        yield block


def ar1_series(rng: np.random.Generator, n: int, rho: float, sigma: float) -> np.ndarray:
    """``n`` steps of stationary AR(1) shadowing in dB (Gudmundson 1991).

    ``s(0) ~ Normal(0, sigma)`` and ``s(t) = rho * s(t-1) + eps`` with
    ``eps ~ Normal(0, sigma * sqrt(1 - rho^2))``, so the marginal std is
    ``sigma`` at every step. Returns zeros, drawing nothing from ``rng``,
    when ``sigma <= 0`` or ``n == 0``.
    """
    out = np.zeros(n)
    lo = 0
    for block in ar1_blocks(rng, n, rho, sigma):
        out[lo:lo + len(block)] = block
        lo += len(block)
    return out


def sample_trace(
    gain_map: PathGainMap,
    cells: Sequence[Cell],
    cfg: RadioConfig,
    seed: int,
) -> Tuple[List[float], List[float]]:
    """The true SNR and the map SNR of each step along a cell route, as
    floats: ``p + (g + s) - noise`` and ``p + g - noise`` for the cell's map
    gain ``g`` and the step's ``ar1_series`` shadowing ``s``.

    Transmit power ``p`` is fixed at the power budget; power control is a
    per-step decision of the callers that need it.
    """
    shadow = ar1_series(
        np.random.default_rng(seed), len(cells), gain_map.shadowing_rho, gain_map.shadowing_sigma_db
    ).tolist()
    gain = {cell: gain_map.gain_at(cell) for cell in dict.fromkeys(cells)}
    p, noise = cfg.max_power_dbm, cfg.noise_dbm
    true_snr = [p + (gain[cell] + s) - noise for cell, s in zip(cells, shadow)]
    return true_snr, [p + gain[cell] - noise for cell in cells]
