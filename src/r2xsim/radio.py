"""Radio link modeling: path-gain maps, MCS tables, power control, HARQ.

All link algebra is in dB: ``snr_db = tx_power_dbm + gain_db - noise_dbm``
and ``rssi_dbm = tx_power_dbm + gain_db``. Block error rates follow a
logistic waterfall per modulation-and-coding scheme (MCS); a slope of
``inf`` degenerates to a step curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from .world import Cell

FAIRNESS_MODES = ("max_min", "proportional")

DEFAULT_NOISE_DBM = -100.0
DEFAULT_BANDWIDTH_HZ = 10e6
DEFAULT_SLOT_S = 1e-3

_WEIGHT_SUM_TOL = 1e-6

# Shadowing samples drawn and turned into Python floats at a time.
_AR1_BLOCK = 1024


@dataclass(frozen=True)
class McsEntry:
    index: int
    rate_bps_per_hz: float
    snr_threshold_db: float
    slope_per_db: float = 1.5

    def __post_init__(self):
        if self.rate_bps_per_hz <= 0:
            raise ValueError("rate must be positive")
        if self.slope_per_db <= 0:
            raise ValueError("slope must be positive (use math.inf for a step curve)")


@dataclass(frozen=True)
class McsTable:
    entries: Tuple[McsEntry, ...]
    bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ
    slot_s: float = DEFAULT_SLOT_S

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("MCS table needs at least one entry")
        if self.bandwidth_hz <= 0 or self.slot_s <= 0:
            raise ValueError("bandwidth_hz and slot_s must be positive")
        for i, e in enumerate(self.entries):
            if e.index != i:
                raise ValueError("entry indices must be 0..n-1 in order")
        rates = [e.rate_bps_per_hz for e in self.entries]
        thresholds = [e.snr_threshold_db for e in self.entries]
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValueError("rates must be strictly increasing with index")
        if any(b < a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("SNR thresholds must be nondecreasing with index")


def default_mcs_table(bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ, slot_s: float = DEFAULT_SLOT_S) -> McsTable:
    """Eight-entry table spanning 0.5 to 6.0 bps/Hz with activation
    thresholds from -2 to 22 dB and a common 1.5/dB waterfall slope."""
    rates = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0)
    thresholds = (-2.0, 1.0, 4.0, 7.0, 10.0, 14.0, 18.0, 22.0)
    entries = tuple(
        McsEntry(i, r, t, 1.5) for i, (r, t) in enumerate(zip(rates, thresholds))
    )
    return McsTable(entries, bandwidth_hz, slot_s)


@dataclass(frozen=True)
class LinkState:
    """Snapshot of one link; the derived fields must satisfy the dB identities."""

    gain_db: float
    tx_power_dbm: float
    noise_dbm: float
    snr_db: float
    rssi_dbm: float

    def __post_init__(self):
        if abs(self.snr_db - (self.tx_power_dbm + self.gain_db - self.noise_dbm)) > 1e-9:
            raise ValueError("snr_db must equal tx_power_dbm + gain_db - noise_dbm")
        if abs(self.rssi_dbm - (self.tx_power_dbm + self.gain_db)) > 1e-9:
            raise ValueError("rssi_dbm must equal tx_power_dbm + gain_db")

    @staticmethod
    def from_gain(gain_db: float, tx_power_dbm: float, noise_dbm: float = DEFAULT_NOISE_DBM) -> "LinkState":
        return LinkState(
            gain_db=gain_db,
            tx_power_dbm=tx_power_dbm,
            noise_dbm=noise_dbm,
            snr_db=tx_power_dbm + gain_db - noise_dbm,
            rssi_dbm=tx_power_dbm + gain_db,
        )


@dataclass(frozen=True)
class RadioConfig:
    fairness: str = "max_min"
    priority_weights: Tuple[float, ...] = (0.5, 0.5)
    target_snr_db: float = 15.0
    max_power_dbm: float = 23.0
    max_retx: int = 4
    noise_dbm: float = DEFAULT_NOISE_DBM

    def __post_init__(self):
        if self.fairness not in FAIRNESS_MODES:
            raise ValueError(f"fairness {self.fairness!r} not in {FAIRNESS_MODES}")
        weights = tuple(float(w) for w in self.priority_weights)
        object.__setattr__(self, "priority_weights", weights)
        if not all(math.isfinite(w) and w > 0 for w in weights):
            raise ValueError("priority weights must be finite and positive")
        if abs(sum(weights) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"priority weights sum {sum(weights)} != 1 (tolerance {_WEIGHT_SUM_TOL})")
        if self.max_retx < 0:
            raise ValueError("max_retx must be nonnegative")


@dataclass(frozen=True)
class PathGainMap:
    """Per-cell average path gain in dB plus lognormal shadowing parameters.

    ``gains`` is indexed ``[y][x]``; NaN marks cells with no radio coverage.
    """

    gains: np.ndarray
    shadowing_rho: float = 0.0
    shadowing_sigma_db: float = 0.0

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=float)
        if g.ndim != 2:
            raise ValueError("gains must be a 2D array")
        object.__setattr__(self, "gains", g)
        if not 0.0 <= self.shadowing_rho < 1.0:
            raise ValueError("shadowing_rho must be in [0, 1)")
        if not self.shadowing_sigma_db >= 0:
            raise ValueError("shadowing_sigma_db must be nonnegative")

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
) -> Tuple[float, bool]:
    """Transmit power that hits the target SNR, clamped to the power budget.

    Returns ``(power_dbm, achievable)``; when clamped the target is not
    achievable and the realized SNR falls short by the clamp amount.
    """
    ideal = target_snr_db + noise_dbm - gain_db
    if ideal > max_power_dbm:
        return max_power_dbm, False
    return ideal, True


def bler(entry: McsEntry, snr_db: float) -> float:
    """Logistic block-error probability, 0.5 exactly at the threshold."""
    if math.isinf(entry.slope_per_db):
        if snr_db > entry.snr_threshold_db:
            return 0.0
        if snr_db < entry.snr_threshold_db:
            return 1.0
        return 0.5
    x = entry.slope_per_db * (snr_db - entry.snr_threshold_db)
    x = min(700.0, max(-700.0, x))
    return 1.0 / (1.0 + math.exp(x))


class McsSelection(NamedTuple):
    index: int
    feasible: bool


def select_mcs(table: McsTable, snr_db: float, bler_target: float = 0.1) -> McsSelection:
    """Highest-rate entry whose BLER at ``snr_db`` meets the target.

    If no entry qualifies the most robust (lowest-index) entry is returned
    with ``feasible=False``.
    """
    if not 0.0 < bler_target < 1.0:
        raise ValueError("bler_target must be in (0, 1)")
    for entry in reversed(table.entries):
        if bler(entry, snr_db) <= bler_target:
            return McsSelection(entry.index, True)
    return McsSelection(0, False)


def serialization_time_s(payload_bytes: int, entry: McsEntry, table: McsTable) -> float:
    return payload_bytes * 8.0 / (entry.rate_bps_per_hz * table.bandwidth_hz)


class TransmissionResult(NamedTuple):
    latency_s: float
    success: bool
    attempts: int


def simulate_transmission(
    payload_bytes: int,
    entry: McsEntry,
    snr_db_at_attempts: Sequence[float],
    table: McsTable,
    rng: np.random.Generator,
    max_retx: int = 4,
) -> TransmissionResult:
    """HARQ transmission as independent Bernoulli attempts.

    Attempt ``i`` fails with probability ``bler(entry, snr[i])``; the SNR
    sequence is extended by repeating its last element. At most ``max_retx``
    retransmissions follow the first attempt. Latency counts every attempt:
    ``attempts * (serialization + slot)``.
    """
    if not snr_db_at_attempts:
        raise ValueError("need at least one SNR sample")
    if payload_bytes < 0 or max_retx < 0:
        raise ValueError("payload_bytes and max_retx must be nonnegative")
    per_attempt = serialization_time_s(payload_bytes, entry, table) + table.slot_s
    last = len(snr_db_at_attempts) - 1
    for attempts in range(1, max_retx + 2):
        if rng.random() >= bler(entry, snr_db_at_attempts[min(attempts - 1, last)]):
            return TransmissionResult(attempts * per_attempt, True, attempts)
    return TransmissionResult(attempts * per_attempt, False, attempts)


def allocate(unit_rates: Sequence[float], cfg: RadioConfig) -> List[float]:
    """Bandwidth fractions for robots with per-Hz rates ``unit_rates``.

    ``proportional`` returns the priority weights unchanged; ``max_min``
    equalizes weight-scaled rates, giving each robot a share proportional to
    ``weight / rate``. Fractions sum to 1.
    """
    rates = [float(r) for r in unit_rates]
    weights = cfg.priority_weights
    if len(rates) != len(weights):
        raise ValueError(f"{len(rates)} rates vs {len(weights)} priority weights")
    if any(r <= 0 for r in rates):
        raise ValueError("unit rates must be positive for allocation")
    if cfg.fairness == "proportional":
        return list(weights)
    inv = [w / r for w, r in zip(weights, rates)]
    total = sum(inv)
    return [v / total for v in inv]


def ar1_blocks(rng: np.random.Generator, n: int, rho: float, sigma: float) -> Iterator[List[float]]:
    """``ar1_series(rng, n, rho, sigma)`` as consecutive lists of at most
    ``_AR1_BLOCK`` values, each drawn from ``rng`` only when it is asked
    for, so that a caller pays for the steps it reads. ``standard_normal``
    drawn block by block gives the same values as one draw of all ``n``.
    Blocks of zeros, drawing nothing, when ``sigma <= 0``.
    """
    if sigma <= 0:
        for lo in range(0, n, _AR1_BLOCK):
            yield [0.0] * min(_AR1_BLOCK, n - lo)
        return
    # Each innovation is what a scalar rng.normal(0, s) call gives: 0 + s * z.
    # The recursion runs on Python floats.
    scale = sigma * math.sqrt(1.0 - rho * rho)
    prev = 0.0
    for lo in range(0, n, _AR1_BLOCK):
        draws = rng.standard_normal(min(_AR1_BLOCK, n - lo))
        first = sigma * draws[0]
        draws *= scale
        if lo == 0:
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
    for lo, block in zip(range(0, n, _AR1_BLOCK), ar1_blocks(rng, n, rho, sigma)):
        out[lo:lo + len(block)] = block
    return out


def sample_trace(
    gain_map: PathGainMap,
    cells: Sequence[Cell],
    cfg: RadioConfig,
    seed: int,
) -> List[LinkState]:
    """Link states along a cell route: map gain plus ``ar1_series`` shadowing.

    Transmit power is fixed at the power budget; power control is a
    per-step decision of the callers that need it.
    """
    shadow = ar1_series(
        np.random.default_rng(seed), len(cells), gain_map.shadowing_rho, gain_map.shadowing_sigma_db
    ).tolist()
    return [
        LinkState.from_gain(gain_map.gain_at(cell) + s, cfg.max_power_dbm, cfg.noise_dbm)
        for cell, s in zip(cells, shadow)
    ]
