"""Link algebra, MCS curves, HARQ statistics, allocation, AR(1) shadowing, traces."""

import copy
import itertools
import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ReferenceHarqStream,
    reference_bler,
    reference_cutoff,
    reference_harq,
    reference_sample_trace,
    reference_select_mcs,
    reference_transmission,
)
from r2xsim import radio
from r2xsim.radio import (
    _DRAW_BLOCK,
    _cutoff,
    HarqStream,
    McsEntry,
    McsTable,
    PathGainMap,
    RadioConfig,
    allocate,
    ar1_blocks,
    ar1_series,
    bler,
    bler_curve,
    default_mcs_table,
    draw_blocks,
    required_power,
    sample_trace,
    select_mcs,
    serialization_time_s,
    simulate_transmission,
)

TABLE = default_mcs_table()


class TestMcsTable:
    def test_default_table_contents(self):
        assert len(TABLE.entries) == 8
        assert [e.rate_bps_per_hz for e in TABLE.entries] == [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert [e.snr_threshold_db for e in TABLE.entries] == [-2.0, 1.0, 4.0, 7.0, 10.0, 14.0, 18.0, 22.0]
        assert all(e.slope_per_db == 1.5 for e in TABLE.entries)
        assert TABLE.bandwidth_hz == 10e6
        assert TABLE.slot_s == 1e-3

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            McsEntry(0, 0.0, -2.0)
        with pytest.raises(ValueError):
            McsEntry(0, 1.0, -2.0, slope_per_db=0.0)

    def test_table_validation(self):
        e0 = McsEntry(0, 1.0, 0.0)
        with pytest.raises(ValueError):
            McsTable(())
        with pytest.raises(ValueError):
            McsTable((e0, McsEntry(2, 2.0, 3.0)))  # index gap
        with pytest.raises(ValueError):
            McsTable((e0, McsEntry(1, 1.0, 3.0)))  # rate not increasing
        with pytest.raises(ValueError):
            McsTable((e0, McsEntry(1, 2.0, -1.0)))  # threshold decreasing
        with pytest.raises(ValueError):
            McsTable((e0,), bandwidth_hz=0.0)


class TestRadioConfig:
    def test_defaults(self):
        cfg = RadioConfig()
        assert cfg.fairness == "max_min"
        assert cfg.priority_weights == (0.5, 0.5)
        assert cfg.noise_dbm == -100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RadioConfig(fairness="round_robin")
        with pytest.raises(ValueError):
            RadioConfig(priority_weights=(0.5, 0.6))
        with pytest.raises(ValueError):
            RadioConfig(priority_weights=(-0.1, 1.1))
        with pytest.raises(ValueError):
            RadioConfig(priority_weights=(math.nan, math.nan))
        with pytest.raises(ValueError, match="positive"):
            RadioConfig(priority_weights=(1.0, 0.0))
        with pytest.raises(ValueError):
            RadioConfig(max_retx=-1)
        # within the declared sum tolerance
        RadioConfig(priority_weights=(0.5 + 4e-7, 0.5))


class TestPathGainMap:
    def test_indexing_is_row_y_col_x(self):
        m = PathGainMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert m.width == 2 and m.height == 2
        assert m.gain_at((1, 0)) == 2.0
        assert m.gain_at((0, 1)) == 3.0

    def test_out_of_bounds_and_nan(self):
        m = PathGainMap(np.array([[1.0, float("nan")]]))
        with pytest.raises(ValueError):
            m.gain_at((0, 1))
        with pytest.raises(ValueError):
            m.gain_at((1, 0))

    def test_validation(self):
        with pytest.raises(ValueError):
            PathGainMap(np.zeros(3))
        with pytest.raises(ValueError):
            PathGainMap(np.zeros((2, 2)), shadowing_rho=1.0)
        with pytest.raises(ValueError):
            PathGainMap(np.zeros((2, 2)), shadowing_sigma_db=-1.0)
        with pytest.raises(ValueError):
            PathGainMap(np.zeros((2, 2)), shadowing_sigma_db=math.nan)


class TestRequiredPower:
    def test_exact_when_achievable(self):
        assert required_power(-60.0, 15.0, noise_dbm=-100.0, max_power_dbm=23.0) == -25.0

    def test_clamped_when_budget_exceeded(self):
        assert required_power(-130.0, 15.0, noise_dbm=-100.0, max_power_dbm=23.0) == 23.0

    def test_boundary_is_achievable(self):
        assert required_power(-108.0, 15.0, noise_dbm=-100.0, max_power_dbm=23.0) == 23.0


class TestBler:
    def test_half_at_threshold(self):
        e = McsEntry(0, 1.0, 4.0, 1.5)
        assert bler(e, 4.0) == 0.5

    def test_logistic_symmetry_and_value(self):
        e = McsEntry(0, 1.0, 4.0, 1.5)
        assert bler(e, 5.0) == pytest.approx(1.0 / (1.0 + math.exp(1.5)), abs=1e-15)
        for dx in (0.5, 1.0, 3.0):
            assert bler(e, 4.0 + dx) + bler(e, 4.0 - dx) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decreasing(self):
        e = McsEntry(0, 1.0, 4.0, 1.5)
        snrs = np.linspace(-20, 30, 101)
        vals = [bler(e, s) for s in snrs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_step_curve(self):
        e = McsEntry(0, 1.0, 4.0, math.inf)
        assert bler(e, 3.999) == 1.0
        assert bler(e, 4.0) == 0.5
        assert bler(e, 4.001) == 0.0

    def test_no_overflow_far_from_threshold(self):
        e = McsEntry(0, 1.0, 4.0, 1.5)
        assert bler(e, 1e6) < 1e-300
        assert bler(e, -1e6) == pytest.approx(1.0, abs=1e-300)


# Entries with the waterfall slope of the bundled tables, a step curve, a
# slope whose products overflow and the least positive slope, each at the
# thresholds of the default table, both zeros and the ends of the float range.
CURVE_ENTRIES = [
    McsEntry(0, 1.0, threshold, slope)
    for slope in (1.5, math.inf, 1e300, 5e-324)
    for threshold in (*(e.snr_threshold_db for e in TABLE.entries), 0.0, -0.0, 1e308, -1e308)
]
SPECIAL_SNRS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324]


def bits(values):
    """Each float's IEEE bits, so that -0.0 differs from 0.0 and NaN equals NaN."""
    return [struct.pack("<d", v) for v in values]


def clamp_edges(entry):
    """The threshold and, on each side, the SNRs near where the logistic's
    argument ``slope * (snr - threshold)`` reaches +-700, three floats apart
    each way."""
    t, s = entry.snr_threshold_db, entry.slope_per_db
    points = [t]
    for edge in (t + 700.0 / s, t - 700.0 / s):
        x = edge
        for _ in range(3):
            x = math.nextafter(x, -math.inf)
        for _ in range(7):
            points.append(x)
            x = math.nextafter(x, math.inf)
    return points


def seeded_snrs(n=20_000):
    """Half uniform over the dB range a trace reads, half arbitrary bit
    patterns: every magnitude, subnormals, infinities and NaNs."""
    rng = np.random.default_rng(2026)
    wide = rng.integers(0, 2**64, size=n // 2, dtype=np.uint64).view(np.float64)
    return rng.uniform(-60.0, 80.0, n - n // 2).tolist() + wide.tolist()


class TestBlerCurve:
    """``bler_curve`` and ``bler`` equal the scalar ``min``/``max`` formula bit
    for bit."""

    @pytest.mark.parametrize("entry", CURVE_ENTRIES, ids=lambda e: f"{e.slope_per_db:g}@{e.snr_threshold_db:g}")
    def test_matches_reference_at_edges(self, entry):
        snrs = SPECIAL_SNRS + [e.snr_threshold_db for e in CURVE_ENTRIES] + clamp_edges(entry)
        want = bits(reference_bler(entry, x) for x in snrs)
        assert bits(bler_curve(entry, snrs)) == want
        assert bits(bler(entry, x) for x in snrs) == want

    @pytest.mark.parametrize("slope", [1.5, math.inf, 1e300, 5e-324])
    def test_matches_reference_on_seeded_snrs(self, slope):
        snrs = seeded_snrs()
        for threshold in (-2.0, 22.0):
            entry = McsEntry(0, 1.0, threshold, slope)
            want = bits(reference_bler(entry, x) for x in snrs)
            assert bits(bler_curve(entry, snrs)) == want
            assert bits(bler(entry, x) for x in snrs[::50]) == want[::50]

    def test_empty(self):
        assert bler_curve(TABLE.entries[0], []) == []


class TestSelectMcs:
    def test_typical_selection(self):
        assert select_mcs(TABLE, 15.0, 0.1) == 4
        assert select_mcs(TABLE, 40.0, 0.1) == 7
        assert type(select_mcs(TABLE, 15.0, 0.1)) is int

    def test_infeasible_falls_back_to_most_robust(self):
        # No entry meets the target: the SNR lies below the lowest cut-off.
        assert -10.0 < TABLE.cutoffs(0.1)[0]
        assert select_mcs(TABLE, -10.0, 0.1) == 0

    def test_threshold_is_not_enough_for_low_targets(self):
        # at the threshold the BLER is exactly 0.5
        e = McsEntry(0, 1.0, 4.0, math.inf)
        t = McsTable((e,))
        assert select_mcs(t, 4.0, 0.1) == 0 and 4.0 < t.cutoffs(0.1)[0]
        assert select_mcs(t, 4.0, 0.5) == 0 and 4.0 >= t.cutoffs(0.5)[0]

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            select_mcs(TABLE, 10.0, 0.0)
        with pytest.raises(ValueError):
            select_mcs(TABLE, 10.0, 1.0)

    def test_nan_snr_refused(self):
        # The scan would fall back to entry 0: no BLER compares <= target.
        assert reference_select_mcs(TABLE, math.nan) == 0
        with pytest.raises(ValueError, match="NaN"):
            select_mcs(TABLE, math.nan)

    def test_cutoffs_computed_once_per_target(self):
        table = default_mcs_table()
        first = table.cutoffs(0.1)
        assert table.cutoffs(0.1) is first
        assert table.cutoffs(0.5) != first
        assert table == default_mcs_table() and hash(table) == hash(default_mcs_table())


# Tables and targets the cut-off rule is checked on: the default waterfall, a
# step curve, a rung that always decodes, and slopes shallow and steep enough
# that the exp clamp shows.
SELECT_TABLES = [
    default_mcs_table(),
    McsTable((McsEntry(0, 1.0, -100.0, math.inf), McsEntry(1, 2.0, 4.0, math.inf), McsEntry(2, 3.0, 4.0, 1.5))),
    McsTable((McsEntry(0, 1.0, -3.7, 0.013), McsEntry(1, 2.0, 5.1, 250.0), McsEntry(2, 4.0, 9.0, math.inf))),
]


class TestSelectMatchesScan:
    """``select_mcs`` by cut-offs picks what the scan of every entry's BLER
    picks, at any float SNR."""

    @staticmethod
    def probes(table, target):
        xs = np.random.default_rng(17).uniform(-60.0, 60.0, size=3000).tolist()
        xs += [-math.inf, math.inf, 0.0, -0.0, 1e300, -1e300]
        for e in table.entries:
            xs.append(e.snr_threshold_db)
            for cut in (table.cutoffs(target)[e.index], e.snr_threshold_db):
                if math.isfinite(cut):
                    below = above = cut
                    for _ in range(3):
                        below = math.nextafter(below, -math.inf)
                        above = math.nextafter(above, math.inf)
                        xs += [below, cut, above]
        return xs

    @pytest.mark.parametrize("target", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("table", SELECT_TABLES, ids=["default", "steps", "slopes"])
    def test_matches_reference_scan(self, table, target):
        for x in self.probes(table, target):
            assert select_mcs(table, x, target) == reference_select_mcs(table, x, target), x


class TestCutoffMatchesFullBisection:
    """An entry's cut-off from the bracket around the curve's crossing is
    the one the bisection over every float finds."""

    @staticmethod
    def same(a, b):
        return struct.pack("<d", a) == struct.pack("<d", b) or (math.isnan(a) and math.isnan(b))

    def test_random_and_extreme_entries(self):
        rng = np.random.default_rng(34)
        slopes = [math.inf, 1e-300, 1e300, 5e-324, 1.5, 0.013, 250.0]
        thresholds = [1e300, -1e300, 0.0, -0.0, 4.0, -2.0, 22.0]
        targets = [5e-324, 0.5, 1.0 - 2.0 ** -53, 0.1, 0.9, 1e-300, 2.0 ** -1022]
        kinds = Counter()
        for k in range(5000):
            slope = slopes[k % len(slopes)] if k % 3 == 0 else float(10.0 ** rng.uniform(-6.0, 6.0))
            thr = thresholds[k % len(thresholds)] if k % 5 == 0 else float(rng.uniform(-60.0, 60.0))
            target = targets[k % len(targets)] if k % 2 == 0 else float(10.0 ** rng.uniform(-320.0, 0.0))
            target = min(target, 1.0 - 2.0 ** -53)
            entry = McsEntry(0, 1.0, thr, slope)
            got, want = _cutoff(entry, target), reference_cutoff(entry, target)
            assert self.same(got, want), (thr, slope, target, got, want)
            kinds["nan" if math.isnan(got) else "inf" if math.isinf(got) else "finite"] += 1
        assert kinds["finite"] >= 2500 and kinds["nan"] >= 100 and kinds["inf"] >= 10, kinds

    @pytest.mark.parametrize("target", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("table", SELECT_TABLES, ids=["default", "steps", "slopes"])
    def test_tables_cost_a_few_bler_calls_per_entry(self, monkeypatch, table, target):
        calls = Counter()
        real = radio.bler

        def counted(entry, snr_db):
            calls[entry.index] += 1
            return real(entry, snr_db)

        monkeypatch.setattr(radio, "bler", counted)
        got = [_cutoff(e, target) for e in table.entries]
        monkeypatch.undo()
        assert all(self.same(a, reference_cutoff(e, target)) for a, e in zip(got, table.entries))
        assert max(calls.values()) <= 16, calls  # the full bisection takes about 66


class TestSerialization:
    def test_exact_value(self):
        entry = TABLE.entries[4]  # 3.0 bps/Hz
        assert serialization_time_s(1500, entry, TABLE.bandwidth_hz) == 1500 * 8 / (3.0 * 10e6)


def transmit(payload, entry, snr, table, rng, max_retx=4):
    harq = HarqStream(draw_blocks(rng))
    return simulate_transmission(payload, entry, snr, table.bandwidth_hz, table.slot_s, harq, max_retx)


class TestSimulateTransmission:
    def test_clean_link_single_attempt(self):
        rng = np.random.default_rng(0)
        res = transmit(1500, TABLE.entries[4], 100.0, TABLE, rng)
        per = serialization_time_s(1500, TABLE.entries[4], TABLE.bandwidth_hz) + TABLE.slot_s
        assert res == (pytest.approx(per), True, 1)

    def test_dead_link_exhausts_budget(self):
        e = McsEntry(0, 1.0, 4.0, math.inf)
        t = McsTable((e,))
        rng = np.random.default_rng(0)
        res = transmit(100, e, -10.0, t, rng, max_retx=2)
        assert not res.success and res.attempts == 3
        per = serialization_time_s(100, e, t.bandwidth_hz) + t.slot_s
        assert res.latency_s == pytest.approx(3 * per)

    def test_max_retx_zero_means_one_attempt(self):
        e = McsEntry(0, 1.0, 4.0, math.inf)
        t = McsTable((e,))
        rng = np.random.default_rng(0)
        res = transmit(100, e, -10.0, t, rng, max_retx=0)
        assert res.attempts == 1 and not res.success

    def test_bandwidth_share_scales_serialization(self):
        e = TABLE.entries[4]
        res = simulate_transmission(1500, e, 100.0, 2.5e6, 1e-3, HarqStream(draw_blocks(np.random.default_rng(0))))
        assert res.latency_s == 1500 * 8.0 / (3.0 * 2.5e6) + 1e-3

    def test_input_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            transmit(-1, TABLE.entries[0], 0.0, TABLE, rng)
        with pytest.raises(ValueError):
            transmit(100, TABLE.entries[0], 0.0, TABLE, rng, max_retx=-1)

    def test_attempt_statistics_at_half_bler(self):
        # SNR pinned at the threshold: every attempt fails with p = 1/2
        entry = TABLE.entries[2]
        snr = entry.snr_threshold_db
        harq = HarqStream(draw_blocks(np.random.default_rng(42)))
        n = 4000
        results = [
            simulate_transmission(1200, entry, snr, TABLE.bandwidth_hz, TABLE.slot_s, harq, max_retx=2)
            for _ in range(n)
        ]
        per = serialization_time_s(1200, entry, TABLE.bandwidth_hz) + TABLE.slot_s
        for r in results:
            assert r.latency_s == pytest.approx(r.attempts * per)
        success_rate = np.mean([r.success for r in results])
        mean_attempts = np.mean([r.attempts for r in results])
        # success = 1 - 0.5^3, attempts mean = 1.75; both within 4 sigma
        assert abs(success_rate - 0.875) < 0.021
        assert abs(mean_attempts - 1.75) < 0.053

    @pytest.mark.parametrize("max_retx", [0, 2, 64])
    def test_matches_scalar_draws(self, max_retx):
        """One robot's transmissions, one stream across calls, give the
        scalar loop's results bit for bit."""
        snrs = np.random.default_rng(9).uniform(-5.0, 25.0, size=3000).tolist()
        harq, rng = HarqStream(draw_blocks(np.random.default_rng([3, 1, 101]))), np.random.default_rng([3, 1, 101])
        for i, snr in enumerate(snrs):
            entry = TABLE.entries[i % 8]
            bw = TABLE.bandwidth_hz * (0.25 + (i % 3) * 0.25)
            got = simulate_transmission(1500, entry, snr, bw, TABLE.slot_s, harq, max_retx)
            assert got == reference_transmission(1500, entry, snr, bw, TABLE.slot_s, rng, max_retx)


class TestHarqStream:
    # Blocks of 64, 128, ..., 4096 draws, then 4096 each: the first edge, the
    # edge before the first full block, the 4,096th draw and the edge after
    # the first full block.
    @pytest.mark.parametrize("draws", [d + k for d in (64, 4032, 4096, 8128) for k in (-1, 0, 1)])
    @pytest.mark.parametrize("max_retx", [0, 64])
    def test_matches_scalar_loop_across_block_edges(self, draws, max_retx):
        """The head takes exactly ``draws`` draws (``p = 2`` fails every
        attempt, ``p = 0`` succeeds at the first), ending just before, on
        and just after a block edge; random steps follow, in a second call."""
        full, rest = divmod(draws, max_retx + 1)
        head = [2.0] * full + [0.0] * rest
        tail = np.random.default_rng(draws).uniform(0.0, 1.0, size=500).tolist()
        harq = HarqStream(draw_blocks(np.random.default_rng([draws, 7])))
        got_head, got_tail = harq.run(head, max_retx), harq.run(tail, max_retx)
        assert got_head == ([max_retx + 1] * full + [1] * rest, [False] * full + [True] * rest)
        want = reference_harq(np.random.default_rng([draws, 7]), head + tail, max_retx)
        assert got_head[0] + got_tail[0] == want[0]
        assert got_head[1] + got_tail[1] == want[1]

    @pytest.mark.parametrize("max_retx", [0, 1, 2, 3, 4])
    def test_matches_scalar_loop_across_refills(self, max_retx):
        """Failure probabilities near 1 take more than 4,096 draws, so the
        stream refills several times, at full block size too."""
        rng = np.random.default_rng([max_retx, 5])
        p_fail = (1.0 - 0.02 * rng.random(5000)).tolist()
        got = HarqStream(draw_blocks(np.random.default_rng([max_retx, 9]))).run(p_fail, max_retx)
        assert sum(got[0]) > _DRAW_BLOCK
        assert got == reference_harq(np.random.default_rng([max_retx, 9]), p_fail, max_retx)

    @pytest.mark.parametrize("max_retx", [0, 1, 2, 3, 4])
    def test_split_calls_equal_one_call(self, max_retx):
        """Two calls give what one call gives on the joined input, wherever
        the input is split."""
        p_fail = np.random.default_rng(max_retx).uniform(0.3, 1.0, 1500).tolist()
        whole = HarqStream(draw_blocks(np.random.default_rng(11))).run(p_fail, max_retx)
        for cut in (0, 1, 17, 700, 1499, 1500):
            harq = HarqStream(draw_blocks(np.random.default_rng(11)))
            head, tail = harq.run(p_fail[:cut], max_retx), harq.run(p_fail[cut:], max_retx)
            assert (head[0] + tail[0], head[1] + tail[1]) == whole

    def test_empty_run_draws_nothing(self):
        harq = HarqStream(draw_blocks(np.random.default_rng(1)))
        assert harq.run([], 4) == ([], [])
        assert harq.run([0.5] * 50, 4) == reference_harq(np.random.default_rng(1), [0.5] * 50, 4)

    @staticmethod
    def edge_case_steps(seed, max_retx, n=400):
        """``n`` failure probabilities mixing 0, 1, 2, NaN, uniform values,
        values near 1 and values exactly equal to the draw the step's first
        attempt reads (which succeeds, as ``u >= p``)."""
        rng = np.random.default_rng([seed, 31])
        scalar = np.random.default_rng([seed, 37])  # the stream under test, one draw at a time
        p_fail = []
        for _ in range(n):
            kind = rng.integers(7)
            if kind == 0:
                p = float(copy.deepcopy(scalar).random())
            else:
                p = (0.0, 1.0, 2.0, math.nan, float(rng.random()), 1.0 - 0.05 * float(rng.random()))[kind - 1]
            reference_harq(scalar, [p], max_retx)
            p_fail.append(p)
        return p_fail

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("max_retx", [0, 1, 4, 64])
    def test_matches_both_oracles_in_split_calls(self, seed, max_retx):
        """Split at and around every step whose attempts cross a block edge,
        each call gives the scalar oracle's and the block oracle's results,
        and after each call the generator is where the block oracle left
        its own: no draw is taken past the last step."""
        p_fail = self.edge_case_steps(seed, max_retx)
        whole = reference_harq(np.random.default_rng([seed, 37]), p_fail, max_retx)
        if max_retx:
            assert {True, False} <= set(whole[1])
        ends = np.cumsum(whole[0]).tolist()
        edges = np.cumsum([64, 128, 256, 512, 1024, 2048, 4096, 4096])
        crossing = [int(np.searchsorted(ends, e)) for e in edges if e < ends[-1]]
        cuts = sorted({0, len(p_fail)} | {c + k for c in crossing for k in (-1, 0, 1) if 0 <= c + k <= len(p_fail)})
        rng, block_rng, scalar_rng = (np.random.default_rng([seed, 37]) for _ in range(3))
        harq, block = HarqStream(draw_blocks(rng)), ReferenceHarqStream(block_rng)
        for lo, hi in zip(cuts, cuts[1:]):
            got = harq.run(p_fail[lo:hi], max_retx)
            assert got == block.run(p_fail[lo:hi], max_retx)
            assert got == reference_harq(scalar_rng, p_fail[lo:hi], max_retx)
            assert got == (whole[0][lo:hi], whole[1][lo:hi])
            assert rng.bit_generator.state == block_rng.bit_generator.state

    def test_equal_draw_succeeds_and_nan_fails(self):
        draws = np.random.default_rng(5).random(3).tolist()
        harq = HarqStream(draw_blocks(np.random.default_rng(5)))
        assert harq.run([draws[0], math.nan], 1) == ([1, 2], [True, False])

    def test_reads_blocks_only_when_a_draw_is_needed(self):
        """A block is asked for only when an attempt needs a draw past the
        blocks read so far."""
        asked = []

        def blocks():
            for i in itertools.count():
                asked.append(i)
                yield [0.5] * 3

        harq = HarqStream(blocks())
        assert harq.run([0.9, 0.9], 0) == ([1, 1], [False, False])
        assert asked == [0]
        assert harq.run([0.9, 0.1], 1) == ([2, 1], [False, True])
        assert asked == [0, 1]
        assert harq.run([], 64) == ([], [])
        assert asked == [0, 1]


class TestAllocate:
    def test_proportional_returns_weights(self):
        cfg = RadioConfig(fairness="proportional", priority_weights=(0.3, 0.7))
        assert allocate([2.0, 1.0], cfg.priority_weights, cfg.fairness) == [0.3, 0.7]

    def test_max_min_equalizes_weighted_rates(self):
        cfg = RadioConfig(fairness="max_min", priority_weights=(0.3, 0.7))
        shares = allocate([2.0, 1.0], cfg.priority_weights, cfg.fairness)
        assert sum(shares) == pytest.approx(1.0)
        scaled = [r * s / w for r, s, w in zip([2.0, 1.0], shares, (0.3, 0.7))]
        assert scaled[0] == pytest.approx(scaled[1])

    def test_max_min_equal_weights_favors_slow_link(self):
        cfg = RadioConfig(fairness="max_min", priority_weights=(0.5, 0.5))
        shares = allocate([1.0, 3.0], cfg.priority_weights, cfg.fairness)
        assert shares == [pytest.approx(0.75), pytest.approx(0.25)]

    def test_errors(self):
        cfg = RadioConfig()
        with pytest.raises(ValueError):
            allocate([1.0], cfg.priority_weights, cfg.fairness)  # length mismatch
        with pytest.raises(ValueError):
            allocate([1.0, 0.0], cfg.priority_weights, cfg.fairness)

    @given(
        rates=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
        w0=st.floats(0.05, 0.95),
    )
    @settings(max_examples=50, deadline=None)
    def test_max_min_share_invariants(self, rates, w0):
        cfg = RadioConfig(fairness="max_min", priority_weights=(w0, 1.0 - w0))
        shares = allocate(rates, cfg.priority_weights, cfg.fairness)
        assert sum(shares) == pytest.approx(1.0)
        assert all(s > 0 for s in shares)


class TestAr1Series:
    @staticmethod
    def scalar_reference(rng, n, rho, sigma):
        ref = np.zeros(n)
        if n:
            ref[0] = rng.normal(0.0, sigma)
        innov = sigma * math.sqrt(1.0 - rho * rho)
        for i in range(1, n):
            ref[i] = rho * ref[i - 1] + rng.normal(0.0, innov)
        return ref

    @pytest.mark.parametrize(
        "seed,n",
        [(seed, 2500) for seed in range(5)] + [(0, 0), (0, 1), (0, 1025)],
    )
    def test_matches_scalar_draws(self, seed, n):
        rho, sigma = 0.9, 4.0  # n = 2500 and 1025 span more than one block
        series = ar1_series(np.random.default_rng([seed, 1, 7]), n, rho, sigma)
        ref = self.scalar_reference(np.random.default_rng([seed, 1, 7]), n, rho, sigma)
        assert series.shape == (n,)
        assert np.array_equal(series, ref)

    # Block sizes: 64 values first, doubling on each block up to 1,024.
    BLOCK_SIZES = {
        1: [1],
        64: [64],
        65: [64, 1],
        192: [64, 128],
        1023: [64, 128, 256, 512, 63],
        1024: [64, 128, 256, 512, 64],
        1025: [64, 128, 256, 512, 65],
        2580: [64, 128, 256, 512, 1024, 596],
    }

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2580, 64, 65, 192])
    @pytest.mark.parametrize("sigma", [4.0, 0.0])
    def test_blocks_equal_the_series(self, n, sigma):
        blocks = list(ar1_blocks(np.random.default_rng([n, 1, 7]), n, 0.9, sigma))
        assert [len(b) for b in blocks] == self.BLOCK_SIZES[n]
        series = ar1_series(np.random.default_rng([n, 1, 7]), n, 0.9, sigma)
        assert np.array([x for b in blocks for x in b]).tobytes() == series.tobytes()
        if sigma:
            ref = self.scalar_reference(np.random.default_rng([n, 1, 7]), n, 0.9, sigma)
            assert np.array_equal(series, ref)

    def test_blocks_draw_when_asked_for(self):
        rng = np.random.default_rng(5)
        blocks = ar1_blocks(rng, 5000, 0.9, 4.0)
        fresh = np.random.default_rng(5)
        for size in (64, 128, 256, 512, 1024, 1024):
            next(blocks)
            fresh.standard_normal(size)
            assert rng.bit_generator.state == fresh.bit_generator.state  # one block drawn

    def test_zero_sigma_is_zeros_and_draws_nothing(self):
        rng = np.random.default_rng(3)
        series = ar1_series(rng, 10, 0.9, 0.0)
        assert np.array_equal(series, np.zeros(10))
        assert rng.random() == np.random.default_rng(3).random()


class TestSampleTrace:
    def flat_map(self, rho=0.0, sigma=0.0):
        return PathGainMap(np.full((1, 12), -60.0), rho, sigma)

    def test_no_shadowing_is_deterministic_map_gain(self):
        cfg = RadioConfig()
        cells = [(x, 0) for x in range(12)]
        true_snr, map_snr = sample_trace(self.flat_map(), cells, cfg, seed=5)
        assert true_snr == map_snr == [cfg.max_power_dbm - 60.0 - cfg.noise_dbm] * 12
        assert true_snr[0] == 23.0 - 60.0 + 100.0

    def test_seed_determinism(self):
        m = self.flat_map(rho=0.9, sigma=4.0)
        cfg = RadioConfig()
        cells = [(x, 0) for x in range(12)]
        a = sample_trace(m, cells, cfg, seed=3)
        b = sample_trace(m, cells, cfg, seed=3)
        c = sample_trace(m, cells, cfg, seed=4)
        assert a == b
        assert a[0] != c[0] and a[1] == c[1]

    def test_marginal_std_and_autocorrelation(self):
        rho, sigma = 0.8, 3.0
        m = self.flat_map(rho=rho, sigma=sigma)
        cfg = RadioConfig()
        cells = [(x, 0) for x in range(12)]
        s10, s11 = [], []
        for seed in range(1500):
            true_snr, map_snr = sample_trace(m, cells, cfg, seed=seed)
            s10.append(true_snr[10] - map_snr[10])
            s11.append(true_snr[11] - map_snr[11])
        s10, s11 = np.array(s10), np.array(s11)
        assert abs(s10.std(ddof=1) - sigma) < 0.25
        assert abs(s11.std(ddof=1) - sigma) < 0.25
        corr = np.corrcoef(s10, s11)[0, 1]
        assert abs(corr - rho) < 0.05

    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_snapshot_walk(self, seed):
        """The per-step SNRs equal the old walk over link snapshots bit for
        bit, on a route that revisits cells, with and without shadowing."""
        gains = np.random.default_rng(seed).uniform(-120.0, -60.0, size=(3, 7))
        cells = [(x % 7, (x // 7) % 3) for x in range(0, 300, 2)] * 3
        for cfg in (RadioConfig(), RadioConfig(max_power_dbm=17.25, noise_dbm=-93.7)):
            for rho, sigma in ((0.0, 0.0), (0.9, 4.0)):
                gm = PathGainMap(gains, rho, sigma)
                got = sample_trace(gm, cells, cfg, seed)
                assert np.array(got).tobytes() == np.array(reference_sample_trace(gm, cells, cfg, seed)).tobytes()

    def test_uncovered_cell_named_in_route_order(self):
        gm = PathGainMap(np.array([[-60.0, np.nan, np.nan]]))
        with pytest.raises(ValueError, match=r"cell \(2, 0\)"):
            sample_trace(gm, [(0, 0), (2, 0), (1, 0)], RadioConfig(), 0)
