"""Link algebra, MCS curves, HARQ statistics, allocation, AR(1) shadowing, traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from r2xsim.radio import (
    LinkState,
    McsEntry,
    McsTable,
    PathGainMap,
    RadioConfig,
    allocate,
    ar1_blocks,
    ar1_series,
    bler,
    default_mcs_table,
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


class TestLinkState:
    def test_from_gain_identities(self):
        ls = LinkState.from_gain(-80.0, 20.0, noise_dbm=-100.0)
        assert ls.snr_db == 40.0
        assert ls.rssi_dbm == -60.0

    def test_inconsistent_snapshot_rejected(self):
        with pytest.raises(ValueError):
            LinkState(gain_db=-80.0, tx_power_dbm=20.0, noise_dbm=-100.0, snr_db=10.0, rssi_dbm=-60.0)
        with pytest.raises(ValueError):
            LinkState(gain_db=-80.0, tx_power_dbm=20.0, noise_dbm=-100.0, snr_db=40.0, rssi_dbm=0.0)


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
        power, ok = required_power(-60.0, 15.0, noise_dbm=-100.0, max_power_dbm=23.0)
        assert ok and power == -25.0

    def test_clamped_when_budget_exceeded(self):
        power, ok = required_power(-130.0, 15.0, noise_dbm=-100.0, max_power_dbm=23.0)
        assert not ok and power == 23.0

    def test_boundary_is_achievable(self):
        power, ok = required_power(-108.0, 15.0, noise_dbm=-100.0, max_power_dbm=23.0)
        assert ok and power == 23.0


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


class TestSelectMcs:
    def test_typical_selection(self):
        assert select_mcs(TABLE, 15.0, 0.1) == (4, True)
        assert select_mcs(TABLE, 40.0, 0.1) == (7, True)

    def test_infeasible_falls_back_to_most_robust(self):
        sel = select_mcs(TABLE, -10.0, 0.1)
        assert sel.index == 0 and not sel.feasible

    def test_threshold_is_not_enough_for_low_targets(self):
        # at the threshold the BLER is exactly 0.5
        e = McsEntry(0, 1.0, 4.0, math.inf)
        t = McsTable((e,))
        assert select_mcs(t, 4.0, 0.1) == (0, False)
        assert select_mcs(t, 4.0, 0.5) == (0, True)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            select_mcs(TABLE, 10.0, 0.0)
        with pytest.raises(ValueError):
            select_mcs(TABLE, 10.0, 1.0)


class TestSerialization:
    def test_exact_value(self):
        entry = TABLE.entries[4]  # 3.0 bps/Hz
        assert serialization_time_s(1500, entry, TABLE) == 1500 * 8 / (3.0 * 10e6)


class TestSimulateTransmission:
    def test_clean_link_single_attempt(self):
        rng = np.random.default_rng(0)
        res = simulate_transmission(1500, TABLE.entries[4], [100.0], TABLE, rng)
        per = serialization_time_s(1500, TABLE.entries[4], TABLE) + TABLE.slot_s
        assert res == (pytest.approx(per), True, 1)

    def test_dead_link_exhausts_budget(self):
        e = McsEntry(0, 1.0, 4.0, math.inf)
        t = McsTable((e,))
        rng = np.random.default_rng(0)
        res = simulate_transmission(100, e, [-10.0], t, rng, max_retx=2)
        assert not res.success and res.attempts == 3
        per = serialization_time_s(100, e, t) + t.slot_s
        assert res.latency_s == pytest.approx(3 * per)

    def test_max_retx_zero_means_one_attempt(self):
        e = McsEntry(0, 1.0, 4.0, math.inf)
        t = McsTable((e,))
        rng = np.random.default_rng(0)
        res = simulate_transmission(100, e, [-10.0], t, rng, max_retx=0)
        assert res.attempts == 1 and not res.success

    def test_snr_sequence_extends_last_sample(self):
        e = McsEntry(0, 1.0, 4.0, math.inf)
        t = McsTable((e,))
        rng = np.random.default_rng(0)
        # first attempt at -10 dB always fails, second at +10 always succeeds
        res = simulate_transmission(100, e, [-10.0, 10.0], t, rng, max_retx=4)
        assert res.success and res.attempts == 2
        # a single low sample is repeated for every retry
        res = simulate_transmission(100, e, [-10.0], t, rng, max_retx=3)
        assert not res.success and res.attempts == 4

    def test_input_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulate_transmission(100, TABLE.entries[0], [], TABLE, rng)
        with pytest.raises(ValueError):
            simulate_transmission(-1, TABLE.entries[0], [0.0], TABLE, rng)
        with pytest.raises(ValueError):
            simulate_transmission(100, TABLE.entries[0], [0.0], TABLE, rng, max_retx=-1)

    def test_attempt_statistics_at_half_bler(self):
        # SNR pinned at the threshold: every attempt fails with p = 1/2
        entry = TABLE.entries[2]
        snr = [entry.snr_threshold_db]
        rng = np.random.default_rng(42)
        n = 4000
        results = [
            simulate_transmission(1200, entry, snr, TABLE, rng, max_retx=2)
            for _ in range(n)
        ]
        per = serialization_time_s(1200, entry, TABLE) + TABLE.slot_s
        for r in results:
            assert r.latency_s == pytest.approx(r.attempts * per)
        success_rate = np.mean([r.success for r in results])
        mean_attempts = np.mean([r.attempts for r in results])
        # success = 1 - 0.5^3, attempts mean = 1.75; both within 4 sigma
        assert abs(success_rate - 0.875) < 0.021
        assert abs(mean_attempts - 1.75) < 0.053


class TestAllocate:
    def test_proportional_returns_weights(self):
        cfg = RadioConfig(fairness="proportional", priority_weights=(0.3, 0.7))
        assert allocate([2.0, 1.0], cfg) == [0.3, 0.7]

    def test_max_min_equalizes_weighted_rates(self):
        cfg = RadioConfig(fairness="max_min", priority_weights=(0.3, 0.7))
        shares = allocate([2.0, 1.0], cfg)
        assert sum(shares) == pytest.approx(1.0)
        scaled = [r * s / w for r, s, w in zip([2.0, 1.0], shares, (0.3, 0.7))]
        assert scaled[0] == pytest.approx(scaled[1])

    def test_max_min_equal_weights_favors_slow_link(self):
        cfg = RadioConfig(fairness="max_min", priority_weights=(0.5, 0.5))
        shares = allocate([1.0, 3.0], cfg)
        assert shares == [pytest.approx(0.75), pytest.approx(0.25)]

    def test_errors(self):
        cfg = RadioConfig()
        with pytest.raises(ValueError):
            allocate([1.0], cfg)  # length mismatch
        with pytest.raises(ValueError):
            allocate([1.0, 0.0], cfg)

    @given(
        rates=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
        w0=st.floats(0.05, 0.95),
    )
    @settings(max_examples=50, deadline=None)
    def test_max_min_share_invariants(self, rates, w0):
        cfg = RadioConfig(fairness="max_min", priority_weights=(w0, 1.0 - w0))
        shares = allocate(rates, cfg)
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

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2580])
    @pytest.mark.parametrize("sigma", [4.0, 0.0])
    def test_blocks_equal_the_series(self, n, sigma):
        blocks = list(ar1_blocks(np.random.default_rng([n, 1, 7]), n, 0.9, sigma))
        assert [len(b) for b in blocks] == [min(1024, n - lo) for lo in range(0, n, 1024)]
        series = ar1_series(np.random.default_rng([n, 1, 7]), n, 0.9, sigma)
        assert np.array([x for b in blocks for x in b]).tobytes() == series.tobytes()
        if sigma:
            ref = self.scalar_reference(np.random.default_rng([n, 1, 7]), n, 0.9, sigma)
            assert np.array_equal(series, ref)

    def test_blocks_draw_when_asked_for(self):
        rng = np.random.default_rng(5)
        next(ar1_blocks(rng, 5000, 0.9, 4.0))
        fresh = np.random.default_rng(5)
        fresh.standard_normal(1024)
        assert rng.random() == fresh.random()  # one block drawn

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
        trace = sample_trace(self.flat_map(), cells, cfg, seed=5)
        assert all(ls.gain_db == -60.0 for ls in trace)
        assert all(ls.tx_power_dbm == cfg.max_power_dbm for ls in trace)
        assert trace[0].snr_db == 23.0 - 60.0 + 100.0

    def test_seed_determinism(self):
        m = self.flat_map(rho=0.9, sigma=4.0)
        cfg = RadioConfig()
        cells = [(x, 0) for x in range(12)]
        a = sample_trace(m, cells, cfg, seed=3)
        b = sample_trace(m, cells, cfg, seed=3)
        c = sample_trace(m, cells, cfg, seed=4)
        assert [ls.gain_db for ls in a] == [ls.gain_db for ls in b]
        assert [ls.gain_db for ls in a] != [ls.gain_db for ls in c]

    def test_marginal_std_and_autocorrelation(self):
        rho, sigma = 0.8, 3.0
        m = self.flat_map(rho=rho, sigma=sigma)
        cfg = RadioConfig()
        cells = [(x, 0) for x in range(12)]
        s10, s11 = [], []
        for seed in range(1500):
            tr = sample_trace(m, cells, cfg, seed=seed)
            s10.append(tr[10].gain_db + 60.0)
            s11.append(tr[11].gain_db + 60.0)
        s10, s11 = np.array(s10), np.array(s11)
        assert abs(s10.std(ddof=1) - sigma) < 0.25
        assert abs(s11.std(ddof=1) - sigma) < 0.25
        corr = np.corrcoef(s10, s11)[0, 1]
        assert abs(corr - rho) < 0.05
