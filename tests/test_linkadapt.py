"""Adaptation policies, predictors, and the stale-feedback machinery."""

import math

import numpy as np
import pytest

from r2xsim.linkadapt import (
    MapAwarePredictor,
    PolicySpec,
    PolicyTimeSeries,
    gains,
    run_policy,
)
from r2xsim.radio import (
    LinkState,
    McsEntry,
    McsTable,
    PathGainMap,
    default_mcs_table,
)

# Two-rung step table: rung 0 always decodes, rung 1 needs snr > 4 dB.
STEP_TABLE = McsTable(
    (
        McsEntry(0, 1.0, -100.0, math.inf),
        McsEntry(1, 2.0, 4.0, math.inf),
    ),
    bandwidth_hz=1e6,
    slot_s=1e-3,
)


def trace_from_snrs(snrs, power=23.0, noise=-100.0):
    return [LinkState.from_gain(s - power + noise, power, noise) for s in snrs]


class TestPolicySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolicySpec("clairvoyant")
        with pytest.raises(ValueError):
            PolicySpec("delayed", delay=-1)


class TestMapAwarePredictor:
    def reference(self, residuals, target, delay):
        n = len(residuals)
        if n == 0:
            return target
        if n < 8:
            return target + residuals[-1]
        s1 = sum(residuals)
        s2 = sum(r * r for r in residuals)
        sx = sum(a * b for a, b in zip(residuals[1:], residuals))
        rho = min(max(sx / s2, 0.0), 0.9999) if s2 > 0 else 0.0
        var = s2 / n - (s1 / n) ** 2
        sigma = math.sqrt(max(var, 0.0))
        decay = rho**delay
        spread = sigma * math.sqrt(max(1.0 - decay * decay, 0.0))
        return target + decay * residuals[-1] - spread

    def test_no_samples_returns_map(self):
        assert MapAwarePredictor().predict(-7.5, 5) == -7.5

    def test_few_samples_add_last_residual(self):
        m = MapAwarePredictor()
        for r in (1.0, -2.0, 3.5):
            m.observe(r)
        assert m.predict(10.0, 4) == 13.5

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(8)
        residuals = list(rng.normal(0, 3, size=25))
        m = MapAwarePredictor()
        for r in residuals:
            m.observe(r)
        for delay in (1, 5, 30):
            expected = self.reference(residuals, -4.0, delay)
            assert m.predict(-4.0, delay) == pytest.approx(expected, abs=1e-12)

    def test_long_delay_decays_residual(self):
        # with rho < 1 the residual term vanishes and the backoff saturates
        m = MapAwarePredictor()
        for r in (2.0, 1.8, 1.9, 2.1, 1.7, 2.2, 1.6, 2.0, 1.9, 2.05):
            m.observe(r)
        near = m.predict(0.0, 1)
        far = m.predict(0.0, 1000)
        s2 = sum(r * r for r in (2.0, 1.8, 1.9, 2.1, 1.7, 2.2, 1.6, 2.0, 1.9, 2.05))
        s1 = sum((2.0, 1.8, 1.9, 2.1, 1.7, 2.2, 1.6, 2.0, 1.9, 2.05))
        sigma = math.sqrt(s2 / 10 - (s1 / 10) ** 2)
        assert far == pytest.approx(-sigma, abs=1e-9)
        assert near > far  # positive last residual still helps at short delay


class TestRunPolicy:
    def test_rising_edge_delayed_selection_lags(self):
        snrs = [0.0] * 5 + [10.0] * 25
        trace = trace_from_snrs(snrs)
        ideal = run_policy(trace, PolicySpec("ideal"), STEP_TABLE, 1000, seed=0)
        assert list(ideal.mcs_index) == [0] * 5 + [1] * 25
        assert ideal.success.all()
        delayed = run_policy(trace, PolicySpec("delayed", delay=3), STEP_TABLE, 1000, seed=0)
        assert list(delayed.mcs_index) == [0] * 8 + [1] * 22
        assert delayed.success.all()

    def test_falling_edge_delayed_overshoots_and_fails(self):
        snrs = [10.0] * 5 + [-10.0] * 10
        trace = trace_from_snrs(snrs)
        delayed = run_policy(trace, PolicySpec("delayed", delay=3), STEP_TABLE, 1000, seed=0)
        # steps 5..7 still trust the stale high SNR, pick rung 1, and fail
        assert list(delayed.success) == [True] * 5 + [False] * 3 + [True] * 7
        per = 1000 * 8 / (2.0 * 1e6) + 1e-3
        for t in (5, 6, 7):
            assert delayed.latency_s[t] == pytest.approx(5 * per)  # 1 + 4 retx
            assert delayed.throughput_bps[t] == 0.0
            assert delayed.bler_realized[t] == 1.0

    def test_max_retx_zero_single_attempt(self):
        snrs = [10.0] * 5 + [-10.0] * 5
        trace = trace_from_snrs(snrs)
        out = run_policy(
            trace, PolicySpec("delayed", delay=3), STEP_TABLE, 1000, seed=0, max_retx=0
        )
        per = 1000 * 8 / (2.0 * 1e6) + 1e-3
        assert out.latency_s[5] == pytest.approx(per)

    def test_throughput_identity(self):
        rng_snrs = np.random.default_rng(2).uniform(-5, 25, size=60)
        trace = trace_from_snrs(list(rng_snrs))
        out = run_policy(trace, PolicySpec("delayed", delay=2), default_mcs_table(), 1500, seed=5)
        for t in range(len(out)):
            if out.success[t]:
                assert out.throughput_bps[t] == pytest.approx(1500 * 8 / out.latency_s[t])
            else:
                assert out.throughput_bps[t] == 0.0

    def test_delay_must_be_shorter_than_trace(self):
        trace = trace_from_snrs([10.0] * 5)
        with pytest.raises(ValueError):
            run_policy(trace, PolicySpec("delayed", delay=5), STEP_TABLE, 100)
        with pytest.raises(ValueError):
            run_policy([], PolicySpec("ideal"), STEP_TABLE, 100)

    def test_map_aware_requires_route_context(self):
        trace = trace_from_snrs([10.0] * 6)
        spec = PolicySpec("predictive", delay=2)
        with pytest.raises(ValueError):
            run_policy(trace, spec, STEP_TABLE, 100)
        gm = PathGainMap(np.full((1, 3), -113.0))
        with pytest.raises(ValueError):
            run_policy(trace, spec, STEP_TABLE, 100, cells=[(0, 0)] * 5, gain_map=gm)

    def test_map_aware_with_clean_map_matches_ideal(self):
        # no shadowing: residuals are zero, prediction equals the map SNR
        gm = PathGainMap(np.array([[-113.0, -108.0, -103.0, -113.0, -108.0, -103.0]]))
        cells = [(x, 0) for x in range(6)] * 4
        snrs = [23.0 + gm.gain_at(c) + 100.0 for c in cells]
        trace = trace_from_snrs(snrs)
        spec = PolicySpec("predictive", delay=3)
        pred = run_policy(trace, spec, STEP_TABLE, 800, seed=1, cells=cells, gain_map=gm)
        ideal = run_policy(trace, PolicySpec("ideal"), STEP_TABLE, 800, seed=1)
        assert list(pred.mcs_index) == list(ideal.mcs_index)

    def test_seed_determinism(self):
        trace = trace_from_snrs(list(np.random.default_rng(0).uniform(0, 15, size=40)))
        spec = PolicySpec("delayed", delay=4)
        a = run_policy(trace, spec, default_mcs_table(), 1500, seed=3)
        b = run_policy(trace, spec, default_mcs_table(), 1500, seed=3)
        assert np.array_equal(a.success, b.success)
        assert np.array_equal(a.latency_s, b.latency_s)


class TestGains:
    def series(self, tput, lat):
        n = len(tput)
        return PolicyTimeSeries(
            PolicySpec("ideal"),
            np.zeros(n, dtype=int),
            np.array(tput, dtype=float),
            np.array(lat, dtype=float),
            np.zeros(n),
            np.ones(n, dtype=bool),
            np.zeros(n, dtype=bool),
        )

    def test_self_comparison_is_zero(self):
        s = self.series([2.0, 3.0], [0.5, 0.7])
        assert gains(s, s) == (0.0, 0.0)

    def test_exact_percentages(self):
        base = self.series([1.0] * 5, [1.0] * 5)
        prop = self.series([1.1414] * 5, [0.8838] * 5)
        tp, lat = gains(prop, base)
        assert tp == pytest.approx(14.14, abs=1e-9)
        assert lat == pytest.approx(11.62, abs=1e-9)

    def test_zero_baselines_rejected(self):
        base_tp0 = self.series([0.0, 0.0], [1.0, 1.0])
        base_lat0 = self.series([1.0, 1.0], [0.0, 0.0])
        good = self.series([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            gains(good, base_tp0)
        with pytest.raises(ValueError):
            gains(good, base_lat0)
