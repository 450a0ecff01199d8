"""Adaptation policies, predictors, and the stale-feedback machinery."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    MapAwarePredictor,
    reference_predict,
    reference_residual_stats,
    reference_run_policy,
    reference_sample_trace,
    reference_select_mcs,
)
from r2xsim import linkadapt
from r2xsim.linkadapt import (
    _SHARED_BLOCKS,
    _SHARED_DRAWS,
    LinkTable,
    PolicySpec,
    PolicyTimeSeries,
    gains,
    run_policy,
)
from r2xsim.radio import (
    McsEntry,
    McsTable,
    PathGainMap,
    RadioConfig,
    bler,
    default_mcs_table,
    draw_blocks,
    sample_trace,
)
from r2xsim.scenarios import bundled_scenario_path, load_scenario, parse_scenario, run_one


def sample_link(gain_map, cells, cfg, table, seed, bler_target=0.1):
    """The link table of ``sample_trace(gain_map, cells, cfg, seed)``."""
    true_snr, map_snr = sample_trace(gain_map, cells, cfg, seed)
    return LinkTable(true_snr, table, bler_target, map_snr)


# Two-rung step table: rung 0 always decodes, rung 1 needs snr > 4 dB.
STEP_TABLE = McsTable(
    (
        McsEntry(0, 1.0, -100.0, math.inf),
        McsEntry(1, 2.0, 4.0, math.inf),
    ),
    bandwidth_hz=1e6,
    slot_s=1e-3,
)


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


def bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRunPolicy:
    def test_rising_edge_delayed_selection_lags(self):
        link = LinkTable([0.0] * 5 + [10.0] * 25, STEP_TABLE)
        ideal = run_policy(link, PolicySpec("ideal"), 1000, seed=0)
        assert list(ideal.mcs_index) == [0] * 5 + [1] * 25
        assert ideal.success.all()
        delayed = run_policy(link, PolicySpec("delayed", delay=3), 1000, seed=0)
        assert list(delayed.mcs_index) == [0] * 8 + [1] * 22
        assert delayed.success.all()

    def test_falling_edge_delayed_overshoots_and_fails(self):
        link = LinkTable([10.0] * 5 + [-10.0] * 10, STEP_TABLE)
        delayed = run_policy(link, PolicySpec("delayed", delay=3), 1000, seed=0)
        # steps 5..7 still trust the stale high SNR, pick rung 1, and fail
        assert list(delayed.success) == [True] * 5 + [False] * 3 + [True] * 7
        per = 1000 * 8 / (2.0 * 1e6) + 1e-3
        for t in (5, 6, 7):
            assert delayed.latency_s[t] == pytest.approx(5 * per)  # 1 + 4 retx
            assert delayed.throughput_bps[t] == 0.0
            assert delayed.bler_realized[t] == 1.0

    def test_max_retx_zero_single_attempt(self):
        link = LinkTable([10.0] * 5 + [-10.0] * 5, STEP_TABLE)
        out = run_policy(link, PolicySpec("delayed", delay=3), 1000, seed=0, max_retx=0)
        per = 1000 * 8 / (2.0 * 1e6) + 1e-3
        assert out.latency_s[5] == pytest.approx(per)

    def test_throughput_identity(self):
        snrs = np.random.default_rng(2).uniform(-5, 25, size=60)
        link = LinkTable(snrs, default_mcs_table())
        out = run_policy(link, PolicySpec("delayed", delay=2), 1500, seed=5)
        for t in range(len(out)):
            if out.success[t]:
                assert out.throughput_bps[t] == pytest.approx(1500 * 8 / out.latency_s[t])
            else:
                assert out.throughput_bps[t] == 0.0

    def test_delay_must_be_shorter_than_trace(self):
        link = LinkTable([10.0] * 5, STEP_TABLE)
        with pytest.raises(ValueError):
            run_policy(link, PolicySpec("delayed", delay=5), 100)
        with pytest.raises(ValueError):
            LinkTable([], STEP_TABLE)

    def test_negative_payload_or_retx_rejected(self):
        link = LinkTable([10.0] * 5, STEP_TABLE)
        with pytest.raises(ValueError):
            run_policy(link, PolicySpec("ideal"), -1)
        with pytest.raises(ValueError):
            run_policy(link, PolicySpec("ideal"), 100, max_retx=-1)

    def test_map_aware_requires_route_context(self):
        spec = PolicySpec("predictive", delay=2)
        with pytest.raises(ValueError):
            run_policy(LinkTable([10.0] * 6, STEP_TABLE), spec, 100)
        with pytest.raises(ValueError):
            LinkTable([10.0] * 6, STEP_TABLE, map_snr=[10.0] * 5)

    def test_map_aware_with_clean_map_matches_ideal(self):
        # no shadowing: residuals are zero, prediction equals the map SNR
        gm = PathGainMap(np.array([[-113.0, -108.0, -103.0, -113.0, -108.0, -103.0]]))
        cells = [(x, 0) for x in range(6)] * 4
        link = sample_link(gm, cells, RadioConfig(), STEP_TABLE, seed=1)
        assert link.map_snr == link.true_snr
        pred = run_policy(link, PolicySpec("predictive", delay=3), 800, seed=1)
        ideal = run_policy(link, PolicySpec("ideal"), 800, seed=1)
        assert list(pred.mcs_index) == list(ideal.mcs_index)

    def test_seed_determinism(self):
        link = LinkTable(np.random.default_rng(0).uniform(0, 15, size=40), default_mcs_table())
        spec = PolicySpec("delayed", delay=4)
        a = run_policy(link, spec, 1500, seed=3)
        b = run_policy(link, spec, 1500, seed=3)
        assert np.array_equal(a.success, b.success)
        assert np.array_equal(a.latency_s, b.latency_s)


class TestLinkTable:
    def test_tables_match_scalar_functions(self):
        table = default_mcs_table()
        snrs = list(np.random.default_rng(4).uniform(-10, 30, size=200)) + [-2.0, 22.0]
        link = LinkTable(snrs, table, 0.1)
        for t, x in enumerate(snrs):
            assert link.best[t] == reference_select_mcs(table, x, 0.1)
            for e in table.entries:
                assert link.bler[t, e.index] == bler(e, x)

    def test_sample_reads_one_trace(self):
        scn = load_scenario(bundled_scenario_path("mcs-ar1"))
        gain_map, cells, cfg, table, *_ = scn.inputs
        link = sample_link(gain_map, cells, cfg, table, 7)
        assert (link.true_snr, link.map_snr) == sample_trace(gain_map, cells, cfg, 7)
        assert (link.true_snr, link.map_snr) == reference_sample_trace(gain_map, cells, cfg, 7)

    def test_cutoffs_are_the_tables(self):
        table = default_mcs_table()
        link = LinkTable([0.0], table, 0.3)
        assert link.cutoff.tolist() == list(table.cutoffs(0.3))
        assert LinkTable([1.0], table, 0.3).cutoff.tobytes() == link.cutoff.tobytes()

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.1, math.nan])
    def test_bler_target_range(self, target):
        with pytest.raises(ValueError):
            LinkTable([1.0], STEP_TABLE, target)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.3e154, -1e200])
    def test_snrs_must_be_finite(self, bad):
        with pytest.raises(ValueError):
            LinkTable([1.0, bad], STEP_TABLE)
        with pytest.raises(ValueError):
            LinkTable([1.0, 2.0], STEP_TABLE, map_snr=[1.0, bad])


# Tables whose cut-offs are checked: the default waterfall, a step curve, and
# slopes steep and shallow enough that the exp clamp and subnormal BLERs show.
CUTOFF_TABLES = [
    (default_mcs_table(), 0.1),
    (default_mcs_table(), 0.5),
    (default_mcs_table(), 1e-300),
    (STEP_TABLE, 0.1),
    (STEP_TABLE, 0.5),
    (McsTable((McsEntry(0, 1.0, -3.7, 0.013), McsEntry(1, 2.0, 5.1, 250.0))), 0.3),
]


class TestCutoff:
    @pytest.mark.parametrize("table,target", CUTOFF_TABLES)
    def test_exact_near_each_cutoff(self, table, target):
        link = LinkTable([0.0], table, target)
        for e in table.entries:
            cut = float(link.cutoff[e.index])
            assert math.isfinite(cut)
            below = above = cut
            for _ in range(2**12):
                below = math.nextafter(below, -math.inf)
                above = math.nextafter(above, math.inf)
                assert not bler(e, below) <= target
                assert bler(e, above) <= target
            assert bler(e, cut) <= target

    @pytest.mark.parametrize("table,target", CUTOFF_TABLES)
    def test_exact_on_random_points(self, table, target):
        link = LinkTable([0.0], table, target)
        xs = np.random.default_rng(11).uniform(-60, 60, size=10**5).tolist()
        for e in table.entries:
            cut = float(link.cutoff[e.index])
            assert [bler(e, x) <= target for x in xs] == [x >= cut for x in xs]

    def test_no_feasible_snr_is_nan(self):
        # bler never falls below ~1e-304 (the exp clamp), so no SNR meets 1e-310
        link = LinkTable([0.0, 1e6], default_mcs_table(), 1e-310)
        assert np.isnan(link.cutoff).all()
        assert list(link.select([0.0, 1e6, 1e300])) == [0, 0, 0]

    def test_select_matches_select_mcs(self):
        table = default_mcs_table()
        link = LinkTable([0.0], table, 0.1)
        xs = list(np.random.default_rng(5).uniform(-20, 40, size=2000))
        assert list(link.select(xs)) == [reference_select_mcs(table, x, 0.1) for x in xs]


SPECS = [
    PolicySpec("oracle"),
    PolicySpec("ideal"),
    PolicySpec("delayed", 0),
    PolicySpec("delayed", 1),
    PolicySpec("delayed", 7),
    PolicySpec("predictive", 0),
    PolicySpec("predictive", 1),
    PolicySpec("predictive", 9),
]


@pytest.fixture(scope="module")
def bundled_corridor():
    return load_scenario(bundled_scenario_path("mcs-ar1"))


def assert_matches_reference(link, trace, spec, table, payload, target, seed, max_retx):
    """``trace`` is the ``(true_snr, map_snr)`` pair of ``reference_sample_trace``."""
    got = run_policy(link, spec, payload, seed=seed, max_retx=max_retx)
    true_snr, map_snr = trace
    want = reference_run_policy(
        true_snr, spec, table, payload, target, seed=seed, map_snr=map_snr, max_retx=max_retx,
    )
    for name in ("mcs_index", "throughput_bps", "latency_s", "bler_realized", "success"):
        assert bitwise_equal(getattr(got, name), getattr(want, name)), f"{spec} {name}"


class TestKernelMatchesReference:
    """``run_policy`` gives the per-step loop's arrays bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_bundled_method(self, bundled_corridor, seed):
        scn = bundled_corridor
        c = scn.inputs
        trace = reference_sample_trace(c.gain_map, c.cells, c.cfg, seed)
        link = sample_link(c.gain_map, c.cells, c.cfg, c.table, seed, c.bler_target)
        for method in scn.methods:
            kind, _, delay = method.partition("_")
            spec = PolicySpec(kind, int(delay or 0))
            assert c.policies[method] == spec
            assert_matches_reference(link, trace, spec, c.table, c.payload_bytes, c.bler_target, seed, c.cfg.max_retx)

    @pytest.mark.parametrize("target", [0.1, 0.5])
    @pytest.mark.parametrize("sigma", [0.0, 4.0])
    def test_step_curve_table(self, target, sigma):
        # With no shadowing the SNRs 0, 4 and 8 dB hit rung 1's threshold
        # exactly, where the step curve's BLER is 0.5.
        gm = PathGainMap(np.array([[-123.0, -119.0, -115.0, -119.0]]), 0.9, sigma)
        cells = [(x % 4, 0) for x in range(300)]
        cfg = RadioConfig()
        trace = reference_sample_trace(gm, cells, cfg, 3)
        link = sample_link(gm, cells, cfg, STEP_TABLE, 3, target)
        for spec in SPECS:
            assert_matches_reference(link, trace, spec, STEP_TABLE, 700, target, 3, 4)

    def test_max_retx_zero(self, bundled_corridor):
        gain_map, cells, cfg, table, *_ = bundled_corridor.inputs
        cells = cells[:600]
        trace = reference_sample_trace(gain_map, cells, cfg, 4)
        link = sample_link(gain_map, cells, cfg, table, 4)
        for spec in SPECS:
            assert_matches_reference(link, trace, spec, table, 1500, 0.1, 4, 0)


def long_retry_mcs():
    """An mcs document whose policies read about 60 HARQ draws a step, past
    the draws a LinkTable shares: 2,000 steps, ``max_retx`` 64, and a
    corridor whose SNR reaches rung 0's threshold only at its peaks."""
    return {
        "schema_version": 1,
        "id": "long-retry-mcs",
        "kind": "mcs",
        "seeds": [0, 1],
        "methods": ["oracle", "delayed_3", "predictive_3"],
        "mcs": {
            "steps": 2000,
            "corridor_cells": 40,
            "gain_profile": {"base_db": -140.0, "amplitude_db": 16.0, "period_cells": 20.0},
            "shadowing_rho": 0.9,
            "shadowing_sigma_db": 3.0,
            "payload_bytes": 1500,
            "radio": {"max_retx": 64},
        },
    }


class TestSharedHarqDraws:
    """Every policy of a seed reads the seed's one HARQ stream, drawn once
    per link table as far as the kept blocks go."""

    @staticmethod
    def records(scn, methods, seed):
        return {m: run_one(scn, m, seed) for m in methods}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_order_and_fresh_loads_give_the_same_records(self, seed):
        path = bundled_scenario_path("mcs-ar1")
        scn = load_scenario(path)
        assert len(scn.methods) == 14
        in_order = self.records(scn, scn.methods, seed)
        assert self.records(load_scenario(path), reversed(scn.methods), seed) == in_order
        for m in scn.methods:
            assert run_one(load_scenario(path), m, seed) == in_order[m]

    def test_policies_of_a_seed_draw_once(self, monkeypatch):
        streams = []
        monkeypatch.setattr(linkadapt, "draw_blocks", lambda rng: streams.append(rng) or draw_blocks(rng))
        scn = load_scenario(bundled_scenario_path("mcs-ar1"))
        for m in scn.methods:
            run_one(scn, m, 0)
        assert len(streams) == 1

    def test_reading_past_the_kept_blocks_gives_fresh_streams(self, monkeypatch):
        scn = parse_scenario(long_retry_mcs())
        shared, kept_draws = {}, []
        for seed in scn.seeds:
            for m in scn.methods:
                shared[m, seed] = run_one(scn, m, seed)
                kept = scn._seed_table[1]._harq[3]
                assert len(kept) == _SHARED_BLOCKS
                kept_draws.append(sum(map(len, kept)))
        assert max(kept_draws) <= _SHARED_DRAWS
        assert _SHARED_DRAWS - 4096 < max(kept_draws)
        # Each policy on its own default_rng(seed), as before the draws were shared.
        monkeypatch.setattr(LinkTable, "harq_blocks", lambda link, seed: draw_blocks(np.random.default_rng(seed)))
        fresh = parse_scenario(long_retry_mcs())
        for (m, seed), record in shared.items():
            assert run_one(fresh, m, seed) == record

    def test_readers_past_the_kept_blocks_read_the_stream(self):
        """Readers that interleave, go past the kept blocks on their own
        copies of the generator, or start after another seed was asked for,
        each read the seed's stream."""
        link = LinkTable([0.0], STEP_TABLE)
        want = np.random.default_rng(9).random(3 * _SHARED_DRAWS).tolist()

        def reader(seed):
            return itertools.chain.from_iterable(link.harq_blocks(seed))

        def take(draws, n):
            return list(itertools.islice(draws, n))

        a, b, late = reader(9), reader(9), reader(9)
        assert take(a, 100) == want[:100]
        assert take(b, 2 * _SHARED_DRAWS) == want[:2 * _SHARED_DRAWS]
        assert take(a, 2 * _SHARED_DRAWS) == want[100:100 + 2 * _SHARED_DRAWS]
        assert sum(map(len, link._harq[3])) <= _SHARED_DRAWS
        assert take(reader(10), 5000) == np.random.default_rng(10).random(5000).tolist()
        assert take(late, 3 * _SHARED_DRAWS) == want
        assert take(reader(9), 3 * _SHARED_DRAWS) == want


# SNRs from zero through subnormal to 1e150: the residual of two of them
# ranges over +-0.0, subnormal and huge values whose squares still have room
# to be summed 60 times without overflow.
SNRS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320, 1e150, -1e150]),
    st.floats(-50.0, 50.0),
    st.floats(-1e150, 1e150),
)


class TestPredictMatchesReference:
    """``LinkTable.predict`` and its residual statistics, computed once per
    table as array code, give the per-delay predictor's estimates and the
    scalar running-sum loop's statistics bit for bit."""

    @staticmethod
    def assert_same(link, delays):
        for delay in delays:
            got = link.predict(delay)
            want = reference_predict(link, delay)
            assert np.array(got).tobytes() == np.array(want).tobytes(), delay

    @staticmethod
    def assert_same_stats(link):
        got = link._residual_stats
        want = reference_residual_stats(link)
        assert len(got) == len(want) == 3
        for name, g, w in zip(("last", "rho", "sigma"), got, want):
            assert g.tobytes() == np.array(w).tobytes(), name

    @staticmethod
    def residual_link(residuals):
        """A table whose step ``t`` has the map SNR ``t`` and the residual
        ``residuals[t]``."""
        map_snr = [float(t) for t in range(len(residuals))]
        return LinkTable([m + r for m, r in zip(map_snr, residuals)], default_mcs_table(), 0.1, map_snr)

    @staticmethod
    def last_rho(residuals):
        model = MapAwarePredictor()
        for r in residuals:
            model.observe(r)
        return min(max(model._sx / model._s2, 0.0), 0.9999)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bundled_corridor(self, bundled_corridor, seed):
        link = sample_link(*bundled_corridor.inputs[:4], seed, bundled_corridor.inputs.bler_target)
        self.assert_same(link, (0, 1, 7, 8, 9, 30, len(link) - 1))

    @pytest.mark.parametrize("seed", range(5))
    def test_bundled_corridor_stats(self, bundled_corridor, seed):
        self.assert_same_stats(sample_link(*bundled_corridor.inputs[:4], seed, bundled_corridor.inputs.bler_target))

    def test_shorter_than_the_sample_minimum(self):
        link = self.residual_link([0.5, -1.25, 2.0, 0.75, -0.5])
        self.assert_same(link, range(5))
        self.assert_same_stats(link)

    @pytest.mark.parametrize("value", [0.0, 1.5])
    def test_zero_variance(self, value):
        link = self.residual_link([value] * 40)
        self.assert_same(link, (0, 1, 7, 8, 9, 39))
        self.assert_same_stats(link)

    def test_rho_clipped_at_zero(self):
        residuals = [(-1.0) ** t * (1.0 + 0.01 * t) for t in range(40)]
        assert self.last_rho(residuals) == 0.0
        link = self.residual_link(residuals)
        self.assert_same(link, (0, 1, 7, 8, 9, 39))
        self.assert_same_stats(link)

    def test_rho_clipped_below_one(self):
        # The lag-1 ratio of a near-constant series is about (k - 1) / k.
        residuals = [1.0 + 1e-6 * t for t in range(12000)]
        assert self.last_rho(residuals) == 0.9999
        link = self.residual_link(residuals)
        self.assert_same(link, (0, 1, 7, 8, 9, 30, 11999))
        self.assert_same_stats(link)

    def test_rho_keeps_negative_zero(self):
        # sx / s2 = -1e-310 / 1e20 underflows to -0.0, which Python's
        # max(-0.0, 0.0) keeps and np.maximum would turn into 0.0.
        residuals = [1e10, -1e-320] + [0.0] * 10
        link = LinkTable(residuals, default_mcs_table(), 0.1, [0.0] * len(residuals))
        rhos = reference_residual_stats(link)[1]
        assert [math.copysign(1.0, rho) for rho in rhos] == [1.0] + [-1.0] * 11
        self.assert_same_stats(link)
        self.assert_same(link, (0, 1, 4, 11, 12))

    @given(steps=st.lists(st.tuples(SNRS, SNRS), min_size=1, max_size=60), delay=st.integers(0, 70))
    @settings(max_examples=300, deadline=None)
    def test_random_series(self, steps, delay):
        link = LinkTable([t for t, _ in steps], default_mcs_table(), 0.1, [m for _, m in steps])
        n = len(link)
        # A delay of n or more has seen no residual: every estimate is the map SNR.
        self.assert_same(link, (delay, n - 1, n, n + 3))
        self.assert_same_stats(link)

    def test_needs_the_map_snr(self):
        with pytest.raises(ValueError, match="map SNR"):
            LinkTable([0.0] * 10, default_mcs_table()).predict(1)

    def test_negative_delay_refused(self):
        link = LinkTable([0.0] * 20, default_mcs_table(), 0.1, [0.0] * 20)
        with pytest.raises(ValueError, match=r"^delay must be >= 0, got -1$"):
            link.predict(-1)


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
