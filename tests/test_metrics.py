"""KPI arithmetic: tail statistics, tracking failure rate, run summaries."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_run_summary, reference_utfr

from r2xsim.metrics import run_summary, tail_stats, utfr


class TestTailStats:
    def test_single_sample(self):
        assert tail_stats([4.2]) == (4.2, 4.2)

    def test_known_values(self):
        mean, p95 = tail_stats(list(range(1, 21)))
        assert mean == pytest.approx(10.5)
        assert p95 == 19  # ceil(0.95 * 20) = 19th order statistic

    def test_nearest_rank_small_n(self):
        assert tail_stats([0.0, 1.0, 2.0, 3.0, 4.0]).p95 == 4.0
        assert tail_stats([3.0, 1.0]).p95 == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tail_stats([])


class TestUtfr:
    def test_no_arrivals_loses_almost_everything(self):
        assert utfr([], 100, 3) == pytest.approx(97.0)

    def test_dense_arrivals_lose_nothing(self):
        assert utfr(list(range(1, 101)), 100, 3) == 0.0

    def test_hand_computed_gaps(self):
        # gaps 10, 10, 80 -> charged 7 + 7 + 77 = 91
        assert utfr([10, 20], 100, 3) == pytest.approx(91.0)

    def test_gap_equal_to_threshold_is_free(self):
        assert utfr([0, 3, 100], 100, 3) == pytest.approx(94.0)
        assert utfr([0, 3], 3, 3) == pytest.approx(0.0)
        assert utfr([0], 4, 3) == pytest.approx(25.0)  # gap 4 charges 1 step

    def test_zero_threshold_charges_all_gaps(self):
        assert utfr([2], 4, 0) == pytest.approx(100.0)

    def test_order_independent(self):
        assert utfr([20, 10], 100, 3) == utfr([10, 20], 100, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            utfr([1], 0, 3)
        with pytest.raises(ValueError):
            utfr([1], 10, -1)
        with pytest.raises(ValueError):
            utfr([-1], 10, 3)
        with pytest.raises(ValueError):
            utfr([11], 10, 3)


def utfr_outcome(fn, arrivals, total_steps, threshold):
    """``fn``'s value, or the message of the ValueError it raises."""
    try:
        return fn(arrivals, total_steps, threshold)
    except ValueError as exc:
        return str(exc)


class TestUtfrMatchesReference:
    """The one-pass ``utfr`` gives the three-pass reference's value, or its
    error message, on the same input."""

    @pytest.mark.parametrize(
        "arrivals,total_steps,threshold",
        [
            ([], 1, 0),
            ([], 50, 3),
            ([0], 1, 0),
            ([1], 1, 0),
            ([0, 0, 50, 50], 50, 3),
            ([7, 2, 2, 9, 0], 10, 0),
            ([3, -1, -4, 12, 11], 10, 3),
            ([3, 12, 11, 10], 10, 3),
            ([1], 0, 3),
            ([1], 10, -1),
        ],
    )
    def test_edge_cases(self, arrivals, total_steps, threshold):
        want = utfr_outcome(reference_utfr, arrivals, total_steps, threshold)
        assert utfr_outcome(utfr, arrivals, total_steps, threshold) == want

    def test_seeded_inputs(self):
        """Unsorted arrivals with duplicates, the ends 0 and ``total_steps``
        and, in one input in four, steps outside the range."""
        rng = np.random.default_rng(26)
        errors = 0
        for _ in range(3000):
            total = int(rng.integers(1, 80))
            arrivals = rng.integers(0, total + 1, int(rng.integers(0, 2 * total))).tolist()
            arrivals += rng.choice([0, total], int(rng.integers(0, 3))).tolist()
            if rng.random() < 0.25:
                arrivals += rng.integers(-3, total + 4, 2).tolist()
            rng.shuffle(arrivals)
            threshold = int(rng.integers(0, 6))
            want = utfr_outcome(reference_utfr, arrivals, total, threshold)
            assert utfr_outcome(utfr, arrivals, total, threshold) == want
            assert utfr_outcome(utfr, np.array(arrivals, dtype=np.int64), total, threshold) == want
            errors += isinstance(want, str)
        assert 100 < errors < 1000


class TestRunSummary:
    def records(self):
        out = []
        for seed, v in enumerate([1.0, 2.0, 3.0, 4.0]):
            out.append(
                {
                    "scenario_id": "s",
                    "method": "a",
                    "seed": seed,
                    "metrics": {"time": v, "ok": True, "note": "text"},
                }
            )
        out.append({"scenario_id": "s", "method": "b", "seed": 0, "metrics": {"time": 9.0}})
        return out

    def test_median_iqr_n(self):
        rows = run_summary(self.records())
        assert [(r["method"], r["metric"]) for r in rows] == [("a", "time"), ("b", "time")]
        a = rows[0]
        assert a["median"] == pytest.approx(2.5)
        assert a["iqr"] == pytest.approx(1.5)
        assert a["n"] == 4

    def test_non_numeric_metrics_dropped(self):
        rows = run_summary(self.records())
        assert all(r["metric"] == "time" for r in rows)

    def test_rows_sorted(self):
        recs = [
            {"scenario_id": "z", "method": "m", "seed": 0, "metrics": {"b": 1.0, "a": 2.0}},
            {"scenario_id": "a", "method": "m", "seed": 0, "metrics": {"x": 1.0}},
        ]
        rows = run_summary(recs)
        keys = [(r["scenario_id"], r["method"], r["metric"]) for r in rows]
        assert keys == sorted(keys)


# Finite values the summary must carry bit for bit: signed zeros,
# subnormals, ordinary magnitudes and magnitudes near 1e300, whose
# interpolation and differences stay finite.
SUMMARY_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300, allow_nan=False, allow_infinity=False),
    st.integers(min_value=-10**6, max_value=10**6),
)


@st.composite
def summary_records(draw):
    """Records of a few (scenario, method) pairs over 1-25 seeds; a metric
    is missing from the records where its drawn value is None."""
    out = []
    for scenario_id in draw(st.lists(st.sampled_from("ab"), min_size=1, max_size=2, unique=True)):
        for method in draw(st.lists(st.sampled_from(["m1", "m2", "m3"]), min_size=1, max_size=3, unique=True)):
            n = draw(st.integers(1, 25))
            columns = {
                name: draw(st.lists(st.none() | SUMMARY_VALUES, min_size=n, max_size=n))
                for name in draw(st.lists(st.sampled_from(["x", "y", "z"]), max_size=3, unique=True))
            }
            for seed in range(n):
                metrics = {name: col[seed] for name, col in columns.items() if col[seed] is not None}
                out.append({"scenario_id": scenario_id, "method": method, "seed": seed, "metrics": metrics})
    return out


def ieee(row):
    return {**row, "median": struct.pack("<d", row["median"]), "iqr": struct.pack("<d", row["iqr"])}


class TestRunSummaryBatched:
    @settings(max_examples=200, deadline=None)
    @given(summary_records())
    def test_matches_per_row_calls_bit_for_bit(self, records):
        """Summarizing the rows of one value count together gives each
        row's median and IQR of the per-row calls, as IEEE bytes, and the
        rows in the same order."""
        assert list(map(ieee, run_summary(records))) == list(map(ieee, reference_run_summary(records)))

    def test_groups_of_different_sizes_keep_their_order(self):
        recs = [
            {"scenario_id": "s", "method": "a", "seed": s, "metrics": {"x": float(s), **({"y": -0.0} if s else {})}}
            for s in range(3)
        ]
        rows = run_summary(recs)
        assert [(r["metric"], r["n"]) for r in rows] == [("x", 3), ("y", 2)]
        assert list(map(ieee, rows)) == list(map(ieee, reference_run_summary(recs)))
