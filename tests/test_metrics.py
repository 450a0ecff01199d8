"""KPI arithmetic: completion time, tail statistics, tracking failure rate."""

import math

import numpy as np
import pytest

from r2xsim.metrics import (
    KpiRecord,
    completion_time,
    run_summary,
    tail_stats,
    utfr,
)
from r2xsim.planner import SpaceTimePath


def path(rid, n_steps):
    cells = tuple((x, 0) for x in range(n_steps + 1))
    return SpaceTimePath(rid, cells)


class TestCompletionTime:
    def test_single_robot(self):
        assert completion_time([path(1, 5)], {}, 1.4) == pytest.approx(7.0)

    def test_halt_seconds_added_per_robot(self):
        paths = [path(1, 5), path(2, 3)]
        out = completion_time(paths, {2: 4.0}, 1.4)
        assert out == pytest.approx(8.2)  # 3*1.4 + 4.0 beats 5*1.4

    def test_validation(self):
        with pytest.raises(ValueError):
            completion_time([], {}, 1.0)
        with pytest.raises(ValueError):
            completion_time([path(1, 1)], {}, 0.0)


class TestTailStats:
    def test_single_sample(self):
        assert tail_stats([4.2]) == (4.2, 0.0, 4.2)

    def test_known_values(self):
        vals = list(range(1, 21))
        mean, std, p95 = tail_stats(vals)
        assert mean == pytest.approx(10.5)
        assert std == pytest.approx(np.std(vals, ddof=1))
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


class TestKpiRecord:
    def test_metrics_without_rtt(self):
        rec = KpiRecord(completion_time_s=9.8, stop_events=2, halt_s=2.8)
        out = rec.as_metrics()
        assert out == {"completion_time_s": 9.8, "stop_events": 2.0, "halt_s": 2.8}

    def test_metrics_with_rtt(self):
        rec = KpiRecord(1.0, 0, 0.0, rtt_samples_s=[0.2, 0.4, 0.3])
        out = rec.as_metrics()
        assert out["rtt_mean_s"] == pytest.approx(0.3)
        assert out["rtt_p95_s"] == 0.4


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
