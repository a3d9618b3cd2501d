"""Eq. 15 deviation metric and sweep scoring."""

import pytest

from repro.analysis import deviation_against_sweep, mean_percent_deviation
from repro.core import mvasd


class TestMeanPercentDeviation:
    def test_exact_match_is_zero(self):
        assert mean_percent_deviation([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_computed(self):
        # |1.1-1|/1 = 10%, |1.8-2|/2 = 10% -> mean 10%
        assert mean_percent_deviation([1.1, 1.8], [1.0, 2.0]) == pytest.approx(10.0)

    def test_symmetric_in_sign_of_error(self):
        a = mean_percent_deviation([1.1], [1.0])
        b = mean_percent_deviation([0.9], [1.0])
        assert a == pytest.approx(b)

    def test_scale_invariant(self):
        d1 = mean_percent_deviation([1.1, 2.2], [1.0, 2.0])
        d2 = mean_percent_deviation([110, 220], [100, 200])
        assert d1 == pytest.approx(d2)

    def test_validation(self):
        with pytest.raises(ValueError, match="equal-length"):
            mean_percent_deviation([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="positive"):
            mean_percent_deviation([1.0], [0.0])
        with pytest.raises(ValueError, match="equal-length"):
            mean_percent_deviation([], [])


class TestDeviationAgainstSweep:
    def test_mvasd_scores_well_on_mini_app(self, mini_sweep):
        table = mini_sweep.demand_table()
        result = mvasd(
            mini_sweep.application.network, 50, demand_functions=table.functions()
        )
        report = deviation_against_sweep(result, mini_sweep)
        assert report["throughput"] < 8.0
        assert report["cycle_time"] < 8.0

    def test_explicit_levels(self, mini_sweep):
        table = mini_sweep.demand_table()
        result = mvasd(
            mini_sweep.application.network, 50, demand_functions=table.functions()
        )
        r_all = deviation_against_sweep(result, mini_sweep)
        r_some = deviation_against_sweep(result, mini_sweep, levels=[10, 35])
        assert set(r_some) == set(r_all)

    def test_levels_beyond_result_rejected(self, mini_sweep):
        table = mini_sweep.demand_table()
        result = mvasd(
            mini_sweep.application.network, 20, demand_functions=table.functions()
        )
        with pytest.raises(ValueError, match="only covers"):
            deviation_against_sweep(result, mini_sweep, levels=[35])

    def test_utilization_stations(self, mini_sweep):
        table = mini_sweep.demand_table()
        result = mvasd(
            mini_sweep.application.network, 50, demand_functions=table.functions()
        )
        report = deviation_against_sweep(
            result, mini_sweep, stations_for_utilization=["db.disk"]
        )
        assert "utilization:db.disk" in report
        assert report["utilization:db.disk"] < 15.0

    def test_rows_order(self, mini_sweep):
        table = mini_sweep.demand_table()
        result = mvasd(
            mini_sweep.application.network, 50, demand_functions=table.functions()
        )
        report = deviation_against_sweep(result, mini_sweep)
        keys = [k for k, _ in report.rows()]
        assert keys[0] == "throughput"
        assert keys[1] == "cycle_time"
