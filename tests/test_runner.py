"""Load-test sweeps and demand extraction."""

import numpy as np
import pytest

from repro.loadtest import run_sweep
from repro.loadtest.runner import extract_demands


class TestRunSweep:
    def test_default_levels_from_app(self, mini_sweep):
        np.testing.assert_array_equal(mini_sweep.levels, [1, 5, 10, 20, 35, 50])

    def test_throughput_grows_then_saturates(self, mini_sweep):
        x = mini_sweep.throughput
        assert x[1] > x[0]
        # beyond saturation, growth flattens: last step gains < 20%
        assert x[-1] / x[-2] < 1.2

    def test_cycle_time_nondecreasing_after_knee(self, mini_sweep):
        ct = mini_sweep.cycle_time
        assert ct[-1] > ct[0]

    def test_levels_sorted_and_validated(self, mini_app):
        sweep = run_sweep(mini_app, levels=[10, 1, 5], duration=30.0, seed=0)
        np.testing.assert_array_equal(sweep.levels, [1, 5, 10])
        with pytest.raises(ValueError):
            run_sweep(mini_app, levels=[0, 5], duration=30.0)

    def test_reproducible(self, mini_app):
        a = run_sweep(mini_app, levels=[1, 5], duration=30.0, seed=9)
        b = run_sweep(mini_app, levels=[1, 5], duration=30.0, seed=9)
        np.testing.assert_array_equal(a.throughput, b.throughput)


class TestDemandExtraction:
    def test_extracted_close_to_truth(self, mini_sweep):
        # service-demand law recovers the profile's demands at each level
        app = mini_sweep.application
        for lvl, run in zip(mini_sweep.levels, mini_sweep.runs):
            est = extract_demands(run, app)
            truth = app.true_demands_at(int(lvl))
            # Single-user runs see few completions, so the utilization
            # estimate is noisy there — exactly the real-world situation.
            tol = 0.3 if lvl <= 1 else 0.15
            for name in ("db.disk", "db.cpu", "app.cpu"):
                assert est[name] == pytest.approx(truth[name], rel=tol)

    def test_demand_samples_decrease(self, mini_sweep):
        samples = mini_sweep.demand_samples()
        # measured demands must mirror the decaying profile (first vs last)
        assert samples["db.disk"][-1] < samples["db.disk"][0]

    def test_demand_table_concurrency_axis(self, mini_sweep):
        table = mini_sweep.demand_table()
        assert table.axis == "concurrency"
        truth = mini_sweep.application.true_demands_at(20)
        assert table.demands_at(20.0)["db.disk"] == pytest.approx(
            truth["db.disk"], rel=0.15
        )

    def test_demand_table_throughput_axis(self, mini_sweep):
        table = mini_sweep.demand_table(axis="throughput")
        assert table.axis == "throughput"
        # abscissa are measured throughputs -> interpolation at X works
        x_mid = float(mini_sweep.throughput[2])
        assert table.demands_at(x_mid)["db.disk"] > 0

    def test_demand_table_invalid_axis(self, mini_sweep):
        with pytest.raises(ValueError):
            mini_sweep.demand_table(axis="users")


class TestSubset:
    def test_subset_picks_levels(self, mini_sweep):
        sub = mini_sweep.subset([1, 20, 50])
        np.testing.assert_array_equal(sub.levels, [1, 20, 50])
        assert sub.runs[0] is mini_sweep.runs[0]

    def test_subset_missing_level(self, mini_sweep):
        with pytest.raises(KeyError, match="7"):
            mini_sweep.subset([1, 7])


class TestUtilizationTable:
    def test_rows_per_level(self, mini_sweep):
        rows = mini_sweep.utilization_table()
        assert len(rows) == len(mini_sweep.levels)
        users, by_tier = rows[-1]
        assert users == 50
        assert 0 <= by_tier["db"].cpu <= 100

    def test_bottleneck_saturates_in_table(self, mini_sweep):
        rows = mini_sweep.utilization_table()
        _, by_tier = rows[-1]
        assert by_tier["db"].disk > 85.0
