"""Regression-based demand inference."""

import numpy as np
import pytest

from repro.loadtest.inference import (
    regress_demands,
    windowed_observations,
)


class TestRegressDemands:
    def _observations(self, demand=0.02, idle=0.05, noise=0.0, n=30, seed=0):
        rng = np.random.default_rng(seed)
        x = np.linspace(5, 40, n)
        u = idle + demand * x + rng.normal(0, noise, n)
        return x, u

    def test_recovers_slope_and_intercept(self):
        x, u = self._observations()
        est = regress_demands(x, {"disk": u})["disk"]
        assert est.demand == pytest.approx(0.02, rel=1e-6)
        assert est.idle_util == pytest.approx(0.05, rel=1e-6)
        assert est.r_squared == pytest.approx(1.0)

    def test_noisy_data_wider_confidence(self):
        x, u_clean = self._observations(noise=1e-4)
        _, u_noisy = self._observations(noise=5e-3)
        clean = regress_demands(x, {"disk": u_clean})["disk"]
        noisy = regress_demands(x, {"disk": u_noisy})["disk"]
        assert noisy.stderr > clean.stderr
        lo, hi = noisy.confidence_95
        assert lo < 0.02 < hi

    def test_idle_utilization_separated_from_demand(self):
        # The raw service-demand law D = U/X is biased upward by the idle
        # component; regression removes it.
        x, u = self._observations(demand=0.02, idle=0.10)
        raw = (u / x).mean()
        est = regress_demands(x, {"disk": u})["disk"]
        assert raw > 0.022  # biased
        assert est.demand == pytest.approx(0.02, rel=1e-6)

    def test_server_scaling(self):
        x, u = self._observations(demand=0.004)  # per-server slope
        est = regress_demands(x, {"cpu": u}, servers={"cpu": 16})["cpu"]
        assert est.demand == pytest.approx(0.064, rel=1e-6)

    def test_negative_slope_clipped(self):
        x = np.linspace(5, 40, 20)
        u = 0.5 - 0.001 * x
        est = regress_demands(x, {"odd": u})["odd"]
        assert est.demand == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            regress_demands([1.0, 2.0], {"a": [0.1, 0.2]})
        with pytest.raises(ValueError, match="vary"):
            regress_demands([1.0, 1.0, 1.0], {"a": [0.1, 0.2, 0.3]})
        with pytest.raises(ValueError, match="observations"):
            regress_demands([1.0, 2.0, 3.0], {"a": [0.1, 0.2]})

    def test_summary_text(self):
        x, u = self._observations()
        text = regress_demands(x, {"disk": u})["disk"].summary()
        assert "disk" in text and "R^2" in text


class TestWindowedObservations:
    def test_single_run_inference(self, mini_app):
        # Demand estimation from ONE load test: window it, regress.
        from repro.loadtest import LoadTest

        run = LoadTest(mini_app).fire(virtual_users=20, seed=3, duration=120.0)
        x, utils = windowed_observations(run.simulation, window=5.0)
        assert x.size >= 10
        servers = {st.name: st.servers for st in mini_app.network.stations}
        est = regress_demands(x, utils, servers=servers)
        truth = mini_app.true_demands_at(20)
        assert est["db.disk"].demand == pytest.approx(truth["db.disk"], rel=0.2)

    def test_validation(self, mini_app):
        from repro.loadtest import LoadTest

        run = LoadTest(mini_app).fire(virtual_users=5, seed=0, duration=40.0)
        with pytest.raises(ValueError, match="window"):
            windowed_observations(run.simulation, window=0.0)
