"""Approximate MVA baselines (Schweitzer, Seidmann)."""

import numpy as np
import pytest

from repro.core import (
    approximate_multiserver_mva,
    exact_multiserver_mva,
    exact_mva,
    schweitzer_amva,
    seidmann_transform,
)


class TestSchweitzer:
    def test_close_to_exact_single_server(self, two_station_net):
        ap = schweitzer_amva(two_station_net, 100)
        ex = exact_mva(two_station_net, 100)
        rel = np.abs(ap.throughput - ex.throughput) / ex.throughput
        assert rel.max() < 0.05

    def test_exact_at_n1(self, two_station_net):
        ap = schweitzer_amva(two_station_net, 1)
        assert ap.throughput[0] == pytest.approx(1 / 1.13, rel=1e-8)

    def test_littles_law(self, two_station_net):
        ap = schweitzer_amva(two_station_net, 60)
        assert ap.littles_law_residual().max() < 1e-8

    def test_same_asymptote_as_exact(self, two_station_net):
        ap = schweitzer_amva(two_station_net, 600)
        assert ap.throughput[-1] == pytest.approx(1 / 0.08, rel=1e-2)

    def test_rejects_bad_population(self, two_station_net):
        with pytest.raises(ValueError):
            schweitzer_amva(two_station_net, 0)


class TestSeidmannTransform:
    def test_splits_multiserver_station(self, multiserver_net):
        t = seidmann_transform(multiserver_net)
        names = t.station_names
        assert "cpu" in names and "cpu.seidmann-delay" in names
        assert t["cpu"].servers == 1
        assert t["cpu"].demand == pytest.approx(0.1)
        assert t["cpu.seidmann-delay"].kind == "delay"
        assert t["cpu.seidmann-delay"].demand == pytest.approx(0.3)

    def test_leaves_single_server_untouched(self, two_station_net):
        t = seidmann_transform(two_station_net)
        assert t.station_names == two_station_net.station_names

    def test_preserves_total_demand(self, multiserver_net):
        t = seidmann_transform(multiserver_net)
        assert t.demands_at(1).sum() == pytest.approx(
            multiserver_net.demands_at(1).sum()
        )

    def test_wraps_callable_demands(self, varying_net):
        t = seidmann_transform(varying_net)
        # demand at n: 0.25 + 0.15 exp(-n/50); queue part is /4
        expected = (0.25 + 0.15 * np.exp(-10 / 50.0)) / 4
        assert t["cpu"].demand_at(10) == pytest.approx(expected, rel=1e-9)


class TestApproximateMultiserver:
    def test_correct_limits(self, multiserver_net):
        ap = approximate_multiserver_mva(multiserver_net, 400)
        # n=1: full demand; saturation: C/D.
        assert ap.response_time[0] == pytest.approx(0.45, rel=1e-6)
        assert ap.throughput[-1] == pytest.approx(10.0, rel=1e-2)

    def test_within_few_percent_of_exact_midrange(self, multiserver_net):
        ap = approximate_multiserver_mva(multiserver_net, 100)
        ex = exact_multiserver_mva(multiserver_net, 100)
        rel = np.abs(ap.throughput - ex.throughput) / ex.throughput
        assert rel.max() < 0.08

    def test_is_not_exact(self, manycore_net):
        # It is an approximation: visible error somewhere in the transition.
        ap = approximate_multiserver_mva(manycore_net, 200)
        ex = exact_multiserver_mva(manycore_net, 200)
        rel = np.abs(ap.throughput - ex.throughput) / ex.throughput
        assert rel.max() > 0.005

    def test_reports_original_station_names(self, multiserver_net):
        ap = approximate_multiserver_mva(multiserver_net, 20)
        assert ap.station_names == multiserver_net.station_names

    def test_folds_delay_back_into_parent(self, multiserver_net):
        ap = approximate_multiserver_mva(multiserver_net, 20)
        # CPU residence must include the Seidmann delay share: >= D at n=1.
        cpu_col = 0
        assert ap.residence_times[0, cpu_col] == pytest.approx(0.4, rel=1e-6)

    def test_demand_override(self, multiserver_net):
        ap = approximate_multiserver_mva(multiserver_net, 10, demands=[0.8, 0.05])
        assert ap.response_time[0] == pytest.approx(0.85, rel=1e-6)
