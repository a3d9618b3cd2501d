"""Algorithm 1 — exact single-server MVA."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClosedNetwork, Station, exact_mva
from repro.core.convolution import convolution_mva


class TestExactMVA:
    def test_single_customer_sees_raw_demands(self, two_station_net):
        r = exact_mva(two_station_net, 1)
        assert r.response_time[0] == pytest.approx(0.13)
        assert r.throughput[0] == pytest.approx(1 / 1.13)

    def test_littles_law_holds_everywhere(self, two_station_net):
        r = exact_mva(two_station_net, 100)
        assert r.littles_law_residual().max() < 1e-12

    def test_throughput_monotone_nondecreasing(self, two_station_net):
        r = exact_mva(two_station_net, 100)
        assert np.all(np.diff(r.throughput) >= -1e-12)

    def test_throughput_respects_bottleneck_bound(self, two_station_net):
        r = exact_mva(two_station_net, 200)
        assert r.throughput.max() <= 1 / 0.08 + 1e-12

    def test_saturation_reached(self, two_station_net):
        r = exact_mva(two_station_net, 500)
        assert r.throughput[-1] == pytest.approx(1 / 0.08, rel=1e-3)

    def test_response_time_monotone(self, two_station_net):
        r = exact_mva(two_station_net, 100)
        assert np.all(np.diff(r.response_time) >= -1e-12)

    def test_balanced_network_closed_form(self):
        # K identical stations, no think time: X(n) = n / ((n + K - 1) D).
        k, d = 3, 0.2
        net = ClosedNetwork([Station(f"s{i}", d) for i in range(k)], think_time=0.0)
        r = exact_mva(net, 50)
        n = r.populations.astype(float)
        np.testing.assert_allclose(r.throughput, n / ((n + k - 1) * d), rtol=1e-12)

    def test_single_station_mm1_closed_form(self):
        # One queue + think time Z is the classical machine-repair model;
        # spot-check against n=2 hand computation.
        net = ClosedNetwork([Station("s", 0.5)], think_time=1.0)
        r = exact_mva(net, 2)
        # n=1: R=0.5, X=1/1.5; Q=0.5/1.5
        # n=2: R=0.5(1+1/3)=2/3, X=2/(1+2/3)=1.2, ...
        assert r.response_time[0] == pytest.approx(0.5)
        assert r.throughput[1] == pytest.approx(2 / (1 + 2 / 3))

    def test_demand_override(self, two_station_net):
        r = exact_mva(two_station_net, 10, demands=[0.5, 0.01])
        assert r.response_time[0] == pytest.approx(0.51)

    def test_demand_override_validation(self, two_station_net):
        with pytest.raises(ValueError, match="expected 2"):
            exact_mva(two_station_net, 10, demands=[0.5])
        with pytest.raises(ValueError, match="non-negative"):
            exact_mva(two_station_net, 10, demands=[-0.1, 0.1])

    def test_varying_network_frozen_at_level(self, varying_net):
        r1 = exact_mva(varying_net, 10, demand_level=1.0)
        r2 = exact_mva(varying_net, 10, demand_level=1000.0)
        # demand at level 1000 is smaller, so throughput must be higher
        assert r2.throughput[-1] > r1.throughput[-1]

    def test_delay_station_adds_constant_residence(self):
        net = ClosedNetwork(
            [Station("cpu", 0.1), Station("lag", 0.5, kind="delay")], think_time=0.0
        )
        r = exact_mva(net, 50)
        # residence at the delay station never grows with population
        lag_col = net.station_names.index("lag")
        np.testing.assert_allclose(r.residence_times[:, lag_col], 0.5)

    def test_zero_population_rejected(self, two_station_net):
        with pytest.raises(ValueError, match="max_population"):
            exact_mva(two_station_net, 0)

    def test_utilization_is_xd(self, two_station_net):
        r = exact_mva(two_station_net, 30)
        np.testing.assert_allclose(
            r.utilizations[:, 0], r.throughput * 0.05, rtol=1e-12
        )

    def test_demands_used_recorded(self, two_station_net):
        r = exact_mva(two_station_net, 5)
        assert r.demands_used.shape == (5, 2)
        np.testing.assert_allclose(r.demands_used, [[0.05, 0.08]] * 5)


class TestConvolutionOracle:
    """Algorithm 1 against an independent exact method.

    ``exact_mva`` and ``batched_exact_mva`` run one recursion, so their
    parity no longer checks the algorithm.  Buzen's log-domain
    convolution computes the same product-form solution through
    normalizing constants instead of the arrival theorem.
    """

    @given(
        stations=st.lists(
            st.tuples(st.floats(0.001, 0.5), st.booleans()), min_size=1, max_size=6
        ),
        think=st.floats(0.0, 5.0),
        n=st.integers(1, 120),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_mva_equals_convolution(self, stations, think, n):
        net = ClosedNetwork(
            [
                Station(f"s{i}", d, kind="delay" if delay else "queue")
                for i, (d, delay) in enumerate(stations)
            ],
            think_time=think,
        )
        if all(delay for _, delay in stations) and think == 0.0:
            think = 1.0  # an all-delay network with Z = 0 has no cycle time
            net = net.with_think_time(think)
        ex = exact_mva(net, n)
        conv = convolution_mva(net, n)
        for field in ("throughput", "response_time", "queue_lengths",
                      "residence_times", "utilizations"):
            got, want = getattr(ex, field), getattr(conv, field)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10, err_msg=field)
