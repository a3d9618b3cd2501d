"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import mean_percent_deviation
from repro.core import (
    ClosedNetwork,
    Station,
    exact_multiserver_mva,
    exact_mva,
    mvasd,
)
from repro.core.convolution import convolution_mva
from repro.interpolate import (
    CubicSpline,
    ServiceDemandModel,
    chebyshev_nodes,
    solve_tridiagonal,
)

# -- strategies ----------------------------------------------------------------

demands_strategy = st.lists(
    st.floats(min_value=0.001, max_value=0.5), min_size=1, max_size=6
)
think_strategy = st.floats(min_value=0.0, max_value=5.0)


def _network(demands, think, servers=None):
    stations = [
        Station(f"s{i}", d, servers=(servers[i] if servers else 1))
        for i, d in enumerate(demands)
    ]
    return ClosedNetwork(stations, think_time=think)


# -- MVA invariants --------------------------------------------------------------


class TestMVAInvariants:
    @given(demands=demands_strategy, think=think_strategy)
    @settings(max_examples=40, deadline=None)
    def test_littles_law_always_holds(self, demands, think):
        r = exact_mva(_network(demands, think), 30)
        assert r.littles_law_residual().max() < 1e-9

    @given(demands=demands_strategy, think=think_strategy)
    @settings(max_examples=40, deadline=None)
    def test_throughput_monotone_and_bounded(self, demands, think):
        net = _network(demands, think)
        r = exact_mva(net, 30)
        assert np.all(np.diff(r.throughput) >= -1e-9)
        assert r.throughput.max() <= 1.0 / max(demands) + 1e-9

    @given(demands=demands_strategy, think=think_strategy)
    @settings(max_examples=40, deadline=None)
    def test_response_time_monotone(self, demands, think):
        r = exact_mva(_network(demands, think), 30)
        assert np.all(np.diff(r.response_time) >= -1e-9)

    @given(
        demands=demands_strategy,
        think=think_strategy,
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_convolution_equals_mva_single_server(self, demands, think, data):
        net = _network(demands, think)
        conv = convolution_mva(net, 20)
        ex = exact_mva(net, 20)
        np.testing.assert_allclose(conv.throughput, ex.throughput, rtol=1e-7)

    @given(
        demands=st.lists(st.floats(min_value=0.01, max_value=0.5), min_size=2, max_size=4),
        think=think_strategy,
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_multiserver_dominates_single_server(self, demands, think, data):
        servers = data.draw(
            st.lists(st.integers(2, 8), min_size=len(demands), max_size=len(demands))
        )
        ms_net = _network(demands, think, servers=servers)
        ss_net = _network(demands, think)
        ms = exact_multiserver_mva(ms_net, 25, station_detail=False)
        ss = exact_mva(ss_net, 25)
        # More servers can never reduce throughput.
        assert np.all(ms.throughput >= ss.throughput - 1e-9)

    @given(demands=demands_strategy, think=think_strategy)
    @settings(max_examples=25, deadline=None)
    def test_mvasd_with_constant_functions_matches_mva(self, demands, think):
        net = _network(demands, think)
        fns = [lambda n, _d=d: _d for d in demands]
        r3 = mvasd(net, 20, demand_functions=fns)
        r1 = exact_mva(net, 20)
        np.testing.assert_allclose(r3.throughput, r1.throughput, rtol=1e-7)


# -- spline invariants ------------------------------------------------------------


knot_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1000.0), min_size=2, max_size=12, unique=True
).map(sorted)


class TestSplineInvariants:
    @given(x=knot_strategy, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_interpolates_knots(self, x, data):
        y = data.draw(
            st.lists(
                st.floats(min_value=-100, max_value=100),
                min_size=len(x),
                max_size=len(x),
            )
        )
        # reject degenerate spacing that stresses conditioning unrealistically
        if np.any(np.diff(x) < 1e-6):
            return
        s = CubicSpline(np.array(x), np.array(y))
        np.testing.assert_allclose(s(np.array(x)), y, rtol=1e-6, atol=1e-6)

    @given(x=knot_strategy, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_clamped_extrapolation_constant(self, x, data):
        y = data.draw(
            st.lists(
                st.floats(min_value=-100, max_value=100),
                min_size=len(x),
                max_size=len(x),
            )
        )
        if np.any(np.diff(x) < 1e-6):
            return
        s = CubicSpline(np.array(x), np.array(y), extrapolation="clamp")
        assert s(x[0] - 10.0) == pytest.approx(y[0], rel=1e-9, abs=1e-9)
        assert s(x[-1] + 10.0) == pytest.approx(y[-1], rel=1e-9, abs=1e-9)

    @given(
        levels=st.lists(
            st.floats(min_value=1, max_value=500), min_size=1, max_size=8, unique=True
        ),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_demand_model_never_negative(self, levels, data):
        demands = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0),
                min_size=len(levels),
                max_size=len(levels),
            )
        )
        if len(levels) > 1 and np.any(np.diff(sorted(levels)) < 1e-6):
            return
        m = ServiceDemandModel(levels, demands)
        q = np.linspace(0, 600, 101)
        assert np.all(m(q) >= 0)


# -- linear algebra / design helpers ------------------------------------------------


class TestSolverAndNodes:
    @given(
        n=st.integers(min_value=1, max_value=30),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_tridiagonal_residual_small(self, n, data):
        diag = np.array(
            data.draw(st.lists(st.floats(3.0, 6.0), min_size=n, max_size=n))
        )
        off = max(n - 1, 0)
        lower = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=off, max_size=off)))
        upper = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=off, max_size=off)))
        rhs = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
        x = solve_tridiagonal(lower, diag, upper, rhs)
        # residual check without building the dense matrix
        res = diag * x
        if n > 1:
            res[1:] += lower * x[:-1]
            res[:-1] += upper * x[1:]
        np.testing.assert_allclose(res, rhs, rtol=1e-8, atol=1e-8)

    @given(
        n=st.integers(min_value=1, max_value=40),
        a=st.floats(min_value=-100, max_value=100),
        width=st.floats(min_value=0.1, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_chebyshev_nodes_sorted_in_open_interval(self, n, a, width):
        b = a + width
        nodes = chebyshev_nodes(n, a, b)
        assert np.all(nodes > a) and np.all(nodes < b)
        assert np.all(np.diff(nodes) > 0)


# -- metric invariants ---------------------------------------------------------------


class TestDeviationInvariants:
    @given(
        measured=st.lists(st.floats(0.1, 100), min_size=1, max_size=20),
        scale=st.floats(0.5, 2.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_uniform_scaling_gives_constant_deviation(self, measured, scale):
        m = np.array(measured)
        dev = mean_percent_deviation(m * scale, m)
        assert dev == pytest.approx(abs(scale - 1) * 100, rel=1e-9, abs=1e-9)

    @given(measured=st.lists(st.floats(0.1, 100), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_zero_for_perfect_prediction(self, measured):
        m = np.array(measured)
        assert mean_percent_deviation(m, m) == 0.0
