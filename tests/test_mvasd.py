"""Algorithm 3 — MVASD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ClosedNetwork,
    Station,
    exact_load_dependent_mva,
    exact_multiserver_mva,
    mvasd,
)
from repro.core.mvasd import precompute_demand_matrix
from repro.engine import native
from repro.engine.batched import _batched_mvasd_numpy, _batched_mvasd_throughput, _mvasd_levels
from repro.interpolate import ServiceDemandModel
from repro.solvers import Scenario, solve_stack
from tests.fixtures.mvasd_compat import assert_same_result

TRAJECTORIES = ("throughput", "response_time", "queue_lengths", "residence_times", "utilizations")


class TestMVASDBasics:
    def test_rejects_bad_population_and_axis(self, multiserver_net):
        for axis in ("population", "throughput"):
            with pytest.raises(ValueError, match="max_population must be >= 1"):
                mvasd(multiserver_net, 0, demand_axis=axis)
        with pytest.raises(ValueError, match="demand_axis must be"):
            mvasd(multiserver_net, 5, demand_axis="users")

    def test_constant_demands_reduce_to_algorithm2(self, multiserver_net):
        r3 = mvasd(multiserver_net, 150)
        r2 = exact_multiserver_mva(multiserver_net, 150, method="recursion")
        np.testing.assert_allclose(r3.throughput, r2.throughput, rtol=1e-9)

    def test_demands_used_follow_the_curve(self, varying_net):
        r = mvasd(varying_net, 100)
        cpu_col = varying_net.station_names.index("cpu")
        used = r.demands_used[:, cpu_col]
        expected = 0.25 + 0.15 * np.exp(-r.populations / 50.0)
        np.testing.assert_allclose(used, expected, rtol=1e-9)

    def test_decreasing_demand_raises_ceiling(self, varying_net):
        frozen_at_1 = exact_multiserver_mva(varying_net, 300, demand_level=1.0)
        adaptive = mvasd(varying_net, 300)
        # With demand decaying toward 0.25, the adaptive model must exceed
        # the frozen-at-1 model's saturation throughput (4/0.4 = 10/s).
        assert adaptive.throughput[-1] > frozen_at_1.throughput[-1]
        assert adaptive.throughput[-1] == pytest.approx(4 / 0.25, rel=0.02)

    def test_littles_law(self, varying_net):
        r = mvasd(varying_net, 100)
        assert r.littles_law_residual().max() < 1e-12

    def test_explicit_demand_functions_mapping(self, multiserver_net):
        fns = {"cpu": lambda n: 0.4, "disk": lambda n: 0.05}
        r = mvasd(multiserver_net, 20, demand_functions=fns)
        assert r.response_time[0] == pytest.approx(0.45)

    def test_missing_function_rejected(self, multiserver_net):
        with pytest.raises(ValueError, match="missing demand functions"):
            mvasd(multiserver_net, 10, demand_functions={"cpu": lambda n: 0.4})

    def test_sequence_demand_functions(self, multiserver_net):
        r = mvasd(multiserver_net, 10, demand_functions=[lambda n: 0.4, lambda n: 0.05])
        assert r.response_time[0] == pytest.approx(0.45)

    def test_wrong_length_sequence_rejected(self, multiserver_net):
        with pytest.raises(ValueError, match="expected 2"):
            mvasd(multiserver_net, 10, demand_functions=[lambda n: 0.4])

    def test_negative_interpolated_demand_rejected(self, multiserver_net):
        fns = {"cpu": lambda n: -0.1, "disk": lambda n: 0.05}
        with pytest.raises(ValueError, match="negative"):
            mvasd(multiserver_net, 5, demand_functions=fns)

    def test_spline_model_plugs_in(self, multiserver_net):
        model = ServiceDemandModel([1, 10, 50], [0.5, 0.4, 0.3])
        fns = {"cpu": model, "disk": lambda n: 0.05}
        r = mvasd(multiserver_net, 60, demand_functions=fns)
        cpu_col = 0
        assert r.demands_used[0, cpu_col] == pytest.approx(0.5, rel=1e-6)
        # Past the last sample the eq. 14 clamp holds the plateau.
        assert r.demands_used[-1, cpu_col] == pytest.approx(0.3, rel=1e-6)

    def test_invalid_axis(self, multiserver_net):
        with pytest.raises(ValueError, match="demand_axis"):
            mvasd(multiserver_net, 5, demand_axis="users")


class TestSingleServerVariant:
    def test_solver_name(self, varying_net):
        assert mvasd(varying_net, 10, single_server=True).solver == "mvasd-single-server"

    def test_underestimates_contention_vs_multiserver(self, varying_net):
        ss = mvasd(varying_net, 60, single_server=True)
        ms = mvasd(varying_net, 60)
        # Normalized single-server sees less queueing at light-mid load.
        assert ss.throughput[10] >= ms.throughput[10]

    def test_same_saturation_limit(self, varying_net):
        ss = mvasd(varying_net, 400, single_server=True)
        ms = mvasd(varying_net, 400)
        assert ss.throughput[-1] == pytest.approx(ms.throughput[-1], rel=0.02)

    def test_no_marginals_recorded(self, varying_net):
        assert mvasd(varying_net, 10, single_server=True).marginal_probabilities is None


class TestThroughputAxis:
    def test_constant_curves_match_population_axis(self, multiserver_net):
        fns = {"cpu": lambda x: 0.4, "disk": lambda x: 0.05}
        pop = mvasd(multiserver_net, 80, demand_functions=fns)
        thr = mvasd(multiserver_net, 80, demand_functions=fns, demand_axis="throughput")
        np.testing.assert_allclose(pop.throughput, thr.throughput, rtol=1e-6)

    def test_fixed_point_consistency(self, multiserver_net):
        # demand defined on throughput axis: d(X) = 0.25 + 0.15 exp(-X/5)
        fns = {
            "cpu": lambda x: 0.25 + 0.15 * np.exp(-x / 5.0),
            "disk": lambda x: 0.05,
        }
        r = mvasd(multiserver_net, 100, demand_functions=fns, demand_axis="throughput")
        # The demand the solver used must equal the curve at the solved X.
        cpu_used = r.demands_used[:, 0]
        expected = 0.25 + 0.15 * np.exp(-r.throughput / 5.0)
        np.testing.assert_allclose(cpu_used, expected, rtol=1e-6)

    def test_solver_name(self, multiserver_net):
        fns = {"cpu": lambda x: 0.4, "disk": lambda x: 0.05}
        r = mvasd(multiserver_net, 5, demand_functions=fns, demand_axis="throughput")
        assert r.solver == "mvasd-throughput"

    @pytest.mark.parametrize("bad, message", [
        (float("nan"), "mvasd: non-finite interpolated demand at level"),
        (-0.01, "negative interpolated demand at level"),
    ])
    def test_bad_demand_refused(self, multiserver_net, bad, message):
        # Valid until the fixed point first reaches X > 2.
        fns = {"cpu": lambda x: 0.4 if x <= 2.0 else bad, "disk": lambda x: 0.05}
        with pytest.raises(ValueError, match=message):
            mvasd(multiserver_net, 40, demand_functions=fns, demand_axis="throughput")

    @staticmethod
    def _stack():
        """Scenarios whose CPU curves differ, so their fixed points do too."""
        nets = [
            ClosedNetwork(
                [
                    Station("cpu", lambda x, a=a: 0.25 + a * np.exp(-x / 5.0), servers=4),
                    Station("lan", 0.01, kind="delay"),
                    Station("disk", 0.05),
                ],
                think_time=1.0,
            )
            for a in (0.05, 0.15, 0.3)
        ]
        return [Scenario(net, 60, think_time=z) for net, z in zip(nets, (0.5, 1.0, 2.0))]

    @pytest.mark.parametrize("single_server", [False, True])
    @pytest.mark.parametrize("backend", ["serial", "batched", "process-sharded", "resilient"])
    def test_stack_rows_are_the_scalar_solves(self, backend, single_server):
        stack = self._stack()
        got = solve_stack(
            stack, method="mvasd", backend=backend, workers=2, cache=None,
            demand_axis="throughput", single_server=single_server,
        )
        label = "mvasd-single-server-throughput" if single_server else "mvasd-throughput"
        assert got.solver == ("stacked-" if backend == "serial" else "batched-") + label
        for i, sc in enumerate(stack):
            want = mvasd(
                sc.resolved_network(), sc.max_population, single_server=single_server,
                demand_axis="throughput",
            )
            for field in (*TRAJECTORIES, "demands_used"):
                assert np.array_equal(getattr(got, field)[i], getattr(want, field)), field

    def test_masked_rows_are_never_evaluated(self):
        def poisoned(x):
            raise AssertionError("a masked row was evaluated")

        stack = self._stack()
        net = stack[0].resolved_network()
        fns = [sc.demand_fns() for sc in stack]
        think = [sc.think for sc in stack]
        full = _batched_mvasd_throughput(net, 60, fns, think_times=think)
        fns[1] = [poisoned] * 3
        masked = _batched_mvasd_throughput(
            net, 60, fns, think_times=think, mask=[True, False, True]
        )
        assert masked.solver == "batched-mvasd-throughput"
        for field in (*TRAJECTORIES, "demands_used"):
            arr = getattr(masked, field)
            assert np.isnan(arr[1]).all(), field
            assert np.array_equal(arr[[0, 2]], getattr(full, field)[[0, 2]]), field


class TestMultiServerDelay:
    """A delay station ignores ``C``: ``servers=4`` solves like ``servers=1``."""

    @staticmethod
    def _net(servers):
        return ClosedNetwork(
            [
                Station("web", 0.04, servers=4),
                Station("t", 0.5, servers=servers, kind="delay"),
                Station("db", 0.02),
            ],
            think_time=1.0,
        )

    @pytest.mark.parametrize(
        "solve",
        [
            lambda net: mvasd(net, 80),
            lambda net: mvasd(net, 80, demand_axis="throughput"),
            lambda net: exact_multiserver_mva(net, 80, method="recursion"),
        ],
        ids=["mvasd", "mvasd-throughput", "recursion"],
    )
    def test_solves_like_a_single_server_delay(self, solve):
        four, one = solve(self._net(4)), solve(self._net(1))
        for field in ("throughput", "response_time", "queue_lengths", "residence_times"):
            assert np.array_equal(getattr(four, field), getattr(one, field)), field
        assert np.array_equal(four.demands_used, one.demands_used)
        # Utilization is per server, X D / C, at every station kind.
        assert np.array_equal(four.utilizations[:, [0, 2]], one.utilizations[:, [0, 2]])
        assert np.array_equal(four.utilizations[:, 1] * 4, one.utilizations[:, 1])
        assert sorted(four.marginal_probabilities) == ["web"]
        assert np.array_equal(
            four.marginal_probabilities["web"], one.marginal_probabilities["web"]
        )


# -- one population recursion: scalar mvasd is the batched kernel at S=1 -----


@st.composite
def varying_networks(draw):
    """K in 1..5 stations (some delays, any kind multi-server) and one
    demand curve per station: constant, decaying or rising in ``n``."""
    k = draw(st.integers(min_value=1, max_value=5))
    stations, fns = [], []
    for i in range(k):
        kind = draw(st.sampled_from(["queue", "queue", "delay"])) if i else "queue"
        servers = draw(st.sampled_from([1, 2, 3, 4, 8, 16]))
        base = draw(st.floats(min_value=1e-3, max_value=0.2))
        shape = draw(st.sampled_from(["constant", "decay", "rise"]))
        rate = draw(st.floats(min_value=0.1, max_value=0.9))
        tau = draw(st.floats(min_value=5.0, max_value=200.0))
        if shape == "constant":
            fns.append(lambda n, b=base: b + 0.0 * np.asarray(n, dtype=float))
        elif shape == "decay":
            fns.append(
                lambda n, b=base, r=rate, t=tau: b * (1 - r + r * np.exp(-np.asarray(n) / t))
            )
        else:
            fns.append(lambda n, b=base, r=rate, t=tau: b * (1 + r * np.tanh(np.asarray(n) / t)))
        stations.append(Station(f"s{i}", base, servers=servers, kind=kind))
    think = draw(st.floats(min_value=0.0, max_value=2.0))
    return ClosedNetwork(stations, think_time=think), fns


def _solve_pair(net, fns, n, split, single_server):
    full = mvasd(net, n, demand_functions=fns, single_server=single_server)
    prev = mvasd(net, split, demand_functions=fns, single_server=single_server)
    resumed = mvasd(net, n, demand_functions=fns, single_server=single_server, resume_from=prev)
    return full, resumed


@given(
    case=varying_networks(),
    n=st.integers(min_value=2, max_value=400),
    split=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    single_server=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_scalar_mvasd_is_the_batched_recursion_at_s1(case, n, split, single_server):
    """Bit identity of every population-axis path, on both kernels.

    ``mvasd`` equals the NumPy batched reference at ``S = 1``; a solve
    resumed from ``L < N`` equals the full solve in every field; and both
    hold with the compiled kernel and with the NumPy fallback.
    """
    net, fns = case
    level = 1 + int(split * (n - 1))
    full, resumed = _solve_pair(net, fns, n, level, single_server)
    ref = _batched_mvasd_numpy(
        net, n, precompute_demand_matrix(fns, n), single_server=single_server
    )
    for field in TRAJECTORIES:
        assert np.array_equal(getattr(full, field), getattr(ref, field)[0]), field
    assert np.array_equal(full.demands_used, ref.demands_used[0])
    assert_same_result(resumed, full)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "_kernel", None)
        numpy_full, numpy_resumed = _solve_pair(net, fns, n, level, single_server)
    assert_same_result(numpy_full, full)
    assert_same_result(numpy_resumed, full)


@given(
    case=varying_networks(),
    fill=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_multiserver_mvasd_matches_load_dependent_mva(case, fill):
    """At constant demands MVASD is ld-MVA with rates ``min(j, C) / D``.

    Both recursions close ``p(0 | n)`` by a cancellation (module docstring
    of ``repro.core.multiserver``); ld-MVA does not renormalize, so past
    about half load per server on a multi-server queue the two drift
    apart.  The population is therefore drawn up to the largest ``N`` at
    which the bound ``X(n) <= n / (Z + sum D)`` keeps every multi-server
    queue at most half busy per server (and at most 400).
    """
    net, _ = case
    demands = net.demands_at(1.0)
    stations = net.stations
    cycle = net.think_time + float(demands.sum())
    n_max = min(
        [400]
        + [
            int(0.5 * st_.servers * cycle / d)
            for st_, d in zip(stations, demands)
            if st_.kind == "queue" and st_.servers > 1
        ]
    )
    n = max(1, int(round(fill * n_max)))
    tables = {
        st_.name: np.minimum(np.arange(1, n + 1), st_.servers) / d
        for st_, d in zip(stations, demands)
        if st_.kind == "queue"
    }
    got = mvasd(net, n)
    want = exact_load_dependent_mva(net, n, rate_tables=tables)
    for field in ("throughput", "response_time", "queue_lengths", "utilizations"):
        np.testing.assert_allclose(getattr(got, field), getattr(want, field), rtol=0, atol=1e-10)


class TestDeepResume:
    """Resuming far from the empty network hands the kernel a full state."""

    @staticmethod
    def _net():
        return ClosedNetwork(
            [Station("web", 0.004, servers=4), Station("db", 0.002)], think_time=1.0
        )

    @pytest.mark.parametrize("kernel", ["native", "numpy"])
    def test_single_server_resume_at_a_large_level(self, kernel, monkeypatch):
        if kernel == "numpy":
            monkeypatch.setattr(native, "_kernel", None)
        net = self._net()
        prev = mvasd(net, 5000, single_server=True)
        resumed = mvasd(net, 5010, single_server=True, resume_from=prev)
        assert_same_result(resumed, mvasd(net, 5010, single_server=True))

    @pytest.mark.parametrize("single_server", [False, True])
    def test_mis_shaped_initial_state_rejected(self, single_server):
        net = self._net()
        matrices = np.full((1, 10, 2), 0.01)
        z = np.ones(1)
        for init_p, init_q in [
            (np.ones((1, 2, 1)), np.zeros((1, 2))),
            (np.ones((1, 2, 6)), np.zeros((1, 3))),
        ]:
            with pytest.raises(ValueError, match="initial state"):
                _mvasd_levels(
                    native.mvasd_kernel(), net, matrices, z, single_server,
                    5, init_p, init_q,
                )
        with pytest.raises(ValueError, match="initial state"):
            _mvasd_levels(native.mvasd_kernel(), net, matrices, z, single_server, 11)
