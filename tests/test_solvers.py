"""Unified solver registry, Scenario and the solve() facade."""

import numpy as np
import pytest

from repro.core.amva import schweitzer_amva
from repro.core.mva import exact_mva
from repro.core.mvasd import mvasd
from repro.core.network import ClosedNetwork, Station
from repro.solvers import (
    DuplicateSolverError,
    Scenario,
    SolverCapabilityError,
    SolverInputError,
    UnknownSolverError,
    WorkloadClass,
    auto_method,
    capability_matrix,
    get_solver,
    list_solvers,
    register_solver,
    solve,
    solve_stack,
    solver_names,
    unregister_solver,
)


@pytest.fixture
def single_server_net():
    return ClosedNetwork(
        [Station("web", 0.02), Station("db", 0.05)], think_time=1.0
    )


@pytest.fixture
def multiserver_net():
    return ClosedNetwork(
        [Station("web", 0.08, servers=4), Station("db", 0.05)], think_time=1.0
    )


@pytest.fixture
def varying_net():
    return ClosedNetwork(
        [
            Station("web", lambda n: 0.02 + 0.0002 * n, servers=4),
            Station("db", lambda n: 0.05 + 0.0001 * n),
        ],
        think_time=1.0,
    )


class TestRegistry:
    def test_builtin_family_registered(self):
        names = solver_names()
        for expected in (
            "exact-mva",
            "exact-multiserver-mva",
            "mvasd",
            "schweitzer-amva",
            "linearizer",
            "ld-mva",
            "convolution",
            "bounds",
            "interval-mva",
            "exact-multiclass",
            "multiclass-mvasd",
        ):
            assert expected in names

    def test_duplicate_name_rejected(self):
        with pytest.raises(DuplicateSolverError):

            @register_solver("exact-mva", summary="clash")
            def _clash(scenario, **options):  # pragma: no cover
                return None

    def test_register_and_unregister_roundtrip(self):
        @register_solver("test-solver", summary="temp", cost=999)
        def _temp(scenario, **options):
            return "ran"

        try:
            spec = get_solver("test-solver")
            assert spec.summary == "temp"
            assert spec.solve(None) == "ran"
        finally:
            removed = unregister_solver("test-solver")
        assert removed.name == "test-solver"
        with pytest.raises(UnknownSolverError):
            get_solver("test-solver")

    def test_unknown_lookup_names_registered(self):
        with pytest.raises(UnknownSolverError, match="exact-mva"):
            get_solver("definitely-not-a-solver")

    def test_list_solvers_cost_ordered(self):
        costs = [spec.cost for spec in list_solvers()]
        assert costs == sorted(costs)

    def test_capability_matrix_lists_every_solver(self):
        matrix = capability_matrix()
        for name in solver_names():
            assert name in matrix

    def test_capability_flags_on_mvasd(self):
        spec = get_solver("mvasd")
        assert spec.multiserver and spec.varying_demands
        assert not spec.exact and not spec.multiclass
        assert spec.batched_kernel == "mvasd"


class TestScenario:
    def test_demand_sources_are_exclusive(self, single_server_net):
        with pytest.raises(SolverInputError, match="at most one demand source"):
            Scenario(
                single_server_net,
                10,
                demands=(0.02, 0.05),
                demand_functions={"web": lambda n: 0.02, "db": lambda n: 0.05},
            )

    def test_demand_length_checked_once(self, single_server_net):
        with pytest.raises(SolverInputError, match="expected 2 demands"):
            Scenario(single_server_net, 10, demands=(0.02,))

    def test_bad_population_rejected(self, single_server_net):
        with pytest.raises(SolverInputError, match="max_population"):
            Scenario(single_server_net, 0)

    def test_demand_matrix_shape_checked(self, single_server_net):
        with pytest.raises(SolverInputError, match="shape"):
            Scenario(single_server_net, 10, demand_matrix=np.ones((5, 2)))

    @pytest.mark.parametrize("think", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_think_time_rejected(self, single_server_net, think):
        with pytest.raises(SolverInputError, match="think_time must be finite"):
            Scenario(single_server_net, 5, think_time=think)
        with pytest.raises(SolverInputError, match="think_time must be finite"):
            WorkloadClass("browse", 3, {"web": 0.02, "db": 0.05}, think_time=think)

    def test_structure_flags(self, single_server_net, multiserver_net, varying_net):
        assert not Scenario(single_server_net, 5).is_multiserver
        assert Scenario(multiserver_net, 5).is_multiserver
        assert not Scenario(multiserver_net, 5).has_varying_demands
        assert Scenario(varying_net, 5).has_varying_demands

    def test_fixed_demands_freeze_varying_at_level(self, varying_net):
        sc = Scenario(varying_net, 20, demand_level=10.0)
        np.testing.assert_allclose(
            sc.fixed_demands(), [0.02 + 0.0002 * 10, 0.05 + 0.0001 * 10]
        )

    def test_think_time_override(self, single_server_net):
        sc = Scenario(single_server_net, 5, think_time=2.5)
        assert sc.think == 2.5
        assert sc.resolved_network().think_time == 2.5
        assert single_server_net.think_time == 1.0  # untouched

    def test_with_overrides_scales_demands(self, single_server_net):
        sc = Scenario(single_server_net, 10).with_overrides(demand_scale=2.0)
        np.testing.assert_allclose(sc.fixed_demands(), [0.04, 0.10])

    def test_demand_matrix_roundtrip(self, single_server_net):
        matrix = np.tile([0.02, 0.05], (10, 1))
        sc = Scenario(single_server_net, 10, demand_matrix=matrix)
        np.testing.assert_allclose(sc.resolved_demand_matrix(), matrix)
        result = solve(sc, method="mvasd")
        reference = exact_mva(single_server_net, 10)
        np.testing.assert_allclose(
            result.throughput, reference.throughput, atol=1e-10
        )


class TestAutoSelection:
    def test_constant_single_server_picks_exact_mva(self, single_server_net):
        assert auto_method(Scenario(single_server_net, 50)) == "exact-mva"

    def test_constant_multiserver_picks_exact_multiserver(self, multiserver_net):
        assert auto_method(Scenario(multiserver_net, 50)) == "exact-multiserver-mva"

    def test_varying_multiserver_picks_mvasd(self, varying_net):
        assert auto_method(Scenario(varying_net, 50)) == "mvasd"

    def test_varying_single_server_picks_mvasd(self):
        net = ClosedNetwork(
            [Station("web", lambda n: 0.02 + 0.0001 * n)], think_time=1.0
        )
        assert auto_method(Scenario(net, 50)) == "mvasd"

    def test_huge_population_falls_back_to_amva(self, single_server_net, multiserver_net):
        assert (
            auto_method(Scenario(single_server_net, 100), exact_limit=50)
            == "schweitzer-amva"
        )
        assert (
            auto_method(Scenario(multiserver_net, 100), exact_limit=50)
            == "approx-multiserver-mva"
        )

    def test_multiclass_selection(self, single_server_net):
        classes = (
            WorkloadClass("a", 3, {"web": 0.02, "db": 0.05}, think_time=1.0),
            WorkloadClass("b", 2, {"web": 0.01, "db": 0.04}, think_time=0.5),
        )
        sc = Scenario(single_server_net, 5, classes=classes)
        assert auto_method(sc) == "exact-multiclass"
        varying = (
            WorkloadClass("a", 3, {"web": lambda n: 0.02, "db": 0.05}, 1.0),
        )
        assert (
            auto_method(Scenario(single_server_net, 3, classes=varying))
            == "multiclass-mvasd"
        )

    def test_solve_auto_runs_selected_method(self, varying_net):
        result = solve(Scenario(varying_net, 30))
        assert result.solver == "mvasd"


class TestFacadeLegacyParity:
    """solve(scenario, method=m) must agree with the legacy entry point."""

    def test_exact_mva_parity(self, single_server_net):
        got = solve(Scenario(single_server_net, 40), method="exact-mva")
        ref = exact_mva(single_server_net, 40)
        np.testing.assert_allclose(got.throughput, ref.throughput, atol=1e-10)
        np.testing.assert_allclose(got.queue_lengths, ref.queue_lengths, atol=1e-10)

    def test_every_trajectory_method_matches_its_legacy(self, multiserver_net):
        import importlib

        sc = Scenario(multiserver_net, 25)
        for spec in list_solvers():
            if spec.returns != "trajectory" or spec.legacy is None:
                continue
            module_path, fn_name = spec.legacy.rsplit(".", 1)
            legacy_fn = getattr(importlib.import_module(module_path), fn_name)
            # Single-server methods need the explicit baseline flag on a
            # multi-server net; their legacy wrappers silently do the same.
            opts = {} if spec.multiserver else {"single_server": True}
            got = solve(sc, method=spec.name, **opts)
            ref = legacy_fn(multiserver_net, 25)
            np.testing.assert_allclose(
                got.throughput, ref.throughput, atol=1e-10,
                err_msg=f"{spec.name} disagrees with {spec.legacy}",
            )
            np.testing.assert_allclose(
                got.response_time, ref.response_time, atol=1e-10,
                err_msg=f"{spec.name} disagrees with {spec.legacy}",
            )

    def test_mvasd_options_forwarded(self, varying_net):
        got = solve(Scenario(varying_net, 20), method="mvasd", single_server=True)
        ref = mvasd(varying_net, 20, single_server=True)
        assert got.solver == ref.solver == "mvasd-single-server"
        np.testing.assert_allclose(got.throughput, ref.throughput, atol=1e-10)


class TestSingleClassParity:
    """Every single-class solver vs exact_mva on single-server constant-demand
    networks: exact solvers to 1e-10 over the whole trajectory, approximate
    solvers exactly at N=1 (where no approximation is involved)."""

    def test_exact_solvers_match_exact_mva(self, single_server_net):
        ref = exact_mva(single_server_net, 30)
        sc = Scenario(single_server_net, 30)
        for spec in list_solvers():
            if spec.returns != "trajectory" or spec.multiclass or not spec.exact:
                continue
            got = solve(sc, method=spec.name)
            np.testing.assert_allclose(
                got.throughput, ref.throughput, atol=1e-10,
                err_msg=f"{spec.name} deviates from exact-mva",
            )
            np.testing.assert_allclose(
                got.cycle_time, ref.cycle_time, atol=1e-10,
                err_msg=f"{spec.name} deviates from exact-mva",
            )

    def test_approximate_solvers_exact_at_n1(self, single_server_net):
        ref = exact_mva(single_server_net, 1)
        sc = Scenario(single_server_net, 1)
        for spec in list_solvers():
            if spec.returns != "trajectory" or spec.multiclass or spec.exact:
                continue
            got = solve(sc, method=spec.name)
            np.testing.assert_allclose(
                got.throughput, ref.throughput, atol=1e-10,
                err_msg=f"{spec.name} wrong at N=1",
            )


class TestCapabilityEnforcement:
    def test_multiclass_scenario_rejects_single_class_solver(self, single_server_net):
        classes = (WorkloadClass("a", 3, {"web": 0.02, "db": 0.05}, 1.0),)
        sc = Scenario(single_server_net, 3, classes=classes)
        with pytest.raises(SolverCapabilityError, match="single-class"):
            solve(sc, method="exact-mva")

    def test_single_class_scenario_rejects_multiclass_solver(self, single_server_net):
        with pytest.raises(SolverCapabilityError, match="classes"):
            solve(Scenario(single_server_net, 5), method="exact-multiclass")

    def test_multiclass_solver_rejects_multiserver_network(self, multiserver_net):
        classes = (WorkloadClass("a", 3, {"web": 0.08, "db": 0.05}, 1.0),)
        sc = Scenario(multiserver_net, 3, classes=classes)
        with pytest.raises(SolverCapabilityError, match="Seidmann"):
            solve(sc, method="exact-multiclass")

    def test_bounds_method_returns_envelope(self, multiserver_net):
        result = solve(Scenario(multiserver_net, 30), method="bounds")
        assert hasattr(result, "knee")
        assert result.throughput_upper.shape == (30,)

    def test_error_messages_name_the_solver(self, single_server_net):
        with pytest.raises(SolverInputError, match="scenario: expected 2 demands"):
            Scenario(single_server_net, 5, demands=(0.1, 0.2, 0.3))
        with pytest.raises(ValueError, match="exact-mva: expected 2 demands"):
            exact_mva(single_server_net, 5, demands=[0.1])

    def test_multiserver_scenario_rejects_single_server_solver(self, multiserver_net):
        # a fixed-demand single-server path would silently model the
        # 4-core CPU as one server — refuse, and name the capable method
        with pytest.raises(
            SolverCapabilityError, match="exact-mva: scenario has multi-server"
        ):
            solve(Scenario(multiserver_net, 10), method="exact-mva")
        with pytest.raises(SolverCapabilityError, match="exact-multiserver-mva"):
            solve(Scenario(multiserver_net, 10), method="schweitzer-amva")

    def test_single_server_escape_hatch(self, multiserver_net):
        # the deliberate single-server baseline stays one option away
        result = solve(
            Scenario(multiserver_net, 10),
            method="exact-mva",
            single_server=True,
            cache=None,
        )
        assert result.solver == "exact-mva"

    def test_multiserver_stack_rejected_without_escape_hatch(self, multiserver_net):
        stack = [Scenario(multiserver_net, 10)] * 2
        with pytest.raises(SolverCapabilityError, match="multi-server"):
            solve_stack(stack, method="exact-mva", cache=None)
        result = solve_stack(stack, method="exact-mva", single_server=True, cache=None)
        assert result.n_scenarios == 2

    def test_rate_table_scenario_rejects_fixed_demand_solver(self, single_server_net):
        sc = Scenario(
            single_server_net, 5, rate_tables={"web": [50.0, 51.0, 52.0, 53.0, 54.0]}
        )
        with pytest.raises(
            SolverCapabilityError, match="nearest load-dependent method: 'ld-mva'"
        ):
            solve(sc, method="exact-mva")
        with pytest.raises(SolverCapabilityError, match="load-dependent rate tables"):
            solve_stack([sc, sc], method="schweitzer-amva", cache=None)

    def test_rate_table_scenario_auto_routes_to_ld_mva(self, single_server_net):
        sc = Scenario(
            single_server_net, 5, rate_tables={"web": [50.0, 51.0, 52.0, 53.0, 54.0]}
        )
        assert auto_method(sc) == "ld-mva"
        result = solve(sc, cache=None)
        assert result.solver == "exact-load-dependent-mva"

    def test_load_dependent_column_in_matrix(self):
        matrix = capability_matrix()
        header = matrix.splitlines()[0]
        assert "load dependent" in header
        ld_row = next(
            line for line in matrix.splitlines() if line.startswith("ld-mva")
        )
        assert "yes" in ld_row


class TestOptionNames:
    """A method refuses options it does not read, instead of ignoring them."""

    def test_solve_rejects_an_option_the_method_ignores(self, single_server_net):
        with pytest.raises(
            SolverInputError,
            match=r"exact-mva: unknown option\(s\) 'demand_axis'; accepted: single_server",
        ):
            solve(
                Scenario(single_server_net, 10),
                method="exact-mva",
                demand_axis="throughput",
                cache=None,
            )

    @pytest.mark.parametrize("backend", ["serial", "batched"])
    def test_solve_stack_rejects_an_option_the_method_ignores(
        self, multiserver_net, backend
    ):
        stack = [Scenario(multiserver_net, 10)] * 2
        with pytest.raises(SolverInputError, match="unknown option.*'demand_axis'"):
            solve_stack(
                stack,
                method="exact-mva",
                backend=backend,
                demand_axis="users",
                single_server=True,
                cache=None,
            )

    def test_declared_options_are_accepted(self, varying_net):
        sc = Scenario(varying_net, 10)
        spec = get_solver("mvasd")
        assert dict(spec.options) == {"single_server": False, "demand_axis": "population"}
        spelled = solve(sc, method="mvasd", cache=None, **spec.options)
        omitted = solve(sc, method="mvasd", cache=None)
        assert np.array_equal(spelled.throughput, omitted.throughput)

    def test_a_method_without_options_refuses_every_name(self, single_server_net):
        with pytest.raises(SolverInputError, match="accepted: none"):
            solve(Scenario(single_server_net, 10), method="bounds", single_server=True)


class TestBatchedBackend:
    def test_batched_equals_scalar_on_stacked_scenarios(self, single_server_net):
        base = Scenario(single_server_net, 30)
        stack = [base, base.with_overrides(demand_scale=1.5)]
        batched = solve_stack(stack, method="exact-mva", backend="batched")
        scalar = solve_stack(stack, method="exact-mva", backend="scalar")
        np.testing.assert_allclose(
            batched.throughput, scalar.throughput, atol=1e-10
        )
        np.testing.assert_allclose(
            batched.queue_lengths, scalar.queue_lengths, atol=1e-10
        )

    def test_batched_mvasd_stack_matches_scalar_solves(self, varying_net):
        base = Scenario(varying_net, 25)
        stack = [base, base.with_overrides(demand_scale=0.8)]
        batched = solve_stack(stack, method="mvasd")
        for i, sc in enumerate(stack):
            ref = solve(sc, method="mvasd")
            np.testing.assert_allclose(
                batched.throughput[i], ref.throughput, atol=1e-10
            )

    def test_single_scenario_batched_backend(self, single_server_net):
        sc = Scenario(single_server_net, 20)
        got = solve(sc, method="exact-mva", backend="batched")
        ref = exact_mva(single_server_net, 20)
        np.testing.assert_allclose(got.throughput, ref.throughput, atol=1e-10)

    def test_auto_stack_routes_multiserver_to_mvasd_kernel(self, multiserver_net):
        sc = Scenario(multiserver_net, 15)
        batch = solve_stack([sc, sc.with_overrides(think_time=2.0)])
        assert batch.solver == "batched-mvasd"
        ref = mvasd(multiserver_net, 15)
        np.testing.assert_allclose(batch.throughput[0], ref.throughput, atol=1e-10)

    def test_scalar_fallback_for_kernel_less_method(self, single_server_net):
        sc = Scenario(single_server_net, 10)
        batch = solve_stack([sc, sc], method="linearizer")
        # The label names the concrete scalar solver, not the registry alias.
        assert batch.solver == "stacked-linearizer-amva"
        assert batch.backend == "serial"
        assert batch.throughput.shape == (2, 10)
        np.testing.assert_allclose(batch.throughput[0], batch.throughput[1])

    def test_forcing_batched_without_kernel_errors(self, single_server_net):
        sc = Scenario(single_server_net, 10)
        with pytest.raises(SolverCapabilityError, match="no batched kernel"):
            solve_stack([sc, sc], method="linearizer", backend="batched")

    def test_mismatched_topologies_rejected(self, single_server_net, multiserver_net):
        with pytest.raises(SolverInputError, match="topology"):
            solve_stack(
                [Scenario(single_server_net, 10), Scenario(multiserver_net, 10)]
            )

    def test_schweitzer_batched_parity(self, single_server_net):
        sc = Scenario(single_server_net, 20)
        batched = solve_stack([sc], method="schweitzer-amva", backend="batched")
        ref = schweitzer_amva(single_server_net, 20)
        np.testing.assert_allclose(
            batched.scenario(0).throughput, ref.throughput, atol=1e-10
        )


class TestGridIntegration:
    def test_scenario_grid_materializes_and_stacks(self, single_server_net):
        from repro.engine import ScenarioGrid

        grid = ScenarioGrid.product(demand_scale=(0.8, 1.0, 1.2), think_time=(0.5, 1.0))
        scenarios = grid.scenarios(Scenario(single_server_net, 20))
        assert len(scenarios) == 6
        batch = solve_stack(scenarios)
        assert batch.throughput.shape == (6, 20)
        # grid order: last axis fastest; entry 1 is scale=0.8, think=1.0
        ref = exact_mva(single_server_net.with_think_time(1.0), 20, demands=[0.016, 0.04])
        np.testing.assert_allclose(batch.throughput[1], ref.throughput, atol=1e-10)

    def test_unknown_grid_axis_rejected(self, single_server_net):
        from repro.engine import ScenarioGrid

        grid = ScenarioGrid.product(duration=(10, 20))
        with pytest.raises(ValueError, match="override axes"):
            grid.scenarios(Scenario(single_server_net, 5))
