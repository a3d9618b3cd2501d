"""Execution-backend parity: serial, batched and the local fan-out agree.

The PR-4 acceptance bar: for every registered method with a batched
kernel, the `process-sharded` stack result and the cached-hit result
match the serial/batched paths to ≤1e-10; methods without a kernel
shard over their serial loop just as faithfully.  A hypothesis property
holds the four local paths (serial, batched, process-sharded, resilient)
to bit-identical agreement on random stacks, with and without faults.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.network import ClosedNetwork, Station
from repro.engine import FaultPlan, faults, get_backend
from repro.solvers import (
    Scenario,
    SolverCache,
    SolverCapabilityError,
    WorkloadClass,
    get_solver,
    list_solvers,
    solve,
    solve_stack,
)
from tests.fixtures.stack_compat import assert_same_stack

ATOL = 1e-10


@pytest.fixture
def single_server_net():
    return ClosedNetwork(
        [Station("web", demand=0.02), Station("db", demand=0.05)], think_time=1.0
    )


@pytest.fixture
def multiserver_net():
    return ClosedNetwork(
        [Station("web", demand=0.08, servers=4), Station("db", demand=0.05)],
        think_time=1.0,
    )


@pytest.fixture
def varying_net():
    return ClosedNetwork(
        [
            Station("web", demand=lambda n: 0.05 + 0.0005 * n, servers=4),
            Station("db", demand=lambda n: 0.03 + 0.0002 * n),
        ],
        think_time=1.0,
    )


def _stack_for(spec, net):
    """A small stack exercising ``spec`` on ``net``'s topology."""
    return [
        Scenario(net, 15, demand_matrix=None, demand_level=1.0, think_time=z)
        for z in (0.5, 1.0, 1.5, 2.0, 2.5)
    ]


# Single-class kernel methods; the multi-class kernels have their own
# parity suite in tests/test_multiclass_batched.py (different fixtures).
BATCHED_METHODS = [
    s.name for s in list_solvers() if s.batched_kernel and not s.multiclass
]


class TestParityAcrossBackends:
    @pytest.mark.parametrize("method", BATCHED_METHODS)
    def test_every_kernel_method_serial_batched_sharded(
        self, method, single_server_net, multiserver_net, varying_net
    ):
        spec = next(s for s in list_solvers() if s.name == method)
        net = varying_net if spec.varying_demands else (
            multiserver_net if spec.multiserver else single_server_net
        )
        stack = _stack_for(spec, net)
        serial = solve_stack(stack, method=method, backend="serial", cache=None)
        batched = solve_stack(stack, method=method, backend="batched", cache=None)
        sharded = solve_stack(
            stack, method=method, backend="process-sharded", workers=2, cache=None
        )
        for other in (batched, sharded):
            np.testing.assert_allclose(serial.throughput, other.throughput, atol=ATOL)
            np.testing.assert_allclose(
                serial.response_time, other.response_time, atol=ATOL
            )
            np.testing.assert_allclose(
                serial.queue_lengths, other.queue_lengths, atol=ATOL
            )
            np.testing.assert_allclose(
                serial.utilizations, other.utilizations, atol=ATOL
            )
        assert serial.backend == "serial"
        assert batched.backend == "batched"
        assert sharded.backend == "process-sharded"

    @pytest.mark.parametrize("method", BATCHED_METHODS)
    def test_cached_hit_matches_fresh(self, method, single_server_net, multiserver_net,
                                      varying_net):
        spec = next(s for s in list_solvers() if s.name == method)
        net = varying_net if spec.varying_demands else (
            multiserver_net if spec.multiserver else single_server_net
        )
        stack = _stack_for(spec, net)
        cache = SolverCache()
        cold = solve_stack(stack, method=method, cache=cache)
        warm = solve_stack(list(stack), method=method, cache=cache)
        fresh = solve_stack(list(stack), method=method, cache=None)
        assert warm is cold
        assert cache.stats().hits == 1
        np.testing.assert_allclose(warm.throughput, fresh.throughput, atol=ATOL)
        np.testing.assert_allclose(warm.response_time, fresh.response_time, atol=ATOL)

    def test_kernel_less_method_shards_over_serial_loop(self, single_server_net):
        stack = [
            Scenario(single_server_net, 12, think_time=z) for z in (0.5, 1.0, 1.5)
        ]
        serial = solve_stack(stack, method="linearizer", backend="serial", cache=None)
        sharded = solve_stack(
            stack, method="linearizer", backend="process-sharded", workers=2, cache=None
        )
        np.testing.assert_allclose(serial.throughput, sharded.throughput, atol=ATOL)
        assert sharded.backend == "process-sharded"
        assert sharded.solver == serial.solver == "stacked-linearizer-amva"

    def test_sharding_lambda_demand_networks(self, varying_net):
        # Lambda demands are unpicklable, but the scenario list rides to
        # the forked workers as payload — only chunk bounds are pickled.
        stack = [Scenario(varying_net, 20, think_time=z) for z in (0.5, 1.0, 2.0)]
        batched = solve_stack(stack, method="mvasd", backend="batched", cache=None)
        sharded = solve_stack(
            stack, method="mvasd", backend="process-sharded", workers=2, cache=None
        )
        np.testing.assert_allclose(batched.throughput, sharded.throughput, atol=ATOL)


class TestBackendSelection:
    def test_auto_prefers_batched_below_threshold(self, single_server_net):
        stack = [Scenario(single_server_net, 10, think_time=z) for z in (0.5, 1.0)]
        result = solve_stack(stack, method="exact-mva", cache=None)
        assert result.backend == "batched"

    def test_auto_shards_above_threshold(self, single_server_net, monkeypatch):
        from repro.solvers import facade

        monkeypatch.setattr(facade, "AUTO_SHARD_THRESHOLD", 4)
        stack = [
            Scenario(single_server_net, 10, think_time=0.5 + 0.1 * i) for i in range(6)
        ]
        result = solve_stack(stack, method="exact-mva", workers=2, cache=None)
        assert result.backend == "process-sharded"
        reference = solve_stack(stack, method="exact-mva", backend="batched", cache=None)
        np.testing.assert_allclose(result.throughput, reference.throughput, atol=ATOL)

    def test_auto_stays_in_process_with_one_worker(self, single_server_net, monkeypatch):
        from repro.solvers import facade

        monkeypatch.setattr(facade, "AUTO_SHARD_THRESHOLD", 2)
        stack = [
            Scenario(single_server_net, 10, think_time=0.5 + 0.1 * i) for i in range(4)
        ]
        result = solve_stack(stack, method="exact-mva", workers=1, cache=None)
        assert result.backend == "batched"

    def test_scalar_alias_maps_to_serial(self, single_server_net):
        stack = [Scenario(single_server_net, 10, think_time=z) for z in (0.5, 1.0)]
        result = solve_stack(stack, method="exact-mva", backend="scalar", cache=None)
        assert result.backend == "serial"

    def test_unknown_backend_rejected(self, single_server_net):
        stack = [Scenario(single_server_net, 10)]
        with pytest.raises(Exception, match="backend"):
            solve_stack(stack, backend="gpu", cache=None)

    def test_batched_without_kernel_names_nearest_method(self, single_server_net):
        stack = [Scenario(single_server_net, 10), Scenario(single_server_net, 10)]
        with pytest.raises(SolverCapabilityError, match="no batched kernel") as exc:
            solve_stack(stack, method="linearizer", backend="batched", cache=None)
        assert "schweitzer-amva" in str(exc.value)

    def test_get_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("quantum")

    def test_single_scenario_rejects_sharded(self, single_server_net):
        with pytest.raises(Exception, match="backend"):
            solve(Scenario(single_server_net, 10), backend="process-sharded")


class TestShardReassembly:
    def test_more_workers_than_scenarios(self, single_server_net):
        stack = [Scenario(single_server_net, 10, think_time=z) for z in (0.5, 1.0)]
        sharded = solve_stack(
            stack, method="exact-mva", backend="process-sharded", workers=8, cache=None
        )
        reference = solve_stack(stack, method="exact-mva", backend="batched", cache=None)
        assert sharded.n_scenarios == 2
        np.testing.assert_allclose(sharded.throughput, reference.throughput, atol=ATOL)

    def test_order_preserved_across_shards(self, single_server_net):
        thinks = [0.25 * (i + 1) for i in range(9)]
        stack = [Scenario(single_server_net, 10, think_time=z) for z in thinks]
        sharded = solve_stack(
            stack, method="exact-mva", backend="process-sharded", workers=3, cache=None
        )
        np.testing.assert_allclose(sharded.think_times, thinks, atol=ATOL)
        # Throughput decreases as think time grows — order must survive.
        peak = sharded.peak_throughput()
        assert np.all(np.diff(peak) < 0)

    def test_demands_used_concatenated(self, varying_net):
        stack = [Scenario(varying_net, 12, think_time=z) for z in (0.5, 1.0, 1.5)]
        sharded = solve_stack(
            stack, method="mvasd", backend="process-sharded", workers=2, cache=None
        )
        batched = solve_stack(stack, method="mvasd", backend="batched", cache=None)
        assert sharded.demands_used is not None
        np.testing.assert_allclose(
            sharded.demands_used, batched.demands_used, atol=ATOL
        )


class TestCapabilityMatrix:
    def test_batched_kernel_column(self, capsys):
        from repro.cli import main

        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        assert "batched kernel" in out

    def test_sweep_grid_reports_backend(self, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep-grid",
                "--demands", "0.02,0.05",
                "--think", "1",
                "--population", "30",
                "--scales", "0.5,1.0",
                "--backend", "process-sharded",
                "--workers", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenarios solved in one batch" in out
        assert "[process-sharded]" in out


# -- one property across the local paths ---------------------------------------

#: Network kind -> the single-class kernel methods that accept it.  The
#: multi-server and varying-demand networks carry multi-server stations.
KERNEL_METHODS_BY_KIND = {
    "constant": BATCHED_METHODS,
    "multiserver": [m for m in BATCHED_METHODS if get_solver(m).multiserver],
    "varying": [m for m in BATCHED_METHODS if get_solver(m).multiserver],
    "multiclass": [
        s.name for s in list_solvers() if s.batched_kernel and s.multiclass
    ],
}

TRAJECTORY = ("throughput", "response_time", "queue_lengths", "utilizations")


@st.composite
def multiclass_stacks(draw, method):
    """A small random multi-class stack on single-server/delay stations."""
    names = [f"s{i}" for i in range(draw(st.integers(min_value=1, max_value=3)))]
    kinds = [draw(st.sampled_from(["queue", "queue", "delay"])) for _ in names]
    net = ClosedNetwork(
        [Station(n, demand=0.01, kind=kd) for n, kd in zip(names, kinds)], think_time=1.0
    )
    demand = st.floats(min_value=0.005, max_value=0.1)
    bases = [
        [draw(demand) for _ in names] for _ in range(draw(st.integers(min_value=1, max_value=2)))
    ]
    # The mix sweep takes demand curves of the total population; the
    # exact lattice freezes demands at one level.
    slope = draw(st.floats(min_value=0.0, max_value=0.01)) if method == "multiclass-mvasd" else 0.0
    population = draw(st.integers(min_value=2, max_value=6))
    scales = draw(st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=2, max_size=5))
    return [
        Scenario(
            net,
            population,
            classes=tuple(
                WorkloadClass(
                    f"c{ci}",
                    1 + ci,
                    {
                        n: (lambda t, d=d * sc, m=slope: d * (1.0 + m * t)) if slope else d * sc
                        for n, d in zip(names, base)
                    },
                    think_time=0.5 + ci,
                )
                for ci, base in enumerate(bases)
            ),
        )
        for sc in scales
    ]


@st.composite
def local_stacks(draw):
    """``(method, stack)``: a small random stack and a kernel method for it."""
    kind = draw(st.sampled_from(sorted(KERNEL_METHODS_BY_KIND)))
    method = draw(st.sampled_from(KERNEL_METHODS_BY_KIND[kind]))
    if kind == "multiclass":
        return method, draw(multiclass_stacks(method))
    stations = []
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        demand = draw(st.floats(min_value=0.005, max_value=0.1))
        servers = 1 if kind == "constant" else draw(st.integers(min_value=1, max_value=4))
        if kind == "varying":
            slope = draw(st.floats(min_value=0.0, max_value=0.002))
            stations.append(
                Station(f"s{i}", demand=lambda n, d=demand, m=slope: d + m * n,
                        servers=servers)
            )
        else:
            stations.append(Station(f"s{i}", demand=demand, servers=servers))
    net = ClosedNetwork(stations, think_time=1.0)
    population = draw(st.integers(min_value=2, max_value=12))
    thinks = draw(
        st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=2, max_size=5)
    )
    return method, [
        Scenario(net, population, think_time=z, demand_level=1.0) for z in thinks
    ]


def _assert_rows_equal(got, want, rows):
    """The trajectories of ``rows`` agree bit for bit, and so do the demands used."""
    for name in (*TRAJECTORY, "demands_used"):
        if name in want.LAYOUT:
            np.testing.assert_array_equal(
                getattr(got, name)[rows], getattr(want, name)[rows], err_msg=name
            )


def _persistent_poison(scenario: int) -> FaultPlan:
    """``raise-in-kernel`` on every attempt the no-retry preset makes.

    The dispatcher's attempt counter is monotone: the fan-out is attempt
    0, the in-driver batched and serial re-solves are 1 and 2, and the
    isolation pass is 3.  A fault armed for attempt 0 alone is escaped
    by the re-solve; a scenario that fails for good fails on all four.
    """
    return FaultPlan.parse(
        ";".join(f"raise-in-kernel@scenario={scenario},attempt={a}" for a in range(4))
    )


@settings(max_examples=8, deadline=None)
@given(case=local_stacks(), data=st.data())
def test_local_paths_agree(case, data):
    method, stack = case
    # MVASD runs on either demand axis; the throughput axis is its own
    # fixed-point loop, which every path must run alike.
    options = (
        {"demand_axis": data.draw(st.sampled_from(["population", "throughput"]), label="axis")}
        if method == "mvasd"
        else {}
    )
    serial = solve_stack(stack, method=method, backend="serial", cache=None, **options)
    batched = solve_stack(stack, method=method, backend="batched", cache=None, **options)
    _assert_rows_equal(batched, serial, slice(None))
    for backend in ("process-sharded", "resilient"):
        fanned = solve_stack(
            stack, method=method, backend=backend, workers=2, cache=None, **options
        )
        assert fanned.backend == backend
        assert_same_stack(replace(fanned, backend="batched"), batched)

    # A crashed worker's shard is solved again in the driver.
    with faults.injected(FaultPlan.parse("crash-worker@shard=0")):
        crashed = solve_stack(
            stack, method=method, backend="process-sharded", workers=2, cache=None,
            **options,
        )
    assert_same_stack(replace(crashed, backend="batched"), batched)

    # Isolation is per shard: only the poisoned scenario fails, at its
    # full-stack index, and every other row is the serial row.
    k = data.draw(st.integers(min_value=0, max_value=len(stack) - 1), label="poisoned")
    with faults.injected(_persistent_poison(k)):
        isolated = solve_stack(
            stack, method=method, backend="process-sharded", workers=2,
            cache=None, errors="isolate", **options,
        )
    assert [f.index for f in isolated.failures] == [k]
    assert np.isnan(isolated.throughput[k]).all()
    healthy = [i for i in range(len(stack)) if i != k]
    _assert_rows_equal(isolated, serial, healthy)


@pytest.mark.parametrize("backend", ["serial", "batched", "process-sharded", "resilient"])
def test_unknown_demand_axis_raises_on_every_local_path(backend, varying_net):
    stack = [Scenario(varying_net, 8, think_time=z) for z in (0.5, 1.0, 1.5, 2.0)]
    with pytest.raises(ValueError, match="demand_axis must be"):
        solve_stack(
            stack, method="mvasd", backend=backend, workers=2, cache=None,
            demand_axis="users",
        )


@pytest.mark.parametrize("backend", ["serial", "batched", "process-sharded", "resilient"])
def test_solver_error_raises_on_every_local_path(backend):
    def breaks_past_three(n):
        if n > 3:
            raise ZeroDivisionError("demand model undefined past n=3")
        return 0.02

    net = ClosedNetwork(
        [Station("web", demand=breaks_past_three), Station("db", demand=0.05)],
        think_time=1.0,
    )
    stack = [Scenario(net, 8, think_time=z) for z in (0.5, 1.0, 1.5, 2.0)]
    with pytest.raises(ZeroDivisionError, match="undefined past"):
        solve_stack(stack, method="mvasd", backend=backend, workers=2, cache=None)


def test_isolated_failure_counts_the_attempts_of_its_shard():
    # Under process-sharded a poisoned shard is tried three times before
    # isolation: the fan-out, then the in-driver batched and serial
    # re-solves.  Its failure record carries that count; the healthy
    # shard's scenarios carry none.
    net = ClosedNetwork([Station("web", 0.02), Station("db", 0.05)], think_time=1.0)
    stack = [Scenario(net, 8, think_time=z) for z in (0.5, 1.0, 1.5, 2.0)]
    with faults.injected(_persistent_poison(1)):
        result = solve_stack(
            stack, method="exact-mva", backend="process-sharded", workers=2,
            cache=None, errors="isolate",
        )
    assert result.backend == "process-sharded"
    assert [(f.index, f.retries) for f in result.failures] == [(1, 3)]


def test_fan_out_name_picks_its_preset():
    from repro.engine.resilience import FAN_OUT_POLICIES, RetryPolicy

    sharded = get_backend("process-sharded", workers=2)
    resilient = get_backend("resilient", workers=2)
    assert (sharded.name, resilient.name) == ("process-sharded", "resilient")
    assert sharded.dispatcher.policy == RetryPolicy(max_retries=0, shard_timeout=None)
    assert resilient.dispatcher.policy == FAN_OUT_POLICIES["resilient"] == RetryPolicy()
    # A retry policy or a checkpoint asks for the resilient backend.
    with pytest.raises(ValueError, match="resilient"):
        get_backend("process-sharded", policy=RetryPolicy())
    with pytest.raises(ValueError, match="resilient"):
        get_backend("process-sharded", checkpoint="journal.jsonl")
    with pytest.raises(ValueError, match="unknown local fan-out"):
        type(sharded)(2, name="remote")
