"""Batched kernels and the fork-join sweep executor."""

import numpy as np
import pytest

from repro.core import (
    ClosedNetwork,
    Station,
    exact_mva,
    mvasd,
    schweitzer_amva,
)
from repro.core.mvasd import _resolve_demand_functions, precompute_demand_matrix
from repro.engine import (
    BatchedMVAResult,
    ScenarioGrid,
    batched_exact_mva,
    batched_mvasd,
    batched_schweitzer_amva,
    demand_matrix_stack,
    parallel_map,
    resolve_workers,
    spawn_seeds,
)

TOL = 1e-10


def _demand_stack(rng, s, k):
    return rng.uniform(0.005, 0.25, size=(s, k))


class TestBatchedExactMVA:
    def test_matches_scalar_per_scenario(self, two_station_net):
        rng = np.random.default_rng(1)
        demands = _demand_stack(rng, 6, len(two_station_net))
        batched = batched_exact_mva(two_station_net, 30, demands)
        for i in range(6):
            scalar = exact_mva(two_station_net, 30, demands=demands[i])
            np.testing.assert_allclose(
                batched.throughput[i], scalar.throughput, rtol=0, atol=TOL
            )
            np.testing.assert_allclose(
                batched.queue_lengths[i], scalar.queue_lengths, rtol=0, atol=TOL
            )
            np.testing.assert_allclose(
                batched.residence_times[i], scalar.residence_times, rtol=0, atol=TOL
            )

    def test_delay_stations_and_think_time_axis(self):
        net = ClosedNetwork(
            [Station("cpu", 0.05), Station("wan", 0.2, kind="delay")], think_time=0.5
        )
        demands = np.array([[0.05, 0.2], [0.08, 0.1]])
        thinks = np.array([0.25, 2.0])
        batched = batched_exact_mva(net, 20, demands, think_times=thinks)
        for i in range(2):
            scalar = exact_mva(net.with_think_time(thinks[i]), 20, demands=demands[i])
            np.testing.assert_allclose(
                batched.throughput[i], scalar.throughput, rtol=0, atol=TOL
            )
        np.testing.assert_allclose(batched.cycle_time, batched.response_time + thinks[:, None])

    def test_single_vector_is_one_scenario(self, two_station_net):
        batched = batched_exact_mva(two_station_net, 10, [0.05, 0.08])
        assert batched.n_scenarios == 1
        scalar = exact_mva(two_station_net, 10, demands=[0.05, 0.08])
        np.testing.assert_allclose(batched.throughput[0], scalar.throughput, atol=TOL)

    def test_validation(self, two_station_net):
        with pytest.raises(ValueError, match="max_population"):
            batched_exact_mva(two_station_net, 0, [[0.05, 0.08]])
        with pytest.raises(ValueError, match="demand stack"):
            batched_exact_mva(two_station_net, 5, [[0.05, 0.08, 0.1]])
        with pytest.raises(ValueError, match="non-negative"):
            batched_exact_mva(two_station_net, 5, [[0.05, -0.08]])
        with pytest.raises(ValueError, match="think times"):
            batched_exact_mva(two_station_net, 5, [[0.05, 0.08]], think_times=[1.0, 2.0])


class TestBatchedSchweitzer:
    def test_matches_scalar_per_scenario(self, two_station_net):
        rng = np.random.default_rng(2)
        demands = _demand_stack(rng, 8, len(two_station_net))
        batched = batched_schweitzer_amva(two_station_net, 25, demands)
        for i in range(8):
            scalar = schweitzer_amva(two_station_net, 25, demands=demands[i])
            np.testing.assert_allclose(
                batched.throughput[i], scalar.throughput, rtol=0, atol=TOL
            )
            np.testing.assert_allclose(
                batched.queue_lengths[i], scalar.queue_lengths, rtol=0, atol=TOL
            )

    def test_heterogeneous_convergence_rates(self):
        # Mix a nearly-balanced network with a heavily bottlenecked one:
        # their fixed points converge at very different speeds, exercising
        # the per-scenario freeze logic.
        net = ClosedNetwork([Station("a", 0.1), Station("b", 0.1)], think_time=0.1)
        demands = np.array([[0.1, 0.1], [0.5, 0.001]])
        batched = batched_schweitzer_amva(net, 40, demands)
        for i in range(2):
            scalar = schweitzer_amva(net, 40, demands=demands[i])
            np.testing.assert_allclose(
                batched.throughput[i], scalar.throughput, rtol=0, atol=TOL
            )


class TestBatchedMVASD:
    @pytest.mark.parametrize("single_server", [False, True])
    def test_matches_scalar_on_varying_multiserver_net(self, varying_net, single_server):
        n = 40
        fns = _resolve_demand_functions(varying_net, None)
        base = precompute_demand_matrix(fns, n)
        scales = np.linspace(0.6, 1.4, 5)
        matrices = base[None, :, :] * scales[:, None, None]
        batched = batched_mvasd(
            varying_net, n, matrices, single_server=single_server
        )
        for i, scale in enumerate(scales):
            scaled = [lambda lvl, _f=f, _s=scale: _f(lvl) * _s for f in fns]
            scalar = mvasd(
                varying_net, n, demand_functions=scaled, single_server=single_server
            )
            np.testing.assert_allclose(
                batched.throughput[i], scalar.throughput, rtol=0, atol=TOL
            )
            np.testing.assert_allclose(
                batched.queue_lengths[i], scalar.queue_lengths, rtol=0, atol=TOL
            )
            np.testing.assert_allclose(
                batched.demands_used[i], scalar.demands_used, rtol=0, atol=TOL
            )

    def test_manycore_network(self, manycore_net):
        n = 60
        fns = _resolve_demand_functions(manycore_net, None)
        matrices = demand_matrix_stack([fns, fns], n)
        matrices[1] *= 0.8
        batched = batched_mvasd(manycore_net, n, matrices)
        for i, scale in enumerate((1.0, 0.8)):
            scaled = [lambda lvl, _f=f, _s=scale: _f(lvl) * _s for f in fns]
            scalar = mvasd(manycore_net, n, demand_functions=scaled)
            np.testing.assert_allclose(
                batched.throughput[i], scalar.throughput, rtol=0, atol=TOL
            )

    def test_shape_validation(self, varying_net):
        with pytest.raises(ValueError, match="demand-matrix stack"):
            batched_mvasd(varying_net, 10, np.zeros((2, 5, 2)))
        with pytest.raises(ValueError, match="non-negative"):
            batched_mvasd(varying_net, 4, -np.ones((1, 4, 2)))

    def test_scenario_roundtrip(self, varying_net):
        fns = _resolve_demand_functions(varying_net, None)
        matrices = demand_matrix_stack([fns], 15)
        batched = batched_mvasd(varying_net, 15, matrices)
        result = batched.scenario(0)
        assert result.max_population == 15
        assert result.station_names == varying_net.station_names
        np.testing.assert_allclose(result.littles_law_residual(), 0.0, atol=1e-12)
        with pytest.raises(IndexError):
            batched.scenario(3)


class TestBatchedResult:
    def test_shape_validation(self):
        pops = np.arange(1, 4)
        good = dict(
            populations=pops,
            throughput=np.ones((2, 3)),
            response_time=np.ones((2, 3)),
            queue_lengths=np.ones((2, 3, 1)),
            residence_times=np.ones((2, 3, 1)),
            utilizations=np.ones((2, 3, 1)),
            station_names=("cpu",),
            think_times=np.ones(2),
            solver="test",
        )
        BatchedMVAResult(**good)
        bad = dict(good, throughput=np.ones((3, 2)))
        with pytest.raises(ValueError, match="throughput"):
            BatchedMVAResult(**bad)
        bad = dict(good, think_times=np.ones(3))
        with pytest.raises(ValueError, match="think_times"):
            BatchedMVAResult(**bad)

    def test_peak_throughput(self, two_station_net):
        batched = batched_exact_mva(
            two_station_net, 20, [[0.05, 0.08], [0.1, 0.16]]
        )
        assert len(batched) == 2
        np.testing.assert_allclose(
            batched.peak_throughput(), batched.throughput.max(axis=1)
        )
        # Halved demands must sustain roughly double the throughput.
        assert batched.peak_throughput()[0] > batched.peak_throughput()[1]


class TestPrecomputeDemandMatrix:
    def test_matches_per_level_calls(self, varying_net):
        fns = _resolve_demand_functions(varying_net, None)
        matrix = precompute_demand_matrix(fns, 25)
        assert matrix.shape == (25, 2)
        for n in (1, 10, 25):
            np.testing.assert_array_equal(
                matrix[n - 1], [float(f(float(n))) for f in fns]
            )

    def test_scalar_only_callable_falls_back(self):
        def scalar_only(level):
            return 0.1 if level < 10 else 0.2  # array input would raise

        matrix = precompute_demand_matrix([scalar_only], 15)
        assert matrix[0, 0] == 0.1 and matrix[-1, 0] == 0.2

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            precompute_demand_matrix([lambda n: 0.1 - 0.05 * n], 10)

    def test_shared_level_grid_cannot_be_corrupted(self):
        # Every call over 1..N shares one read-only grid: a curve that
        # writes to its input falls back to per-level calls, and the
        # next call still sees 1..N.
        def scales_in_place(levels):
            levels *= 2.0
            return levels

        matrix = precompute_demand_matrix([scales_in_place], 12)
        np.testing.assert_array_equal(matrix[:, 0], 2.0 * np.arange(1, 13))
        identity = precompute_demand_matrix([lambda n: n], 12)
        np.testing.assert_array_equal(identity[:, 0], np.arange(1, 13))

    def test_explicit_levels(self):
        matrix = precompute_demand_matrix(
            [np.sqrt], 0, levels=np.array([1.0, 4.0, 9.0])
        )
        np.testing.assert_allclose(matrix[:, 0], [1.0, 2.0, 3.0])


# -- sweep executor -----------------------------------------------------------


def _square_task(item, payload):
    return item * item + (payload or 0)


class TestParallelMap:
    def test_serial_and_parallel_agree(self):
        items = list(range(12))
        serial = parallel_map(_square_task, items, workers=1)
        parallel = parallel_map(_square_task, items, workers=2)
        assert serial == parallel == [i * i for i in items]

    def test_payload_passed_through(self):
        assert parallel_map(_square_task, [2, 3], workers=1, payload=100) == [104, 109]
        assert parallel_map(_square_task, [2, 3], workers=2, payload=100) == [104, 109]

    def test_unpicklable_task_falls_back_to_serial(self):
        items = [1, 2, 3]
        # A lambda cannot cross the pipe; parallel_map must still answer.
        assert parallel_map(lambda i, _p: i + 1, items, workers=2) == [2, 3, 4]

    def test_empty_and_single(self):
        assert parallel_map(_square_task, [], workers=4) == []
        assert parallel_map(_square_task, [5], workers=4) == [25]

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(0)


class TestSpawnSeeds:
    def test_deterministic_and_distinct(self):
        a = spawn_seeds(42, 8)
        assert a == spawn_seeds(42, 8)
        assert len(set(a)) == 8
        assert a[:4] == spawn_seeds(42, 4)  # prefix-stable: count extension safe
        assert spawn_seeds(43, 8) != a

    def test_validation(self):
        with pytest.raises(ValueError, match="seed"):
            spawn_seeds(-1, 2)
        with pytest.raises(ValueError, match="count"):
            spawn_seeds(0, 0)


class TestScenarioGrid:
    def test_product_row_major(self):
        grid = ScenarioGrid.product(a=(1, 2), b=("x", "y", "z"))
        combos = grid.combinations()
        assert len(grid) == len(combos) == 6
        assert combos[0] == {"a": 1, "b": "x"}
        assert combos[1] == {"a": 1, "b": "y"}
        assert combos[-1] == {"a": 2, "b": "z"}
        assert grid.axis_names == ("a", "b")
        assert grid.labels()[0] == "a=1, b=x"

    def test_validation(self):
        with pytest.raises(ValueError, match="axis"):
            ScenarioGrid.product()
        with pytest.raises(ValueError, match="points"):
            ScenarioGrid.product(a=())

    def test_from_scenarios(self):
        explicit = ScenarioGrid.from_scenarios([{"a": 1}, {"a": 9, "b": 2}])
        assert explicit == [{"a": 1}, {"a": 9, "b": 2}]
