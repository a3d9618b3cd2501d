"""Batched multi-class kernels: scalar equivalence, NaN masking, routing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClosedNetwork, Station, exact_multiclass_mva
from repro.core.multiclass_amva import multiclass_mvasd
from repro.engine import (
    FaultPlan,
    ScenarioFailure,
    batched_exact_multiclass,
    batched_multiclass_mvasd,
    faults,
)
from repro.solvers import Scenario, WorkloadClass, solve, solve_stack
from repro.solvers.facade import _SCALAR_FALLBACK_WARNED
from repro.solvers.validation import SolverInputError


@pytest.fixture
def net():
    return ClosedNetwork(
        [Station("web", demand=0.02), Station("db", demand=0.05)],
        think_time=1.0,
    )


def _stack(net, s=6):
    scales = np.linspace(0.8, 1.2, s)
    return [
        Scenario(
            net,
            5,
            classes=(
                WorkloadClass(
                    "a", 3, {"web": 0.02 * sc, "db": 0.05 * sc}, think_time=1.0
                ),
                WorkloadClass(
                    "b", 2, {"web": 0.01 * sc, "db": 0.04 * sc}, think_time=0.5
                ),
            ),
        )
        for sc in scales
    ]


class _Ramp:
    def __init__(self, base, slope):
        self.base = base
        self.slope = slope

    def __call__(self, total):
        return self.base * (1.0 + self.slope * total)


def _varying_stack(net, s=5):
    scales = np.linspace(0.9, 1.1, s)
    return [
        Scenario(
            net,
            6,
            classes=(
                WorkloadClass(
                    "a",
                    3,
                    {"web": _Ramp(0.02 * sc, 0.01), "db": 0.05 * sc},
                    think_time=1.0,
                ),
                WorkloadClass(
                    "b", 3, {"web": 0.01 * sc, "db": 0.04 * sc}, think_time=0.5
                ),
            ),
        )
        for sc in scales
    ]


# A compact strategy for (K, C) demand tensors with populations/thinks.
_dims = st.tuples(st.integers(1, 3), st.integers(1, 3))


@st.composite
def _multiclass_case(draw):
    k, c = draw(_dims)
    demands = draw(
        st.lists(
            st.lists(st.floats(0.001, 0.2), min_size=c, max_size=c),
            min_size=k,
            max_size=k,
        )
    )
    pops = draw(st.lists(st.integers(0, 4), min_size=c, max_size=c))
    think = draw(st.lists(st.floats(0.0, 2.0), min_size=c, max_size=c))
    kinds = draw(
        st.lists(st.sampled_from(["queue", "delay"]), min_size=k, max_size=k)
    )
    return demands, pops, think, kinds


class TestBatchedExactMulticlassEquivalence:
    @given(case=_multiclass_case(), s=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_rowwise(self, case, s):
        demands, pops, think, kinds = case
        base = np.asarray(demands, dtype=float)
        stack = np.stack([base * (1.0 + 0.05 * i) for i in range(s)])
        batched = batched_exact_multiclass(
            stack, pops, think, station_kinds=kinds
        )
        for i in range(s):
            scalar = exact_multiclass_mva(
                stack[i], pops, think, station_kinds=kinds
            )
            np.testing.assert_allclose(
                batched.throughput[i], scalar.throughput, atol=1e-10
            )
            np.testing.assert_allclose(
                batched.queue_lengths[i], scalar.queue_lengths, atol=1e-10
            )
            np.testing.assert_allclose(
                batched.utilizations[i], scalar.utilizations, atol=1e-10
            )

    @given(case=_multiclass_case())
    @settings(max_examples=30, deadline=None)
    def test_scenario_accessor_round_trips(self, case):
        demands, pops, think, kinds = case
        base = np.asarray(demands, dtype=float)
        batched = batched_exact_multiclass(
            base[None, :, :], pops, think, station_kinds=kinds
        )
        single = batched.scenario(0)
        scalar = exact_multiclass_mva(base, pops, think, station_kinds=kinds)
        np.testing.assert_allclose(single.throughput, scalar.throughput, atol=1e-12)


class TestBatchedMulticlassMvasdEquivalence:
    @given(
        s=st.integers(1, 3),
        total=st.integers(1, 8),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_rowwise(self, s, total, seed):
        rng = np.random.default_rng(seed)
        k, c = 2, 2
        names = ("web", "db")
        cls = ("a", "b")
        tensors = rng.uniform(0.005, 0.1, size=(s, total, k, c))
        mix = [2.0, 1.0]
        think = [1.0, 0.5]
        batched = batched_multiclass_mvasd(
            names, cls, tensors, mix, total, think
        )
        for i in range(s):
            per_total = tensors[i]

            def curve(ti, ki, ci):
                return lambda n: float(per_total[int(round(n)) - 1, ki, ci])

            scalar = multiclass_mvasd(
                names,
                {
                    cl: {
                        stn: curve(i, ki, ci)
                        for ki, stn in enumerate(names)
                    }
                    for ci, cl in enumerate(cls)
                },
                {"a": 2.0, "b": 1.0},
                total,
                {"a": 1.0, "b": 0.5},
            )
            np.testing.assert_allclose(
                batched.throughput[i], scalar.throughput, atol=1e-10
            )
            np.testing.assert_allclose(
                batched.response_time[i], scalar.response_time, atol=1e-10
            )
        np.testing.assert_array_equal(batched.populations, scalar.populations)


class TestNaNMasking:
    def test_masked_rows_nan_survivors_bit_identical(self):
        base = np.array([[0.02, 0.01], [0.05, 0.04]])
        stack = np.stack([base * (1.0 + 0.1 * i) for i in range(4)])
        poisoned = stack.copy()
        poisoned[2] = np.nan
        mask = np.array([True, True, False, True])
        clean = batched_exact_multiclass(stack, [3, 2], [1.0, 0.5])
        masked = batched_exact_multiclass(poisoned, [3, 2], [1.0, 0.5], mask=mask)
        assert np.isnan(masked.throughput[2]).all()
        assert np.isnan(masked.queue_lengths[2]).all()
        survivors = [0, 1, 3]
        np.testing.assert_array_equal(
            masked.throughput[survivors], clean.throughput[survivors]
        )
        np.testing.assert_array_equal(
            masked.queue_lengths_by_class[survivors],
            clean.queue_lengths_by_class[survivors],
        )

    def test_unmasked_nan_still_rejected(self):
        stack = np.full((2, 2, 2), np.nan)
        with pytest.raises(ValueError, match="finite"):
            batched_exact_multiclass(stack, [1, 1], [1.0, 1.0])

    def test_mvasd_rejects_non_finite_mix_weight(self):
        tensors = np.full((1, 4, 2, 2), 0.05)
        with pytest.raises(ValueError, match="mix weights"):
            batched_multiclass_mvasd(
                ("web", "db"), ("a", "b"), tensors, [np.nan, 1.0], 4, [1.0, 0.5]
            )

    def test_mvasd_mask(self):
        rng = np.random.default_rng(7)
        tensors = rng.uniform(0.01, 0.08, size=(3, 4, 2, 2))
        poisoned = tensors.copy()
        poisoned[1] = -1.0
        mask = np.array([True, False, True])
        clean = batched_multiclass_mvasd(
            ("web", "db"), ("a", "b"), tensors, [1.0, 1.0], 4, [1.0, 0.5]
        )
        masked = batched_multiclass_mvasd(
            ("web", "db"), ("a", "b"), poisoned, [1.0, 1.0], 4, [1.0, 0.5],
            mask=mask,
        )
        assert np.isnan(masked.throughput[1]).all()
        np.testing.assert_array_equal(
            masked.throughput[[0, 2]], clean.throughput[[0, 2]]
        )


class TestFacadeRouting:
    def test_auto_routes_batched_not_stacked(self, net):
        result = solve_stack(_stack(net), cache=None)
        assert result.backend == "batched"
        assert result.solver == "batched-exact-multiclass"

    def test_serial_batched_sharded_parity(self, net):
        stack = _stack(net)
        serial = solve_stack(
            stack, method="exact-multiclass", backend="serial", cache=None
        )
        batched = solve_stack(
            stack, method="exact-multiclass", backend="batched", cache=None
        )
        sharded = solve_stack(
            stack,
            method="exact-multiclass",
            backend="process-sharded",
            workers=2,
            cache=None,
        )
        assert serial.solver == "stacked-exact-multiclass"
        np.testing.assert_allclose(
            batched.throughput, serial.throughput, atol=1e-10
        )
        # The serial loop reports the demands it used, as the kernel does.
        np.testing.assert_array_equal(serial.demands_used, batched.demands_used)
        np.testing.assert_allclose(
            sharded.throughput, serial.throughput, atol=1e-10
        )
        assert sharded.backend == "process-sharded"

    def test_varying_stack_routes_through_mvasd_kernel(self, net):
        stack = _varying_stack(net)
        auto = solve_stack(stack, cache=None)
        assert auto.solver == "batched-multiclass-mvasd"
        serial = solve_stack(stack, backend="serial", method="multiclass-mvasd", cache=None)
        np.testing.assert_allclose(auto.throughput, serial.throughput, atol=1e-10)

    def test_scenario_accessor_matches_single_solve(self, net):
        stack = _stack(net)
        batched = solve_stack(stack, cache=None)
        single = solve(stack[2], method="exact-multiclass", cache=None)
        np.testing.assert_allclose(
            batched.scenario(2).throughput, single.throughput, atol=1e-12
        )

    def test_mixed_single_and_multiclass_rejected(self, net):
        with pytest.raises(SolverInputError, match="mix"):
            solve_stack([_stack(net)[0], Scenario(net, 5)], cache=None)

    def test_differing_class_structure_rejected(self, net):
        a = _stack(net)[0]
        b = Scenario(
            net,
            5,
            classes=(
                WorkloadClass("a", 4, {"web": 0.02, "db": 0.05}, think_time=1.0),
                WorkloadClass("b", 1, {"web": 0.01, "db": 0.04}, think_time=0.5),
            ),
        )
        with pytest.raises(SolverInputError, match="class structure"):
            solve_stack([a, b], cache=None)

    def test_single_class_solver_rejected_for_multiclass_stack(self, net):
        with pytest.raises(Exception, match="single-class"):
            solve_stack(_stack(net), method="exact-mva", cache=None)


class TestMaskedIsolation:
    def test_poisoned_scenario_does_not_demote_shard(self, net):
        stack = _stack(net)
        clean = solve_stack(
            stack, method="exact-multiclass", backend="batched", cache=None
        )
        with faults.injected(FaultPlan.parse("raise-in-kernel@scenario=3")):
            result = solve_stack(
                stack,
                method="exact-multiclass",
                backend="batched",
                cache=None,
                errors="isolate",
            )
        # Survivors stayed on the kernel — backend metadata proves it.
        assert result.backend == "batched"
        assert result.failed_indices == (3,)
        failure = result.failures[0]
        assert isinstance(failure, ScenarioFailure)
        assert "InjectedFault" in failure.error
        assert np.isnan(result.throughput[3]).all()
        survivors = [i for i in range(len(stack)) if i != 3]
        np.testing.assert_array_equal(
            result.throughput[survivors], clean.throughput[survivors]
        )

    def test_single_class_masked_isolation_too(self, net):
        # The PR 5 residual: single-class kernels also keep survivors
        # batched now instead of demoting the shard to the serial loop.
        stack = [Scenario(net, 10, think_time=0.5 + 0.1 * i) for i in range(5)]
        clean = solve_stack(stack, method="exact-mva", backend="batched", cache=None)
        with faults.injected(FaultPlan.parse("raise-in-kernel@scenario=1")):
            result = solve_stack(
                stack,
                method="exact-mva",
                backend="batched",
                cache=None,
                errors="isolate",
            )
        assert result.backend == "batched"
        assert result.failed_indices == (1,)
        assert np.isnan(result.throughput[1]).all()
        survivors = [0, 2, 3, 4]
        np.testing.assert_array_equal(
            result.throughput[survivors], clean.throughput[survivors]
        )


class TestScalarFallbackWarning:
    def test_kernel_less_stack_warns_once(self, net):
        _SCALAR_FALLBACK_WARNED.discard("method-of-moments")
        stack = _stack(net)
        with pytest.warns(UserWarning, match="no batched kernel"):
            solve_stack(stack, method="method-of-moments", cache=None)
        # Second stack with the same method stays quiet.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_stack(stack, method="method-of-moments", cache=None)
