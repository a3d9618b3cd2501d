"""Property-based equivalence: batched kernels vs scalar solvers.

The batched kernels must reproduce the scalar trajectories to <= 1e-10
on *arbitrary* networks — random station counts, kinds, server counts,
demands, think times — and parallel sweeps must equal serial sweeps
exactly.  Hypothesis drives the network generator.

The stack containers' own layout operations — concat, the named-arrays
view, the checkpoint journal and the wire codec — must round-trip any
container bit-identically, NaN rows and failure records included.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClosedNetwork, Station, exact_mva, mvasd, schweitzer_amva
from repro.core.mvasd import _resolve_demand_functions, precompute_demand_matrix
from repro.engine import (
    BatchedMultiClassResult,
    BatchedMultiClassTrajectory,
    BatchedMVAResult,
    ScenarioFailure,
    SweepCheckpoint,
    batched_exact_mva,
    batched_mvasd,
    batched_schweitzer_amva,
    native,
    parallel_map,
    spawn_seeds,
)
from repro.engine.batched import ScenarioStack, _batched_mvasd_numpy
from repro.serve.protocol import decode_stack_result, encode_stack_result
from tests.fixtures.stack_compat import assert_same_stack

TOL = 1e-10


@st.composite
def networks(draw, max_stations=4, multiserver=False, max_servers=4):
    k = draw(st.integers(min_value=1, max_value=max_stations))
    kinds = draw(
        st.lists(
            st.sampled_from(["queue", "queue", "queue", "delay"]),
            min_size=k,
            max_size=k,
        )
    )
    if all(kind == "delay" for kind in kinds):
        kinds[0] = "queue"
    stations = []
    for i, kind in enumerate(kinds):
        servers = (
            draw(st.integers(min_value=1, max_value=max_servers))
            if multiserver and kind == "queue"
            else 1
        )
        stations.append(Station(f"st{i}", 0.0, servers=servers, kind=kind))
    think = draw(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False)
    )
    return ClosedNetwork(stations, think_time=think)


def demand_stacks(k, max_scenarios=5):
    return st.lists(
        st.lists(
            st.floats(min_value=1e-4, max_value=0.5, allow_nan=False),
            min_size=k,
            max_size=k,
        ),
        min_size=1,
        max_size=max_scenarios,
    ).map(np.array)


MVASD_FIELDS = ("throughput", "response_time", "queue_lengths", "residence_times", "utilizations")


@given(
    data=st.data(),
    # Crosses every block boundary of NumPy's pairwise summation: plain
    # accumulation below 8, 8 accumulators up to 128, halving above.
    population=st.sampled_from([1, 7, 8, 9, 16, 127, 128, 129, 136, 300, 1000]),
    single_server=st.booleans(),
    load=st.floats(min_value=1e-3, max_value=2.0),
    layout=st.sampled_from(["contiguous", "read-only", "strided", "fortran"]),
    masked=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_native_mvasd_bit_identical_to_numpy(
    data, population, single_server, load, layout, masked, seed
):
    """The compiled recursion reproduces the NumPy loop bit for bit."""
    if native.mvasd_kernel() is None:
        pytest.skip("the native MVASD kernel cannot be built on this host")
    net = data.draw(networks(multiserver=True, max_servers=16))
    k = len(net)
    s = data.draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(seed)
    # Demands scale with the server count, so load >~ 0.1 saturates the
    # stations at these populations and the p(0) = max(0, ...) clamp fires.
    servers = net.servers().astype(float)
    matrices = load * servers * rng.uniform(0.5, 1.5, size=(s, population, k)) / 10.0
    mask = None
    if masked:
        mask = rng.random(s) < 0.6
        matrices[~mask] = np.nan  # masked rows may carry garbage
    if layout == "read-only":
        matrices.flags.writeable = False
    elif layout == "strided":
        wide = np.zeros((s, population, 2 * k))
        wide[:, :, ::2] = matrices
        matrices = wide[:, :, ::2]
    elif layout == "fortran":
        matrices = np.asfortranarray(matrices)
    think = rng.uniform(0.0, 2.0, size=s)

    fast = batched_mvasd(
        net, population, matrices, single_server=single_server, think_times=think, mask=mask
    )
    ref = _batched_mvasd_numpy(
        net, population, matrices, single_server=single_server, think_times=think, mask=mask
    )
    assert fast.solver == ref.solver
    for field in MVASD_FIELDS:
        assert np.array_equal(getattr(fast, field), getattr(ref, field), equal_nan=True), field
    assert np.array_equal(fast.demands_used, ref.demands_used, equal_nan=True)


@given(data=st.data(), population=st.integers(min_value=1, max_value=15))
@settings(max_examples=40, deadline=None)
def test_batched_exact_mva_matches_scalar(data, population):
    net = data.draw(networks())
    demands = data.draw(demand_stacks(len(net)))
    batched = batched_exact_mva(net, population, demands)
    for i in range(demands.shape[0]):
        scalar = exact_mva(net, population, demands=demands[i])
        np.testing.assert_allclose(
            batched.throughput[i], scalar.throughput, rtol=0, atol=TOL
        )
        np.testing.assert_allclose(
            batched.queue_lengths[i], scalar.queue_lengths, rtol=0, atol=TOL
        )
        np.testing.assert_allclose(
            batched.utilizations[i], scalar.utilizations, rtol=0, atol=TOL
        )


@given(data=st.data(), population=st.integers(min_value=1, max_value=12))
@settings(max_examples=30, deadline=None)
def test_batched_schweitzer_matches_scalar(data, population):
    net = data.draw(networks())
    demands = data.draw(demand_stacks(len(net)))
    batched = batched_schweitzer_amva(net, population, demands)
    for i in range(demands.shape[0]):
        scalar = schweitzer_amva(net, population, demands=demands[i])
        np.testing.assert_allclose(
            batched.throughput[i], scalar.throughput, rtol=0, atol=TOL
        )
        np.testing.assert_allclose(
            batched.queue_lengths[i], scalar.queue_lengths, rtol=0, atol=TOL
        )


@given(
    data=st.data(),
    population=st.integers(min_value=1, max_value=12),
    single_server=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_batched_mvasd_matches_scalar(data, population, single_server):
    net = data.draw(networks(multiserver=True))
    k = len(net)
    s = data.draw(st.integers(min_value=1, max_value=4))
    # Per-scenario demand matrices: random positive surfaces over (n, k).
    matrices = data.draw(
        st.lists(
            st.lists(
                st.floats(min_value=1e-4, max_value=0.4, allow_nan=False),
                min_size=population * k,
                max_size=population * k,
            ),
            min_size=s,
            max_size=s,
        ).map(lambda rows: np.array(rows).reshape(s, population, k))
    )
    batched = batched_mvasd(net, population, matrices, single_server=single_server)
    for i in range(s):
        mat = matrices[i]
        fns = [
            (lambda lvl, _col=mat[:, j]: _col[int(round(lvl)) - 1]) for j in range(k)
        ]
        scalar = mvasd(
            net, population, demand_functions=fns, single_server=single_server
        )
        np.testing.assert_allclose(
            batched.throughput[i], scalar.throughput, rtol=0, atol=TOL
        )
        np.testing.assert_allclose(
            batched.queue_lengths[i], scalar.queue_lengths, rtol=0, atol=TOL
        )
        np.testing.assert_allclose(
            batched.residence_times[i], scalar.residence_times, rtol=0, atol=TOL
        )


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=16))
@settings(max_examples=50, deadline=None)
def test_spawn_seeds_worker_count_invariant(seed, count):
    # The full derivation depends only on (seed, index): any prefix of a
    # longer spawn equals the shorter spawn, so chunking/scheduling can
    # never change which replication gets which seed.
    seeds = spawn_seeds(seed, count)
    assert spawn_seeds(seed, count) == seeds
    assert len(set(seeds)) == count
    longer = spawn_seeds(seed, count + 3)
    assert longer[:count] == seeds


def _solve_task(item, payload):
    demands, population = item
    net, = payload
    result = exact_mva(net, population, demands=demands)
    return result.throughput


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_sweep_equals_serial_exactly(two_station_net, workers):
    rng = np.random.default_rng(9)
    items = [(rng.uniform(0.01, 0.3, size=2), 20) for _ in range(6)]
    serial = parallel_map(_solve_task, items, workers=1, payload=(two_station_net,))
    parallel = parallel_map(
        _solve_task, items, workers=workers, payload=(two_station_net,)
    )
    for a, b in zip(serial, parallel):
        np.testing.assert_array_equal(a, b)


def test_precomputed_matrix_equals_per_level_mvasd(varying_net):
    # The vectorized precomputation inside mvasd must not change results:
    # evaluate the same curves per level by hand and compare trajectories.
    n = 30
    fns = _resolve_demand_functions(varying_net, None)
    matrix = precompute_demand_matrix(fns, n)
    by_level = np.array([[float(f(float(lvl))) for f in fns] for lvl in range(1, n + 1)])
    np.testing.assert_array_equal(matrix, by_level)
    result = mvasd(varying_net, n)
    np.testing.assert_array_equal(result.demands_used, matrix)


# -- stack containers: concat and the three serialized forms ---------------

#: The fields of each container that carry the scenario axis — spelled out
#: here rather than read from the containers, so a layout slip shows.
PER_SCENARIO = {
    BatchedMVAResult: (
        "throughput", "response_time", "queue_lengths", "residence_times",
        "utilizations", "think_times", "demands_used",
    ),
    BatchedMultiClassResult: (
        "throughput", "response_time", "queue_lengths", "queue_lengths_by_class",
        "utilizations", "demands_used",
    ),
    BatchedMultiClassTrajectory: (
        "throughput", "response_time", "utilizations", "demands_used",
    ),
}


@st.composite
def stacks(draw):
    """Any container: random S/N/K/C, NaN rows, failure records."""
    kind = draw(st.sampled_from(list(PER_SCENARIO)))
    s = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=3))
    c = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    nan_rows = sorted(draw(st.sets(st.integers(min_value=0, max_value=s - 1))))
    failed = sorted(draw(st.sets(st.integers(min_value=0, max_value=s - 1))))
    with_demands = draw(st.booleans())

    def rows(*shape):
        arr = rng.random((s, *shape))
        arr[nan_rows] = np.nan
        return arr

    common = dict(
        station_names=tuple(f"st{i}" for i in range(k)),
        solver=draw(st.sampled_from(["batched-mvasd", "stacked-linearizer"])),
        backend=draw(st.sampled_from([None, "serial", "batched"])),
        failures=tuple(
            ScenarioFailure(i, f"fp{i}", "mvasd", f"ValueError: bad {i}", i % 3)
            for i in failed
        ),
    )
    classes = tuple(f"cl{i}" for i in range(c))
    if kind is BatchedMVAResult:
        return BatchedMVAResult(
            populations=np.arange(1, n + 1),
            throughput=rows(n),
            response_time=rows(n),
            queue_lengths=rows(n, k),
            residence_times=rows(n, k),
            utilizations=rows(n, k),
            think_times=rng.random(s),
            demands_used=rows(n, k) if with_demands else None,
            **common,
        )
    if kind is BatchedMultiClassResult:
        return BatchedMultiClassResult(
            populations=tuple(int(p) for p in rng.integers(0, 9, size=c)),
            class_names=classes,
            throughput=rows(c),
            response_time=rows(c),
            queue_lengths=rows(k),
            queue_lengths_by_class=rows(k, c),
            utilizations=rows(k),
            think_times=rng.random(c),
            demands_used=rows(k, c) if with_demands else None,
            **common,
        )
    return BatchedMultiClassTrajectory(
        class_names=classes,
        totals=np.arange(1, n + 1),
        populations=rng.integers(0, 5, size=(n, c)),
        throughput=rows(n, c),
        response_time=rows(n, c),
        utilizations=rows(n, k),
        think_times=rng.random(c),
        demands_used=rows(n, k, c) if with_demands else None,
        **common,
    )

#: The shared array fields, likewise spelled out.
SHARED = {
    BatchedMVAResult: ("populations",),
    BatchedMultiClassResult: ("populations", "think_times"),
    BatchedMultiClassTrajectory: ("totals", "populations", "think_times"),
}


def _split(stack, cuts):
    """Sub-stacks between ``cuts``, failure indices local to each part."""
    bounds = [0, *cuts, len(stack)]
    parts = []
    for start, stop in zip(bounds, bounds[1:]):
        sliced = {}
        for name in PER_SCENARIO[type(stack)]:
            arr = getattr(stack, name)
            sliced[name] = None if arr is None else arr[start:stop]
        failures = tuple(
            replace(f, index=f.index - start)
            for f in stack.failures
            if start <= f.index < stop
        )
        parts.append(replace(stack, **sliced, failures=failures))
    return parts


@given(stack=stacks(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_concat_of_any_split_restores_the_stack(stack, data):
    s = len(stack)
    cuts = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=s - 1)))) if s > 1 else []
    parts = _split(stack, cuts)
    joined = ScenarioStack.concat(parts, "process-sharded")
    assert_same_stack(joined, replace(stack, backend="process-sharded"))


def test_concat_drops_demands_unless_every_part_has_them():
    rng = np.random.default_rng(3)
    full = BatchedMVAResult(
        populations=np.arange(1, 3),
        throughput=rng.random((2, 2)),
        response_time=rng.random((2, 2)),
        queue_lengths=rng.random((2, 2, 1)),
        residence_times=rng.random((2, 2, 1)),
        utilizations=rng.random((2, 2, 1)),
        station_names=("cpu",),
        think_times=rng.random(2),
        solver="batched-mvasd",
        demands_used=rng.random((2, 2, 1)),
    )
    first, second = _split(full, [1])
    joined = ScenarioStack.concat([first, replace(second, demands_used=None)], "remote")
    assert joined.demands_used is None
    assert_same_stack(joined, replace(full, demands_used=None, backend="remote"))


@given(stack=stacks())
@settings(max_examples=80, deadline=None)
def test_named_arrays_round_trip(stack):
    arrays, meta = stack.to_arrays()
    assert json.loads(json.dumps(meta)) == meta
    assert_same_stack(ScenarioStack.from_arrays(arrays, meta, stack.failures), stack)


@given(stack=stacks())
@settings(max_examples=40, deadline=None)
def test_checkpoint_record_load_round_trip(stack):
    clean = replace(stack, failures=())  # parts with failures never journal
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = SweepCheckpoint(Path(tmp) / "journal.jsonl")
        checkpoint.record("shard", clean)
        checkpoint.record("failed", stack)
        loaded = checkpoint.load()
    assert sorted(loaded) == (["shard"] if stack.failures else ["failed", "shard"])
    assert_same_stack(loaded["shard"], clean)


@given(stack=stacks())
@settings(max_examples=80, deadline=None)
def test_wire_round_trip(stack):
    line = json.dumps(encode_stack_result(stack))
    assert_same_stack(decode_stack_result(json.loads(line)), stack)


@given(stack=stacks())
@settings(max_examples=80, deadline=None)
def test_from_scalars_stacks_survivors_and_nans_the_failed(stack):
    kind = type(stack)
    failed = sorted(stack.failed_indices)
    survivors = {i: stack.scenario(i) for i in range(len(stack)) if i not in failed}
    given = (*SHARED[kind], "station_names", "solver", "backend")
    if kind is BatchedMVAResult:
        given += ("think_times",)  # the scalar results carry think_time
    else:
        given += ("class_names",)
    labels = {name: getattr(stack, name) for name in given}
    rebuilt = kind.from_scalars(survivors, len(stack), stack.failures, **labels)
    expected = {}
    for name in set(PER_SCENARIO[kind]) - set(given):
        arr = getattr(stack, name)
        # Only single-class scalar results carry demands.
        if arr is None or (
            name == "demands_used" and (kind is not BatchedMVAResult or not survivors)
        ):
            expected[name] = None
            continue
        arr = np.array(arr, dtype=float)
        arr[failed] = np.nan
        expected[name] = arr
    assert_same_stack(rebuilt, replace(stack, **expected))
