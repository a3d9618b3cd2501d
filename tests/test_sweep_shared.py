"""Shared-memory return of large :func:`parallel_map` results.

A worker whose result holds NumPy arrays writes them to a spool file and
sends only a handle through the pipe; the parent reads the file and
rebuilds the result.  These tests pin what that must not change — the
results are bit-identical to the pipe path and writable — and what it
must guarantee: no spool file or directory outlives the call, whatever
the call's fate, a received array keeps none of the spool's memory
alive, and an unreadable spool file is an infrastructure failure like
any other.
"""

import os
import tempfile
import time

import numpy as np
import pytest

from repro.core.network import ClosedNetwork, Station
from repro.engine import FaultPlan, RetryPolicy, faults, parallel_map, sweep
from repro.solvers import Scenario, solve_stack


@pytest.fixture(autouse=True)
def _disarm():
    yield
    faults.deactivate()


@pytest.fixture
def spy(monkeypatch):
    """Record every spool directory a call makes and every handle it receives."""
    record = {"spools": [], "spooled": 0}
    make, receive = sweep._make_spool, sweep._receive

    def recording_make():
        path = make()
        record["spools"].append(path)
        return path

    def recording_receive(result):
        record["spooled"] += getattr(result, "path", None) is not None
        return receive(result)

    monkeypatch.setattr(sweep, "_make_spool", recording_make)
    monkeypatch.setattr(sweep, "_receive", recording_receive)
    return record


def assert_cleaned(record):
    assert record["spools"], "parallel_map made no spool directory"
    for path in record["spools"]:
        assert path is not None and not os.path.exists(path)


def _arrays(item, payload):
    """Arrays of every layout and several dtypes, with edge-case floats."""
    rng = np.random.default_rng(item)
    base = rng.standard_normal((64, 9))
    base[0, :3] = (-0.0, np.nan, np.inf)
    return {
        "c": base,
        "fortran": np.asfortranarray(base),
        "strided": base[::3, 1:7],
        "transposed": base.T,
        "ints": rng.integers(-5, 5, size=(7, 3), dtype=np.int32),
        "flags": base > 0,
        "complex": base[:4, :4] + 1j * base[4:8, :4],
        "empty": np.empty((0, 3)),
        "scalar": np.float64(item),
        "nested": [base[:2].copy(), (np.arange(item + 5),)],
        "label": f"item {item}",
    }


def _plain(item, payload):
    return {"item": item, "squares": [i * i for i in range(item)], "name": str(item)}


def _pid_tagged(item, parent_pid):
    return {"a": np.full(4096, float(item)), "in_parent": os.getpid() == parent_pid}


def _crash_in_child(item, parent_pid):
    if item == 1 and os.getpid() != parent_pid:
        os._exit(1)
    return np.full(4096, float(item))


def _hang_in_child(item, parent_pid):
    if item == 1 and os.getpid() != parent_pid:
        time.sleep(30)
    return np.full(4096, float(item))


def _raise_on_negative(item, payload):
    if item < 0:
        raise ValueError(f"bad item {item}")
    return np.full(4096, float(item))


def assert_bit_identical(got, want):
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_bit_identical(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_bit_identical(g, w)
    elif isinstance(want, (np.ndarray, np.generic)):
        assert type(got) is type(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want


class TestBitIdentity:
    def test_matches_pipe_and_serial(self, spy, monkeypatch):
        items = [1, 2, 3]
        shared = parallel_map(_arrays, items, workers=2)
        assert spy["spooled"] == len(items)
        monkeypatch.setattr(sweep, "_make_spool", lambda: None)
        piped = parallel_map(_arrays, items, workers=2)
        serial = [_arrays(item, None) for item in items]
        for s, p, r in zip(shared, piped, serial):
            assert_bit_identical(s, p)
            assert_bit_identical(s, r)

    def test_layout_survives(self, spy):
        out = parallel_map(_arrays, [1, 2], workers=2)[0]
        assert out["c"].flags.c_contiguous
        assert out["fortran"].flags.f_contiguous
        assert out["transposed"].flags.f_contiguous
        assert all(a.flags.aligned for a in (out["c"], out["fortran"], out["ints"]))

    def test_results_without_arrays_use_the_pipe(self, spy):
        items = [3, 4, 5]
        assert parallel_map(_plain, items, workers=2) == [_plain(i, None) for i in items]
        assert spy["spooled"] == 0
        assert_cleaned(spy)

    def test_received_arrays_are_writable(self, spy):
        out = parallel_map(_arrays, [1, 2], workers=2)
        for result in out:
            for key in ("c", "fortran", "ints", "flags", "complex"):
                arr = result[key]
                assert arr.flags.writeable
                arr.flat[0] = arr.flat[1]
            result["nested"][0][:] = 7.0
        assert spy["spooled"] == 2

    def test_held_array_keeps_no_spool_memory(self, spy):
        # Holding one array (as _concat_results holds shard 0's
        # populations, which a SolverCache may keep) must not keep the
        # spool file, or any part of it, alive.
        held = parallel_map(_arrays, [1, 2], workers=2)[0]["ints"]
        owner = held
        while isinstance(owner, np.ndarray) and owner.base is not None:
            owner = owner.base
        assert isinstance(owner, np.ndarray) and owner.flags.owndata
        assert spy["spooled"] == 2
        assert_cleaned(spy)
        spools = [os.path.basename(path) for path in spy["spools"]]
        if os.path.exists("/proc/self/maps"):
            with open("/proc/self/maps") as maps:
                assert not [line for line in maps if any(s in line for s in spools)]
        if os.path.isdir("/proc/self/fd"):
            targets = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    targets.append(os.readlink(f"/proc/self/fd/{fd}"))
                except OSError:
                    pass  # the fd listdir itself used, now closed
            assert not [t for t in targets if any(s in t for s in spools)]
        assert_bit_identical(held, _arrays(1, None)["ints"])

    def test_solve_stack_process_sharded(self, spy):
        net = ClosedNetwork(
            [Station("web", demand=0.02, servers=4), Station("db", demand=0.05)],
            think_time=1.0,
        )
        stack = [Scenario(net, 40, demands=(0.02 + 0.001 * i, 0.05)) for i in range(8)]
        serial = solve_stack(stack, method="mvasd", backend="serial", cache=None)
        sharded = solve_stack(
            stack, method="mvasd", backend="process-sharded", workers=2, cache=None
        )
        assert spy["spooled"] == 2
        for name in ("throughput", "response_time", "queue_lengths", "utilizations"):
            assert_bit_identical(getattr(sharded, name), getattr(serial, name))
        assert_cleaned(spy)


class TestCleanup:
    """No spool outlives the call; normal returns are checked above."""

    def test_task_exception(self, spy):
        with pytest.raises(ValueError, match="bad item -1"):
            parallel_map(_raise_on_negative, [0, -1, 2, 3], workers=2)
        assert_cleaned(spy)

    def test_crashed_worker_recomputed_in_parent(self, spy):
        out = parallel_map(_crash_in_child, [0, 1, 2], workers=2, payload=os.getpid())
        for item, arr in enumerate(out):
            assert_bit_identical(arr, np.full(4096, float(item)))
        assert_cleaned(spy)

    def test_timeout_abandons_pool(self, spy):
        out = parallel_map(
            _hang_in_child, [0, 1, 2], workers=2, payload=os.getpid(), timeout=0.5
        )
        for item, arr in enumerate(out):
            assert_bit_identical(arr, np.full(4096, float(item)))
        assert_cleaned(spy)

    @pytest.mark.parametrize("backend", ["process-sharded", "resilient"])
    def test_crash_worker_fault(self, spy, backend):
        net = ClosedNetwork(
            [Station("web", demand=0.02), Station("db", demand=0.05)], think_time=1.0
        )
        stack = [Scenario(net, 30, think_time=0.5 + 0.1 * i) for i in range(6)]
        serial = solve_stack(stack, method="exact-mva", backend="serial", cache=None)
        options = {"retry_policy": RetryPolicy(backoff_base=0.01)} if backend == "resilient" else {}
        with faults.injected(FaultPlan.parse("crash-worker@shard=0")):
            result = solve_stack(
                stack, method="exact-mva", backend=backend, workers=2, cache=None,
                **options,
            )
        assert not result.failures
        assert_bit_identical(result.throughput, serial.throughput)
        assert_bit_identical(result.response_time, serial.response_time)
        assert_cleaned(spy)


class TestFallbacks:
    def test_unwritable_dev_shm_uses_the_temp_dir(self, spy, monkeypatch):
        access = os.access
        monkeypatch.setattr(
            os, "access", lambda path, mode: path != "/dev/shm" and access(path, mode)
        )
        items = [1, 2]
        out = parallel_map(_arrays, items, workers=2)
        assert spy["spooled"] == len(items)
        temp = os.path.realpath(tempfile.gettempdir())
        assert all(os.path.dirname(os.path.realpath(p)) == temp for p in spy["spools"])
        for got, item in zip(out, items):
            assert_bit_identical(got, _arrays(item, None))
        assert_cleaned(spy)

    @pytest.fixture(params=["unlink", "truncate"])
    def sabotaged(self, request, monkeypatch):
        """Spoil the first spool file the parent receives."""
        receive = sweep._receive
        spoiled = []

        def spoiling_receive(result):
            if isinstance(result, sweep._SpooledResult) and not spoiled:
                spoiled.append(result.path)
                if request.param == "unlink":
                    os.unlink(result.path)
                else:
                    os.truncate(result.path, 100)
            return receive(result)

        monkeypatch.setattr(sweep, "_receive", spoiling_receive)
        return spoiled

    def test_unreadable_handle_is_recomputed_in_parent(self, spy, sabotaged):
        out = parallel_map(_pid_tagged, [0, 1], workers=2, payload=os.getpid())
        assert sabotaged
        assert [r["in_parent"] for r in out] == [True, False]
        for item, result in enumerate(out):
            assert_bit_identical(result["a"], np.full(4096, float(item)))
        assert_cleaned(spy)

    def test_unreadable_handle_is_returned_as_an_infra_error(self, sabotaged):
        out = parallel_map(
            _pid_tagged, [0, 1], workers=2, payload=os.getpid(), return_exceptions=True
        )
        assert isinstance(out[0], OSError)
        assert out[1]["in_parent"] is False
