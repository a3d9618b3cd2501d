"""The compiled MVASD kernel split over threads by scenario rows.

A large stack's rows are cut into contiguous chunks, one
``mvasd_recursion`` call per chunk on its own thread
(``engine.batched._mvasd_levels_native``).  The C scenario loop is
outermost and the rows are independent, so the split must reproduce one
call over all rows bit for bit; an error in any chunk must reach the
caller; no thread may outlive the call; and the thread-count rule of
``engine.native.kernel_threads`` must keep small stacks, ``S = 1``
solves, one-CPU hosts and fan-out workers on one thread.
"""

import os
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClosedNetwork, Station
from repro.engine import batched_mvasd, fabric, native, parallel_map
from repro.engine.batched import _mvasd_levels
from repro.solvers import Scenario, solve_stack

pytestmark = pytest.mark.skipif(
    native.mvasd_kernel() is None, reason="the native MVASD kernel cannot be built on this host"
)

FIELDS = ("xs", "rs", "qs", "rks", "utils")


def _forced(monkeypatch, threads):
    """Make every kernel call split into ``threads`` chunks (at most one per row)."""
    monkeypatch.setattr(native, "kernel_threads", lambda rows, levels: min(threads, rows))


def _solve(net, matrices, z, threads, **kwargs):
    """``_mvasd_levels`` on the kernel with ``threads`` chunks, history and final marginals on."""
    with pytest.MonkeyPatch.context() as mp:
        _forced(mp, threads)
        return _mvasd_levels(
            native.mvasd_kernel(), net, matrices, z, False, history=True, final=True, **kwargs
        )


def _new_threads(before):
    """Threads alive now that were not in ``before``.

    Compared as sets rather than by ``threading.active_count()``: a pool's
    management thread left by an earlier test may end in between.
    """
    return set(threading.enumerate()) - before


def _assert_same(got, want, start=0):
    """Equal bits from level ``start`` on (the rows below it are the caller's)."""
    *levels, hist, final = got
    *ref_levels, ref_hist, ref_final = want
    for name, a, b in zip(FIELDS, levels, ref_levels):
        assert np.array_equal(a[:, start:], b[:, start:], equal_nan=True), name
    assert hist.keys() == ref_hist.keys()
    for name in hist:
        a, b = hist[name][:, start:], ref_hist[name][:, start:]
        assert np.array_equal(a, b, equal_nan=True), name
    assert final.keys() == ref_final.keys()
    for name in final:
        assert np.array_equal(final[name], ref_final[name], equal_nan=True), name


@st.composite
def split_cases(draw):
    """A network with delay stations and C > N, a demand stack and a resume level."""
    k = draw(st.integers(min_value=1, max_value=4))
    kinds = [draw(st.sampled_from(["queue", "queue", "delay"])) for _ in range(k)]
    kinds[0] = "queue"
    population = draw(st.integers(min_value=1, max_value=40))
    stations = [
        Station(
            f"st{i}",
            0.0,
            # Up to 16 servers against populations from 1: C > N is common.
            servers=draw(st.integers(min_value=1, max_value=16)) if kind == "queue" else 1,
            kind=kind,
        )
        for i, kind in enumerate(kinds)
    ]
    net = ClosedNetwork(stations, think_time=1.0)
    s = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    load = draw(st.floats(min_value=1e-3, max_value=2.0))
    matrices = load * net.servers() * rng.uniform(0.5, 1.5, size=(s, population, k)) / 10.0
    z = rng.uniform(0.0, 2.0, size=s)
    start = draw(st.integers(min_value=0, max_value=population))
    threads = draw(st.integers(min_value=2, max_value=5))
    return net, matrices, z, start, threads


@given(case=split_cases())
@settings(max_examples=60, deadline=None)
def test_split_kernel_is_bit_identical_to_one_call(case):
    net, matrices, z, start, threads = case
    init = {}
    if start:
        # Resume from the state a solve of the first `start` levels ends in.
        *levels, _, final = _solve(net, matrices[:, :start], z, 1)
        s, k = matrices.shape[0], len(net)
        init_p = np.ones((s, k, start + 1))
        for i, st_ in enumerate(net.stations):
            if st_.name in final:
                init_p[:, i] = final[st_.name]
        init = {"start": start, "init_p": init_p, "init_q": levels[2][:, start - 1]}
    one = _solve(net, matrices, z, 1, **init)
    split = _solve(net, matrices, z, threads, **init)
    _assert_same(split, one, start)


@given(
    s=st.integers(min_value=2, max_value=12),
    threads=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_split_keeps_masked_rows_nan_and_the_rest_identical(s, threads, seed):
    net = ClosedNetwork(
        [Station("web", 0.0, servers=4), Station("app", 0.0, servers=2), Station("db", 0.0)],
        think_time=1.0,
    )
    rng = np.random.default_rng(seed)
    matrices = rng.uniform(0.002, 0.03, size=(s, 20, 3))
    mask = rng.random(s) < 0.6
    matrices[~mask] = np.nan  # masked rows may carry garbage
    z = rng.uniform(0.0, 2.0, size=s)
    one = batched_mvasd(net, 20, matrices, think_times=z, mask=mask)
    with pytest.MonkeyPatch.context() as mp:
        _forced(mp, threads)
        split = batched_mvasd(net, 20, matrices, think_times=z, mask=mask)
    for field in ("throughput", "response_time", "queue_lengths", "residence_times",
                  "utilizations", "demands_used"):
        assert np.array_equal(getattr(split, field), getattr(one, field), equal_nan=True), field
    assert np.isnan(split.throughput[~mask]).all()


def _benchmark_network():
    return ClosedNetwork(
        [Station("web", 0.0, servers=4), Station("app", 0.0, servers=2), Station("db", 0.0)],
        think_time=1.0,
    )


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_rule_sized_stacks_around_the_threshold_match_one_call(offset, monkeypatch):
    """The real rule at the break-even (split or not, by the host's CPUs) changes no bit."""
    monkeypatch.setattr(native, "usable_cpus", lambda: 2)
    n = 60
    s = 2 * native.MIN_LEVELS_PER_THREAD // n + offset
    assert native.kernel_threads(s, n) == (2 if offset >= 0 else 1)
    net = _benchmark_network()
    rng = np.random.default_rng(s)
    matrices = rng.uniform(0.002, 0.03, size=(s, n, 3))
    z = rng.uniform(0.5, 2.0, size=s)
    kernel = native.mvasd_kernel()
    ruled = _mvasd_levels(kernel, net, matrices, z, False, history=True, final=True)
    _assert_same(ruled, _solve(net, matrices, z, 1))


def test_real_rule_on_a_split_sized_stack_matches_one_call():
    """Nothing patched: the host's own CPUs decide, and no bit changes.

    A stack of twice the per-thread minimum at N = 300 splits on a host
    with two or more usable CPUs and stays one call on one CPU (as under
    ``taskset -c 0``).
    """
    n = 300
    s = 2 * native.MIN_LEVELS_PER_THREAD // n
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert native.kernel_threads(s, n) == min(cpus, 2)
    net = _benchmark_network()
    rng = np.random.default_rng(11)
    matrices = rng.uniform(0.002, 0.03, size=(s, n, 3))
    z = rng.uniform(0.5, 2.0, size=s)
    ruled = _mvasd_levels(native.mvasd_kernel(), net, matrices, z, False, history=True, final=True)
    _assert_same(ruled, _solve(net, matrices, z, 1))


class _FailingLib:
    """``mvasd_recursion`` that raises for the chunk of ``fail_rows`` rows."""

    def __init__(self, lib, fail_rows):
        self._lib = lib
        self._fail_rows = fail_rows

    def mvasd_recursion(self, s, *args):
        if s == self._fail_rows:
            raise RuntimeError(f"chunk of {s} rows failed")
        return self._lib.mvasd_recursion(s, *args)


@pytest.mark.parametrize("fail_rows", [2, 3], ids=["calling-thread", "worker-thread"])
def test_error_in_one_chunk_reaches_the_caller(fail_rows, monkeypatch):
    # Seven rows in three chunks: 2 (the calling thread), 2 and 3 rows.
    real = native.mvasd_kernel()
    kernel = types.SimpleNamespace(ffi=real.ffi, lib=_FailingLib(real.lib, fail_rows))
    net = _benchmark_network()
    matrices = np.random.default_rng(3).uniform(0.002, 0.03, size=(7, 10, 3))
    _forced(monkeypatch, 3)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match=f"chunk of {fail_rows} rows failed"):
        _mvasd_levels(kernel, net, matrices, np.ones(7), False)
    assert not _new_threads(before)


def test_no_thread_outlives_a_split_solve(monkeypatch):
    net = _benchmark_network()
    matrices = np.random.default_rng(4).uniform(0.002, 0.03, size=(64, 30, 3))
    _forced(monkeypatch, 4)
    before = set(threading.enumerate())
    batched_mvasd(net, 30, matrices)
    assert not _new_threads(before)


def _threads_in_worker(rows, _payload):
    return native.kernel_threads(rows, 300)


def test_thread_rule(monkeypatch):
    monkeypatch.setattr(native, "usable_cpus", lambda: 4)
    per_thread = native.MIN_LEVELS_PER_THREAD // 300
    assert native.kernel_threads(1024, 300) == 4
    assert native.kernel_threads(2 * per_thread, 300) == 2
    assert native.kernel_threads(2 * per_thread - 1, 300) == 1
    # S = 1 never splits, however deep the recursion.
    assert native.kernel_threads(1, 10 * native.MIN_LEVELS_PER_THREAD) == 1
    # A fan-out worker keeps one thread; the flag it sets dies with it.
    assert parallel_map(_threads_in_worker, [1024, 1024], workers=2) == [1, 1]
    assert native.kernel_threads(1024, 300) == 4
    # One usable CPU: never a split.
    monkeypatch.setattr(native, "usable_cpus", lambda: 1)
    assert native.kernel_threads(1024, 300) == 1


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(native.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert native.usable_cpus() == 1
    assert native.kernel_threads(1024, 300) == 1
    # Without an affinity API the CPU count stands in.
    monkeypatch.delattr(native.os, "sched_getaffinity")
    monkeypatch.setattr(native.os, "cpu_count", lambda: 3)
    assert native.usable_cpus() == 3


def test_fan_out_after_a_split_solve_completes_without_fallback(monkeypatch):
    net = _benchmark_network()
    stack = [
        Scenario(net, 40, demand_matrix=np.full((40, 3), 0.01 * (1.0 + i / 64)))
        for i in range(64)
    ]
    before = set(threading.enumerate())
    with pytest.MonkeyPatch.context() as mp:
        _forced(mp, 4)
        in_driver = solve_stack(stack, method="mvasd", backend="batched", cache=None)
    assert not _new_threads(before)

    def no_fallback(name):
        raise AssertionError(f"shard fell back to the in-driver {name!r} backend")

    monkeypatch.setattr(fabric, "get_backend", no_fallback)
    sharded = solve_stack(stack, method="mvasd", backend="process-sharded", workers=2, cache=None)
    assert sharded.backend == "process-sharded"
    for field in ("throughput", "queue_lengths", "utilizations"):
        assert np.array_equal(getattr(sharded, field), getattr(in_driver, field)), field
