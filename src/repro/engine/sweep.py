"""Fork-join execution of scenario grids.

The batched kernels (:mod:`repro.engine.batched`) cover sweeps whose
scenarios share one recursion; everything else in the repo — DES
replications, Fig. 17 pipeline validations, what-if grids — is an
*embarrassingly parallel* collection of independent Python tasks.  This
module supplies the fork-join layer for those:

* :class:`ScenarioGrid` — a declarative cartesian-product builder for
  parameter grids (the multi-load-point pattern of queue_flex's
  ``parallel/`` wrapper);
* :func:`parallel_map` — an ordered ``ProcessPoolExecutor`` map with a
  serial fallback (``workers=1``, a single task, pools unavailable, or
  unpicklable tasks) so callers never need two code paths;
* :func:`spawn_seeds` (re-exported from :mod:`repro.simulation.rng`) —
  deterministic per-task seed derivation via
  ``numpy.random.SeedSequence.spawn``, computed *before* any task is
  dispatched so results are bit-identical regardless of worker count.

Determinism contract: a caller that derives all stochastic inputs from
:func:`spawn_seeds` and maps a pure task function over them gets the
same results for every ``workers`` value — the executor only changes
*where* tasks run, never *what* they compute.

:func:`parallel_map` is also the engine underneath the fabric's
:class:`~repro.engine.transport.LocalProcessTransport`: the dispatcher
(:mod:`repro.engine.fabric`) plans and journals shards, and this module
is the process-pool "wire" those shards travel when the transport is
local rather than a fleet of ``repro worker`` hosts.

Implementation note: tasks are shipped to workers by pickle, but large
unpicklable context (e.g. an :class:`~repro.apps.base.Application`,
whose demand profiles are closures) can ride along as the ``payload``
argument — it is published to a module global before the pool forks, so
children inherit it through the process image instead of the pipe.  On
platforms without ``fork`` the payload path transparently degrades to
serial execution.

Large results travel back without the pipe: the worker pickles its
result with protocol 5, writes the out-of-band buffers (every contiguous
NumPy array in it) into one file in a per-call spool directory — on
``/dev/shm`` when it is writable — and returns only a small handle.  The
parent reads the buffers back, unlinks the file and rebuilds the result,
so the arrays arrive writable and bit-identical without crossing the
pipe.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import native
from ..simulation.rng import spawn_seeds

__all__ = ["ScenarioGrid", "parallel_map", "resolve_workers", "spawn_seeds"]

#: Exceptions that mean "the pool plumbing failed", not "the task failed":
#: unpicklable tasks/results, sandboxed environments, crashed workers.
#: Items that hit these are recomputed serially in the parent.
_INFRA_ERRORS = (
    BrokenProcessPool,
    pickle.PicklingError,
    AttributeError,
    TypeError,
    OSError,
)

#: Fork-inherited context for the currently running :func:`parallel_map`.
_PAYLOAD: Any = None


@dataclass(frozen=True)
class _SpooledResult:
    """What a worker sends through the pipe in place of its result."""

    meta: bytes              # the protocol-5 pickle, buffers left out
    path: str | None         # spool file holding the buffers back to back
    sizes: tuple[int, ...]   # byte length of each buffer, in pickle order


def _invoke(fn: Callable, item: Any, spool: str | None):
    """Worker-side trampoline: re-attach the fork-inherited payload.

    The worker's compiled-kernel calls keep one thread
    (:func:`~repro.engine.native.mark_fan_out_child`): its siblings
    already occupy the other cores.

    A result holding out-of-band buffers is written to a file in
    ``spool``; the pipe then carries only the pickled rest of it and the
    file's name.  A result without such buffers (or one the spool cannot
    take) goes back through the pipe whole.
    """
    native.mark_fan_out_child()
    result = fn(item, _PAYLOAD)
    if spool is None:
        return result
    buffers: list[pickle.PickleBuffer] = []
    meta = pickle.dumps(result, protocol=5, buffer_callback=buffers.append)
    if not buffers:
        return _SpooledResult(meta, None, ())
    raws = [buf.raw() for buf in buffers]
    path = None
    try:
        fd, path = tempfile.mkstemp(dir=spool)
        with os.fdopen(fd, "wb") as out:
            for raw in raws:
                out.write(raw)
    except OSError:  # e.g. the spool's filesystem is full
        if path is not None:
            os.unlink(path)
        return result
    return _SpooledResult(meta, path, tuple(raw.nbytes for raw in raws))


def _receive(result: Any) -> Any:
    """Parent side: rebuild a spooled result from its file.

    Each buffer is read into a byte array of its own (left uninitialised,
    so its pages are written once) and the file is unlinked at once: the
    arrays are writable, own their memory and keep nothing of the spool
    alive.  A missing or short file raises ``OSError``, which
    :func:`parallel_map` treats as an infrastructure failure.
    """
    if not isinstance(result, _SpooledResult):
        return result
    buffers = [np.empty(size, dtype=np.uint8) for size in result.sizes]
    if result.path is not None:
        try:
            with open(result.path, "rb") as spooled:
                if os.fstat(spooled.fileno()).st_size != sum(result.sizes):
                    raise OSError(f"spool file {result.path} is truncated")
                for buf in buffers:
                    spooled.readinto(buf)
        finally:
            try:
                os.unlink(result.path)
            except OSError:
                pass
    return pickle.loads(result.meta, buffers=buffers)


def _make_spool() -> str | None:
    """Private directory for one call's spooled results; ``None``: use the pipe."""
    shm = "/dev/shm"
    base = shm if os.path.isdir(shm) and os.access(shm, os.W_OK) else None
    try:
        return tempfile.mkdtemp(prefix="repro-sweep-", dir=base)
    except OSError:
        return None


def _remove_spool(spool: str) -> None:
    """Delete a call's spool directory and whatever results it still holds.

    A worker still running a task the parent gave up on (a task
    exception, an abandoned pool) can add a file while the tree is being
    removed; a second pass removes that too, and once the directory is
    gone such a worker answers through the pipe instead of leaving a file.
    """
    for _ in range(2):
        shutil.rmtree(spool, ignore_errors=True)
        if not os.path.isdir(spool):
            return


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``workers`` request: ``None`` means one per CPU core."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return int(workers)


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Give up on a pool whose workers may be wedged, without blocking.

    Terminates the worker processes (guarded — ``_processes`` is
    CPython-private) so a hung task cannot keep the interpreter alive,
    then requests a non-blocking shutdown.  Pending futures surface
    ``BrokenProcessPool``/cancellation, which the caller already treats
    as per-item infrastructure failures.
    """
    try:
        for proc in list(getattr(pool, "_processes", {}).values()):
            proc.terminate()
    except Exception:
        pass
    pool.shutdown(wait=False, cancel_futures=True)


def parallel_map(
    fn: Callable,
    items: Sequence,
    workers: int | None = 1,
    payload: Any = None,
    timeout: float | None = None,
    return_exceptions: bool = False,
) -> list:
    """Apply ``fn(item, payload)`` to every item, results in input order.

    With ``workers > 1`` the items are fanned out over a
    ``ProcessPoolExecutor`` (fork start method, so ``payload`` is
    inherited by the children without pickling); with ``workers=1``, a
    single item, or when process pools are unusable (no ``fork`` start
    method, unpicklable tasks/results, sandboxed environments) the map
    runs serially in-process.  ``fn`` must be a module-level callable and
    each ``item``/result picklable for the parallel path; the serial
    fallback has no such requirement.

    Failure handling distinguishes *infrastructure* failures from *task*
    failures:

    * a crashed worker (``BrokenProcessPool`` — the OOM-killer model), an
      unpicklable task/result, or an item exceeding ``timeout`` seconds
      is an infrastructure failure — the item is recomputed serially in
      the parent (a hung pool is abandoned first, so a wedged worker
      cannot stall the run);
    * an exception raised *by* ``fn`` is a task failure and propagates
      unchanged — deterministic errors must not be blindly retried.

    With ``return_exceptions=True`` neither is retried or raised:
    failed items come back as their exception objects in the results
    list, which is how the fabric's :class:`~repro.engine.fabric.
    Dispatcher` implements the local fan-out's retry policy and
    in-driver re-solve on top of this primitive.
    ``KeyboardInterrupt`` always cancels outstanding work and shuts the
    pool down without waiting before re-raising.

    The function itself introduces no nondeterminism: task inputs are
    fixed before dispatch and outputs are reassembled in input order, so
    any ``workers`` value produces identical results for pure tasks.
    """
    global _PAYLOAD
    items = list(items)
    n_workers = min(resolve_workers(workers), len(items))
    serial = n_workers <= 1
    if not serial:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            serial = True
    if serial:
        if not return_exceptions:
            return [fn(item, payload) for item in items]
        results = []
        for item in items:
            try:
                results.append(fn(item, payload))
            except Exception as exc:
                results.append(exc)
        return results

    previous_payload = _PAYLOAD
    _PAYLOAD = payload
    pool = ProcessPoolExecutor(max_workers=n_workers, mp_context=context)
    spool = _make_spool()
    abandoned = False
    try:
        try:
            futures = [pool.submit(_invoke, fn, item, spool) for item in items]
        except _INFRA_ERRORS:
            # Submission itself failed (e.g. unpicklable fn): all serial.
            if return_exceptions:
                return parallel_map(fn, items, workers=1, payload=payload,
                                    return_exceptions=True)
            return [fn(item, payload) for item in items]
        results: list = [None] * len(items)
        failed: dict[int, BaseException] = {}
        for i, future in enumerate(futures):
            if abandoned and not future.done():
                failed[i] = TimeoutError(
                    f"task {i} abandoned after a pool timeout"
                )
                continue
            try:
                results[i] = _receive(future.result(timeout=timeout))
            except (FuturesTimeoutError, TimeoutError):
                failed[i] = TimeoutError(
                    f"task {i} exceeded the {timeout}s pool timeout"
                )
                # The worker may be wedged; never block on it again.
                _abandon_pool(pool)
                abandoned = True
            except _INFRA_ERRORS as exc:
                failed[i] = exc
            except Exception as exc:
                if return_exceptions:
                    failed[i] = exc
                else:
                    raise  # a task failure: propagate unchanged
        for i, exc in failed.items():
            if return_exceptions:
                results[i] = exc
            else:
                # Infrastructure failure: recompute the item in-parent.
                results[i] = fn(items[i], payload)
        return results
    except KeyboardInterrupt:
        _abandon_pool(pool)
        raise
    finally:
        if not abandoned:
            pool.shutdown(wait=False, cancel_futures=True)
        if spool is not None:
            _remove_spool(spool)
        _PAYLOAD = previous_payload


@dataclass(frozen=True)
class ScenarioGrid:
    """A cartesian product of named parameter axes.

    Build with :meth:`product`, iterate to get one ``dict`` per
    scenario in row-major order (last axis fastest — stable across
    runs, so grid indices are reproducible identifiers)::

        grid = ScenarioGrid.product(
            demand_scale=(0.75, 1.0, 1.25),
            think_time=(0.5, 1.0),
        )
        len(grid)        # 6
        list(grid)[0]    # {"demand_scale": 0.75, "think_time": 0.5}

    The grid is purely declarative — feed the combinations to
    :func:`parallel_map`, to the batched kernels (via a demand-stack
    builder), or to :func:`repro.analysis.whatif.evaluate_scenarios`.
    """

    axes: tuple[tuple[str, tuple], ...]

    @classmethod
    def product(cls, **axes: Sequence) -> "ScenarioGrid":
        """Grid from keyword axes; each value is the axis's points."""
        if not axes:
            raise ValueError("need at least one axis")
        normalized = []
        for name, values in axes.items():
            values = tuple(values)
            if not values:
                raise ValueError(f"axis {name!r} has no points")
            normalized.append((name, values))
        return cls(axes=tuple(normalized))

    @classmethod
    def from_scenarios(cls, scenarios: Sequence[Mapping]) -> list[dict]:
        """Normalize an explicit scenario list (no product) to dicts."""
        return [dict(sc) for sc in scenarios]

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    def __len__(self) -> int:
        size = 1
        for _, values in self.axes:
            size *= len(values)
        return size

    def __iter__(self):
        names = self.axis_names
        for combo in itertools.product(*(values for _, values in self.axes)):
            yield dict(zip(names, combo))

    def combinations(self) -> list[dict]:
        """All scenarios as a list (row-major order)."""
        return list(self)

    def labels(self) -> list[str]:
        """One compact ``axis=value`` label per scenario, same order."""
        return [
            ", ".join(f"{name}={value}" for name, value in combo.items())
            for combo in self
        ]

    def scenarios(self, base) -> list:
        """Materialize the grid as solver :class:`~repro.solvers.Scenario`\\ s.

        Each combination is applied to ``base`` via
        :meth:`~repro.solvers.scenario.Scenario.with_overrides`, so the
        grid axes must be override axes (``demand_scale``, ``think_time``,
        ``max_population``).  The resulting stack feeds
        :func:`repro.solvers.solve_stack` directly::

            grid = ScenarioGrid.product(demand_scale=(0.8, 1.0, 1.2))
            batch = solve_stack(grid.scenarios(Scenario(net, 100)))
        """
        supported = {"demand_scale", "think_time", "max_population"}
        unknown = set(self.axis_names) - supported
        if unknown:
            raise ValueError(
                f"scenario grid axes {sorted(unknown)} are not Scenario "
                f"override axes; supported: {sorted(supported)}"
            )
        return [base.with_overrides(**combo) for combo in self]
