"""Pluggable execution backends for ``solve_stack``.

The facade decides *what* to solve (method selection, validation,
caching); a backend decides *how* the stack is executed:

``serial``
    The per-scenario scalar loop (:func:`solve_each`), stacked by
    :meth:`~repro.engine.batched.ScenarioStack.from_scalars` into the
    container the method returns.  Works for every trajectory method;
    the fallback when no batched kernel exists.
``batched``
    One vectorized :mod:`repro.engine.batched` recursion advancing all
    scenarios together.  Requires the method to register a
    ``batched_kernel``.
``process-sharded`` / ``resilient``
    The local fan-out (:class:`ProcessShardedBackend`): a
    :class:`~repro.engine.fabric.Dispatcher` over a
    :class:`~repro.engine.transport.LocalProcessTransport` splits the
    stack into contiguous sub-stacks, solves each in a forked
    :func:`repro.engine.sweep.parallel_map` worker (each worker runs the
    method's best in-process backend), and joins the parts with
    :meth:`~repro.engine.batched.ScenarioStack.concat`.  The scenario
    list rides to the workers as the fork-inherited payload, so
    scenarios with unpicklable demand callables shard fine; only the
    chunk *bounds* and the result arrays cross the process boundary.
    The two names differ only in the retry policy: ``process-sharded``
    makes one attempt with no shard timeout, ``resilient`` retries with
    backoff under the default
    :class:`~repro.engine.resilience.RetryPolicy`.

All of them produce trajectories that agree bit for bit — the parity
suite in ``tests/test_backends.py`` pins serial vs batched vs the local
fan-out for every registered single-class method with a kernel.

This module must not import :mod:`repro.solvers` at module scope (the
solvers package imports the engine); worker entry points import the
facade lazily.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Mapping, Protocol, Sequence

import numpy as np

from . import faults
from .batched import (
    BatchedMultiClassResult,
    BatchedMultiClassTrajectory,
    BatchedMVAResult,
    ScenarioFailure,
    _batched_mvasd_throughput,
    batched_exact_multiclass,
    batched_exact_mva,
    batched_ld_mva,
    batched_multiclass_mvasd,
    batched_mvasd,
    batched_schweitzer_amva,
    mix_populations,
)
from .sweep import resolve_workers

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids the import cycle
    from ..solvers.registry import SolverSpec
    from ..solvers.scenario import Scenario

__all__ = [
    "BatchedBackend",
    "ExecutionBackend",
    "ProcessShardedBackend",
    "SerialBackend",
    "backend_names",
    "get_backend",
    "scenario_offset",
    "shard_bounds",
    "solve_each",
]


class ExecutionBackend(Protocol):
    """How a stack of topology-sharing scenarios gets executed."""

    name: str

    def run(
        self,
        spec: "SolverSpec",
        scenarios: Sequence["Scenario"],
        options: Mapping[str, Any],
    ) -> BatchedMVAResult:
        """Solve every scenario with ``spec`` and stack the trajectories."""
        ...  # pragma: no cover - protocol


class SerialBackend:
    """Per-scenario scalar loop, stacked into one batched container."""

    name = "serial"

    def run(self, spec, scenarios, options):
        return solve_each(spec, scenarios, options)


def _failure_record(
    scenario: "Scenario", index: int, solver: str, exc: BaseException, retries: int
) -> ScenarioFailure:
    try:
        fingerprint = scenario.fingerprint()
    except Exception:
        # A demand model broken enough to fail fingerprinting still gets
        # a record — the index and error keep it actionable.
        fingerprint = "<unavailable>"
    return ScenarioFailure(
        index=index,
        fingerprint=fingerprint,
        solver=solver,
        error=f"{type(exc).__name__}: {exc}",
        retries=retries,
    )


def solve_each(spec, scenarios, options, isolate: bool = False, retries: int = 0):
    """Solve every scenario with its scalar solver and stack the results.

    The ``serial`` backend: the first error propagates.  With ``isolate``
    (:func:`~repro.engine.resilience.solve_isolated`) a failing scenario
    becomes a :class:`ScenarioFailure` stamped with ``retries`` and NaN
    rows instead.  Labels and think times come from the scenarios, so a
    stack with no survivor still has its full shape.
    """
    scenarios = list(scenarios)
    offset = _scenario_offset()
    results: dict[int, Any] = {}
    failures: list[ScenarioFailure] = []
    for i, sc in enumerate(scenarios):
        try:
            faults.maybe_inject("kernel", scenario=offset + i)
            results[i] = spec.solve(sc, **options)
        except Exception as exc:
            if not isolate:
                raise
            failures.append(_failure_record(sc, i, spec.name, exc, retries))

    first_sc = scenarios[0]
    first = next(iter(results.values()), None)
    n = first_sc.max_population
    fields: dict[str, Any] = {"station_names": first_sc.station_names, "backend": "serial"}
    if spec.returns != "multiclass":
        if first is None:
            fields.update(populations=np.arange(1, n + 1), solver=spec.name)
        else:
            # The concrete scalar label ("stacked-linearizer-amva", not the
            # registry alias) — cache keys and bench reports depend on it.
            fields["solver"] = f"stacked-{first.solver}"
        return BatchedMVAResult.from_scalars(
            results,
            len(scenarios),
            failures,
            think_times=np.array([sc.think for sc in scenarios]),
            **fields,
        )
    # Multi-class scalar results carry no per-result solver label; the
    # registry name is the concrete one.
    fields.update(
        class_names=first_sc.class_names,
        think_times=np.asarray(first_sc.class_think_times, dtype=float),
        solver=f"stacked-{spec.name}",
    )
    trajectory = (
        hasattr(first, "totals")
        if first is not None
        else spec.batched_kernel == "multiclass-mvasd"
    )
    if results:
        # Nor do they carry the demands they used: take the solved
        # scenarios' own, as the batched kernels report them (NaN rows
        # for the failures).
        source = "multiclass_demand_tensor" if trajectory else "multiclass_demand_matrix"
        rows = {i: getattr(scenarios[i], source)(spec.name) for i in results}
        used = np.full((len(scenarios), *next(iter(rows.values())).shape), np.nan)
        for i, row in rows.items():
            used[i] = row
        fields["demands_used"] = used
    if not trajectory:
        return BatchedMultiClassResult.from_scalars(
            results, len(scenarios), failures,
            populations=first_sc.class_populations, **fields,
        )
    if first is None:
        # No survivor to copy the mix sweep from: recompute the
        # apportionment the solver would have used.
        fields["totals"], fields["populations"] = mix_populations(
            first_sc.class_populations, n
        )
    return BatchedMultiClassTrajectory.from_scalars(
        results, len(scenarios), failures, **fields
    )


def _demand_axis(options: Mapping[str, Any]) -> str:
    """MVASD's ``demand_axis`` option, refused as the scalar solver refuses it."""
    axis = options.get("demand_axis", "population")
    if axis not in ("population", "throughput"):
        raise ValueError(f"demand_axis must be 'population' or 'throughput', got {axis!r}")
    return axis


def _kernel_input(spec: "SolverSpec", scenario: "Scenario", options: Mapping[str, Any]):
    """The per-scenario input row the method's batched kernel consumes.

    Extracting rows one scenario at a time (rather than inside the
    kernel) is what lets the ``errors="isolate"`` path probe each
    scenario independently and substitute a placeholder for poisoned
    rows before the single vectorized call.  Every row is an array
    except on MVASD's throughput axis, whose fixed point evaluates the
    scenario's demand curves at throughputs it finds on the way.
    """
    kernel = spec.batched_kernel
    if kernel in ("exact-mva", "schweitzer-amva"):
        return scenario.fixed_demands(spec.name)
    if kernel == "mvasd":
        if _demand_axis(options) == "throughput":
            return scenario.demand_fns(spec.name)
        return scenario.resolved_demand_matrix(spec.name)
    if kernel == "ld-mva":
        # Packed (K, N+1) row: demand column + the mu_k(j) rate matrix.
        return np.concatenate(
            [scenario.fixed_demands(spec.name)[:, None], scenario.ld_rate_matrix(spec.name)],
            axis=1,
        )
    if kernel == "exact-multiclass":
        return scenario.multiclass_demand_matrix(spec.name)
    if kernel == "multiclass-mvasd":
        return scenario.multiclass_demand_tensor(spec.name)
    from ..solvers.validation import SolverInputError

    raise SolverInputError(f"{spec.name}: unknown batched kernel {kernel!r}")


def _kernel_input_shape(spec: "SolverSpec", scenario: "Scenario") -> tuple[int, ...]:
    """Shape of one kernel input row — for masked-out placeholder rows."""
    k = len(scenario.network.stations)
    n = scenario.max_population
    kernel = spec.batched_kernel
    if kernel in ("exact-mva", "schweitzer-amva"):
        return (k,)
    if kernel == "mvasd":
        return (n, k)
    if kernel == "ld-mva":
        return (k, n + 1)
    c = len(scenario.classes) if scenario.is_multiclass else 0
    if kernel == "exact-multiclass":
        return (k, c)
    return (n, k, c)


def _run_kernel(spec, scenarios, rows, options, mask=None):
    """One vectorized kernel call over pre-extracted input ``rows``.

    ``mask`` (optional ``(S,)`` bool, ``True`` = solve) flows straight
    into the kernel's in-recursion NaN masking — masked rows come back
    all-NaN without demoting the healthy rows to a scalar loop.
    """
    first = scenarios[0]
    kernel = spec.batched_kernel
    if kernel in ("exact-multiclass", "multiclass-mvasd"):
        if first.is_multiserver:
            from ..solvers.facade import SolverCapabilityError

            raise SolverCapabilityError(
                f"{spec.name}: multi-class solvers take single-server/delay "
                f"stations only — Seidmann-transform the network first "
                f"(repro.core.amva.seidmann_transform)"
            )
        stack = np.stack(rows)
        kinds = tuple(st.kind for st in first.network.stations)
        if kernel == "exact-multiclass":
            return batched_exact_multiclass(
                stack,
                populations=first.class_populations,
                think_times=first.class_think_times,
                station_names=first.station_names,
                station_kinds=kinds,
                class_names=first.class_names,
                mask=mask,
            )
        return batched_multiclass_mvasd(
            station_names=first.station_names,
            class_names=first.class_names,
            demand_tensors=stack,
            mix=[float(p) for p in first.class_populations],
            max_total_population=first.max_population,
            think_times=first.class_think_times,
            station_kinds=kinds,
            mask=mask,
        )
    network = first.resolved_network()
    n = first.max_population
    think = np.array([sc.think for sc in scenarios])
    single_server = bool(options.get("single_server", False))
    if kernel == "mvasd" and _demand_axis(options) == "throughput":
        # The rows are demand curves, evaluated inside the fixed point.
        return _batched_mvasd_throughput(
            network, n, rows, single_server, think_times=think, mask=mask
        )
    stack = np.stack(rows)
    if kernel == "exact-mva":
        return batched_exact_mva(network, n, stack, think_times=think, mask=mask)
    if kernel == "schweitzer-amva":
        return batched_schweitzer_amva(network, n, stack, think_times=think, mask=mask)
    if kernel == "ld-mva":
        return batched_ld_mva(network, n, stack, think_times=think, mask=mask)
    # _kernel_input already rejected unknown kernels; "mvasd" is what's left.
    return batched_mvasd(
        network,
        n,
        stack,
        single_server=single_server,
        think_times=think,
        mask=mask,
    )


class BatchedBackend:
    """One vectorized engine recursion for the whole stack."""

    name = "batched"

    def run(self, spec, scenarios, options):
        if faults.active_plan() is not None:
            # A poisoned scenario takes the whole vectorized recursion
            # down with it — exactly the failure mode errors="isolate"
            # and the resilient degradation chain exist to contain.
            offset = _scenario_offset()
            for i in range(len(scenarios)):
                faults.maybe_inject("kernel", scenario=offset + i)
        rows = [_kernel_input(spec, sc, options) for sc in scenarios]
        result = _run_kernel(spec, scenarios, rows, options)
        return replace(result, backend=self.name)


#: Global scenario index of the first scenario the current (sub-)stack
#: solve covers — lets shard workers report fault/failure indices in the
#: coordinates of the full stack.  Worker-local (set after fork) or
#: save/restored around in-parent shard retries.
_SCENARIO_OFFSET = 0


def _scenario_offset() -> int:
    return _SCENARIO_OFFSET


@contextmanager
def scenario_offset(start: int):
    """Publish ``start`` as the stack offset for the enclosed solve."""
    global _SCENARIO_OFFSET
    previous = _SCENARIO_OFFSET
    _SCENARIO_OFFSET = start
    try:
        yield
    finally:
        _SCENARIO_OFFSET = previous


def shard_bounds(n_scenarios: int, workers: int | None) -> list[tuple[int, int, int]]:
    """Contiguous ``(shard_index, start, stop)`` slices of a stack."""
    n_shards = min(resolve_workers(workers), n_scenarios)
    edges = np.linspace(0, n_scenarios, n_shards + 1).astype(int)
    return [
        (i, int(edges[i]), int(edges[i + 1]))
        for i in range(n_shards)
        if edges[i] < edges[i + 1]
    ]


def _solve_shard(bounds, payload):
    """Worker entry point: solve one contiguous slice of the shared stack.

    ``payload`` (method name, child backend, the full scenario list,
    options) is fork-inherited, so only the ``(shard, start, stop)``
    bounds and the result arrays are ever pickled.  Also the injection
    point for shard-level faults (worker crash, wedged worker) and the
    place the shard's scenario offset is published so kernel-level
    faults and failure records use full-stack indices.
    """
    global _SCENARIO_OFFSET
    from ..solvers.facade import solve_stack

    method, child_backend, scenarios, options = payload
    shard, start, stop = bounds
    faults.maybe_inject("shard", shard=shard)
    previous_offset = _SCENARIO_OFFSET
    _SCENARIO_OFFSET = start
    try:
        return solve_stack(
            scenarios[start:stop],
            method=method,
            backend=child_backend,
            cache=None,
            **options,
        )
    finally:
        _SCENARIO_OFFSET = previous_offset


class ProcessShardedBackend:
    """Contiguous sub-stacks fanned out over forked worker processes.

    The one local fan-out backend: a :class:`~repro.engine.fabric.
    Dispatcher` over a :class:`~repro.engine.transport.
    LocalProcessTransport`, labelled ``process-sharded`` or
    ``resilient``.  The name picks the preset retry policy from
    :data:`~repro.engine.resilience.FAN_OUT_POLICIES`.  Under
    ``process-sharded`` that is one attempt and no shard timeout: a long
    shard is never abandoned, and a shard whose worker crashed or raised
    is solved again in the driver (a deterministic solver error then
    still propagates).  A retry policy or a checkpoint asks for
    ``resilient`` (:func:`~repro.engine.resilience.ResilientBackend`),
    so ``process-sharded`` refuses both.  ``dispatch`` (``policy``,
    ``checkpoint``, ``errors``, ``sleep``) goes to the dispatcher, which
    checks it.
    """

    def __init__(
        self, workers: int | None = None, name: str = "process-sharded", **dispatch
    ) -> None:
        from .fabric import Dispatcher  # deferred: fabric builds on this module
        from .resilience import FAN_OUT_POLICIES
        from .transport import LocalProcessTransport

        if name not in FAN_OUT_POLICIES:
            raise ValueError(
                f"unknown local fan-out {name!r}; known: {tuple(FAN_OUT_POLICIES)}"
            )
        if name == "process-sharded" and (
            dispatch.get("policy") is not None or dispatch.get("checkpoint") is not None
        ):
            raise ValueError(
                "process-sharded takes no retry policy or checkpoint; "
                "use backend='resilient'"
            )
        if dispatch.get("policy") is None:
            dispatch["policy"] = FAN_OUT_POLICIES[name]
        self.name = name
        self.dispatcher = Dispatcher(LocalProcessTransport(workers), name=name, **dispatch)

    def run(self, spec, scenarios, options):
        return self.dispatcher.run(spec, scenarios, options)


def backend_names() -> tuple[str, ...]:
    """The selectable execution backends, cheapest-to-set-up first."""
    return ("serial", "batched", "process-sharded", "resilient", "remote")


def get_backend(name: str, workers: int | None = None, **kwargs) -> ExecutionBackend:
    """An :class:`ExecutionBackend` instance by name.

    ``workers`` only affects the local fan-out, ``process-sharded`` and
    ``resilient``; the in-process backends ignore it.  The name picks
    the fan-out's label and its preset retry policy.  ``kwargs`` (retry
    policy, checkpoint, error mode — plus ``hosts`` for ``remote``) are
    forwarded to :class:`ProcessShardedBackend` or
    :class:`~repro.engine.fabric.RemoteBackend`.
    """
    if name == "serial":
        return SerialBackend()
    if name == "batched":
        return BatchedBackend()
    if name in ("process-sharded", "resilient"):
        return ProcessShardedBackend(workers, name=name, **kwargs)
    if name == "remote":
        from .fabric import RemoteBackend  # deferred: builds on this module

        return RemoteBackend(**kwargs)
    raise ValueError(f"unknown backend {name!r}; known: {backend_names()}")
