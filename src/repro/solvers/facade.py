"""The single entry point: ``solve(scenario, method="auto", backend="auto")``.

The facade turns solver choice into a policy:

* **validation** happens once, in :class:`~repro.solvers.scenario.Scenario`
  — no per-solver re-checking of demand vectors and population counts;
* **auto-selection** walks the paper's Algorithm 1 → 2 → 3 hierarchy:
  exact single-server MVA for constant-demand single-server networks,
  the exact multi-server solver when stations have cores, MVASD when
  demands vary with concurrency — falling back to the approximate
  (Schweitzer / Seidmann) family only when the population is too large
  for the exact recursions to be worth it;
* **caching** memoizes results in a :class:`~repro.solvers.cache.SolverCache`
  keyed on content-addressed request identity
  (:meth:`Scenario.fingerprint` + method + backend + canonicalized
  options).  ``cache=`` defaults to the process-global cache; pass
  ``None`` to bypass or a private :class:`SolverCache` to isolate;
* **backend routing** hands stacks to a pluggable
  :mod:`repro.engine.backends` execution backend: ``batched`` engine
  kernels when the method has one, a ``serial`` per-scenario loop when
  it does not, and a ``process-sharded`` fan-out (contiguous sub-stacks
  over :func:`~repro.engine.sweep.parallel_map` workers) that ``auto``
  picks for large stacks.  Callers never branch on the backend — every
  path returns the same :class:`~repro.engine.batched.BatchedMVAResult`,
  stamped with the backend that produced it.

``solve`` accepts a single :class:`Scenario` (returns the solver's
native result — a canonical :class:`~repro.core.results.MVAResult` for
trajectory methods) or a sequence of scenarios (delegates to
:func:`solve_stack`, returns a :class:`BatchedMVAResult`).
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from typing import Any, Mapping, Sequence

from ..core.mom import mom_state_count
from ..engine.backends import get_backend
from ..engine.batched import BatchedMVAResult
from ..engine.sweep import resolve_workers
from .cache import USE_DEFAULT_CACHE, canonical_options, resolve_cache
from .registry import SolverSpec, get_solver, list_solvers
from .scenario import Scenario
from .validation import SolverInputError

__all__ = [
    "SolverCapabilityError",
    "auto_method",
    "solve",
    "solve_stack",
]

#: Above this population the auto-selector trades the exact recursions
#: for the approximate family (the "AMVA fallback" of the hierarchy).
EXACT_POPULATION_LIMIT = 50_000

#: Largest population lattice ``prod_c (N_c + 1)`` the exact multi-class
#: recursion is attempted on before falling back to the Method of
#: Moments (still exact, polynomial in total population) or — when even
#: MoM is infeasible — the Bard-Schweitzer mix sweep.
EXACT_MULTICLASS_LATTICE_LIMIT = 250_000

#: Largest Method-of-Moments state count ``binom(N + K_q, K_q)`` (see
#: :func:`repro.core.mom.mom_state_count`) auto-selection considers
#: feasible when the exact lattice is not.
MOM_STATE_LIMIT = 1_000_000

#: Stacks at least this large are process-sharded by ``backend="auto"``
#: (when more than one worker is available).  Below it the fork +
#: pickle-back overhead beats the per-scenario savings.
AUTO_SHARD_THRESHOLD = 1024

_STACK_BACKENDS = (
    "auto",
    "scalar",
    "serial",
    "batched",
    "process-sharded",
    "resilient",
    "remote",
)


class SolverCapabilityError(SolverInputError):
    """The scenario needs a capability the chosen solver does not have."""


def auto_method(
    scenario: Scenario,
    exact_limit: int = EXACT_POPULATION_LIMIT,
) -> str:
    """Cheapest capable registry method for ``scenario``.

    Mirrors the paper's algorithm hierarchy: exact MVA (Algorithm 1)
    for constant-demand single-server networks, the exact multi-server
    recursion (Algorithm 2) once stations have cores, MVASD
    (Algorithm 3) as soon as demands vary with concurrency.  Past
    ``exact_limit`` customers the constant-demand paths fall back to the
    approximate family.
    """
    if scenario.is_multiclass:
        if scenario.has_varying_demands:
            return "multiclass-mvasd"
        lattice = 1
        for cls in scenario.classes:
            lattice *= cls.population + 1
        if lattice <= EXACT_MULTICLASS_LATTICE_LIMIT:
            return "exact-multiclass"
        total = sum(cls.population for cls in scenario.classes)
        n_queue = sum(1 for st in scenario.network.stations if st.kind == "queue")
        if mom_state_count(total, n_queue) <= MOM_STATE_LIMIT:
            # Lattice blew up but the moment recursion stays polynomial:
            # keep exactness via Casale's Method of Moments.
            return "method-of-moments"
        return "multiclass-mvasd"
    if scenario.has_rate_tables:
        # Tabulated service-rate laws (flow-equivalent stations from
        # hierarchical composition) need the load-dependent recursion;
        # it is exact, so population never demotes this path.
        return "ld-mva"
    if scenario.has_varying_demands:
        return "mvasd"
    if scenario.is_multiserver:
        if scenario.max_population <= exact_limit:
            return "exact-multiserver-mva"
        return "approx-multiserver-mva"
    if scenario.max_population <= exact_limit:
        return "exact-mva"
    return "schweitzer-amva"


def _resolve_spec(
    scenario: Scenario, method: str, options: Mapping[str, Any] | None = None
) -> SolverSpec:
    spec = get_solver(auto_method(scenario) if method == "auto" else method)
    if scenario.is_multiclass and not spec.multiclass:
        raise SolverCapabilityError(
            f"{spec.name}: scenario has customer classes but the solver is "
            f"single-class; use a multiclass-capable method "
            f"(or method='auto')"
        )
    if spec.multiclass and not scenario.is_multiclass:
        raise SolverCapabilityError(
            f"{spec.name}: multi-class solver needs a scenario with classes"
        )
    _check_option_names(spec, options or {})
    _check_single_class_capabilities(spec, scenario, options or {})
    return spec


def _check_option_names(spec: SolverSpec, options: Mapping[str, Any]) -> None:
    """Refuse option names ``spec`` does not read — they would be ignored."""
    unknown = sorted(set(options) - set(spec.options))
    if unknown:
        accepted = ", ".join(sorted(spec.options)) or "none"
        raise SolverInputError(
            f"{spec.name}: unknown option(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {accepted}"
        )


def _check_single_class_capabilities(
    spec: SolverSpec, scenario: Scenario, options: Mapping[str, Any]
) -> None:
    """Reject scenario/solver pairings a fixed-demand path would mis-model.

    Two silent-wrong-answer traps guarded here: a rate-table scenario
    (flow-equivalent stations) handed to a solver that only reads
    ``fixed_demands`` would ignore the tabulated law entirely, and a
    multi-server scenario handed to a single-server solver would quietly
    model ``servers>1`` stations as single servers.  The deliberate
    single-server baseline of the paper stays available through
    ``single_server=True``.
    """
    if scenario.is_multiclass:
        return  # the multi-class family has its own Seidmann guard
    if scenario.has_rate_tables and not spec.load_dependent:
        nearest = _nearest_load_dependent_method()
        hint = f"; nearest load-dependent method: {nearest!r}" if nearest else ""
        raise SolverCapabilityError(
            f"{spec.name}: scenario carries load-dependent rate tables "
            f"(flow-equivalent stations) but this solver only reads fixed "
            f"demands and would ignore them{hint} (or use method='auto')"
        )
    if (
        scenario.is_multiserver
        and not spec.multiserver
        and not options.get("single_server", False)
    ):
        raise SolverCapabilityError(
            f"{spec.name}: scenario has multi-server stations (servers>1) "
            f"but this solver reads only single-server fixed demands and "
            f"would silently model them as single servers; use "
            f"{auto_method(scenario)!r} (method='auto' picks it), or pass "
            f"single_server=True for the deliberate single-server baseline"
        )


def _nearest_load_dependent_method() -> str | None:
    """Cheapest registered solver that consumes rate tables, if any."""
    candidates = [s for s in list_solvers() if s.load_dependent]
    if not candidates:
        return None
    return min(candidates, key=lambda s: (s.cost, s.name)).name


def _nearest_batched_method(spec: SolverSpec) -> str | None:
    """The registered method with a kernel closest to ``spec``'s profile.

    Scores capability agreement (multi-server fidelity weighs most, then
    varying demands, then class structure / exactness), breaking ties by
    cost — so ``linearizer`` points at ``schweitzer-amva`` and
    ``exact-multiserver-mva`` at ``mvasd``.
    """
    candidates = [s for s in list_solvers() if s.batched_kernel and s.name != spec.name]
    if not candidates:
        return None

    def score(cand: SolverSpec) -> tuple:
        return (
            4 * (cand.multiserver == spec.multiserver)
            + 2 * (cand.varying_demands == spec.varying_demands)
            + (cand.multiclass == spec.multiclass)
            + (cand.exact == spec.exact),
            -cand.cost,
        )

    return max(candidates, key=score).name


def _cache_key(kind, fingerprints, spec, backend, options):
    """Cache key for a request, or ``None`` when it is uncacheable."""
    opts = canonical_options(options, spec.name)
    if opts is None:
        return None
    return (kind, fingerprints, spec.name, backend, opts)


def solve(
    scenario: Scenario | Sequence[Scenario],
    method: str = "auto",
    backend: str = "auto",
    cache=USE_DEFAULT_CACHE,
    workers: int | None = None,
    errors: str = "raise",
    retry_policy=None,
    checkpoint=None,
    hosts=None,
    fleet=None,
    **options: Any,
):
    """Solve one scenario (or a stack) with a registered method.

    Parameters
    ----------
    scenario:
        A validated :class:`Scenario`, or a sequence of them (routed to
        :func:`solve_stack`).
    method:
        Registry name, or ``"auto"`` for the capability-based selection
        of :func:`auto_method`.
    backend:
        ``"auto"`` (scalar for one scenario, batched for stacks when the
        method has a kernel, process-sharded for large stacks),
        ``"scalar"``/``"serial"``, ``"batched"`` (force the engine
        kernel; errors if the method has none), or ``"process-sharded"``
        (stacks only).
    cache:
        Where to memoize: the process-global
        :func:`~repro.solvers.cache.default_cache` by default, ``None``
        to bypass, or a private :class:`~repro.solvers.cache.SolverCache`.
    workers:
        Process count for the sharded backend (``None`` = one per core).
    **options:
        Forwarded to the solver adapter (e.g. ``single_server=True`` or
        ``demand_axis="throughput"`` for ``mvasd``,
        ``station_detail=False`` for the convolution-backed solvers,
        ``demand_intervals=...`` for ``interval-mva``).  A name the
        method does not declare (:attr:`SolverSpec.options`) raises
        :class:`SolverInputError`.
    """
    if not isinstance(scenario, Scenario):
        return solve_stack(
            scenario,
            method=method,
            backend=backend,
            cache=cache,
            workers=workers,
            errors=errors,
            retry_policy=retry_policy,
            checkpoint=checkpoint,
            hosts=hosts,
            fleet=fleet,
            **options,
        )
    if (
        errors != "raise"
        or retry_policy is not None
        or checkpoint is not None
        or hosts is not None
        or fleet is not None
    ):
        raise SolverInputError(
            "solve: errors/retry_policy/checkpoint/hosts/fleet apply to scenario "
            "stacks; pass a sequence of scenarios (or call solve_stack)"
        )
    if backend not in ("auto", "scalar", "serial", "batched"):
        raise SolverInputError(
            f"backend must be 'auto', 'scalar', 'serial' or 'batched' for a "
            f"single scenario, got {backend!r}"
        )
    spec = _resolve_spec(scenario, method, options)
    kind = "batched" if backend == "batched" else "scalar"
    store = resolve_cache(cache)
    key = None
    traj = store.trajectory if store is not None and kind == "scalar" else None
    if store is not None:
        key = _cache_key("solve", (scenario.fingerprint(),), spec, kind, options)
        if key is None:
            store.note_uncacheable()
        else:
            hit, tier = store.fetch(key)
            if hit is not None:
                if tier == "persistent" and traj is not None:
                    # a restarted process rebuilds trajectory serving from
                    # whatever the shared store hands back
                    traj.offer(scenario, spec.name, options, hit)
                return hit
            if traj is not None:
                served = traj.serve(scenario, spec.name, options)
                if served is not None:
                    tkind, result = served
                    store.note_trajectory(tkind)
                    # prefixes are free slices of already-stored work;
                    # extensions contain newly paid-for levels worth sharing
                    store.put(key, result, persist=(tkind == "extend"))
                    if tkind == "extend":
                        traj.offer(scenario, spec.name, options, result)
                    return result
    if backend == "batched":
        stacked = solve_stack(
            [scenario], method=spec.name, backend="batched", cache=None, **options
        )
        result = stacked.scenario(0)
    else:
        result = spec.solve(scenario, **options)
    if store is not None and key is not None:
        store.put(key, result)
        if traj is not None:
            traj.offer(scenario, spec.name, options, result)
    return result


def _check_stackable(scenarios: Sequence[Scenario]) -> None:
    first = scenarios[0]
    topo = (
        first.network.station_names,
        tuple(st.kind for st in first.network.stations),
        tuple(st.servers for st in first.network.stations),
    )
    multi = first.is_multiclass
    for sc in scenarios[1:]:
        other = (
            sc.network.station_names,
            tuple(st.kind for st in sc.network.stations),
            tuple(st.servers for st in sc.network.stations),
        )
        if other != topo:
            raise SolverInputError(
                "solve_stack: scenarios must share the station topology "
                "(names, kinds, server counts)"
            )
        if sc.is_multiclass != multi:
            raise SolverInputError(
                "solve_stack: cannot mix single-class and multi-class scenarios"
            )
        if sc.max_population != first.max_population:
            raise SolverInputError(
                "solve_stack: scenarios must share max_population "
                f"({sc.max_population} != {first.max_population})"
            )
    if multi:
        structure = first.class_structure()
        for sc in scenarios[1:]:
            if sc.class_structure() != structure:
                raise SolverInputError(
                    "solve_stack: multi-class scenarios must share the class "
                    "structure (names, populations, think times); only demands "
                    "may vary across the stack"
                )


def _auto_stack_method(scenarios: Sequence[Scenario]) -> str:
    if scenarios[0].is_multiclass:
        # Prefer the kernel-backed multi-class methods; method-of-moments
        # is a scalar-only solver and would demote the stack to a serial
        # loop, so past the exact lattice the stack takes Bard-Schweitzer.
        if any(sc.has_varying_demands for sc in scenarios):
            return "multiclass-mvasd"
        if auto_method(scenarios[0]) == "exact-multiclass":
            return "exact-multiclass"
        return "multiclass-mvasd"
    if any(sc.has_rate_tables for sc in scenarios):
        # Composed (flow-equivalent) scenarios ride the ld-MVA kernel —
        # it is exact and multi-server-faithful, so it also covers the
        # plain-demand scenarios sharing the stack.
        return "ld-mva"
    if any(sc.has_varying_demands for sc in scenarios):
        return "mvasd"
    if any(sc.is_multiserver for sc in scenarios):
        # The only multi-server-faithful batched kernel is MVASD's
        # (constant demands are just a flat demand matrix).
        return "mvasd"
    return "exact-mva"


#: Methods already warned about falling back to a scalar stacked loop —
#: the warning fires once per process per method, not once per stack.
_SCALAR_FALLBACK_WARNED: set[str] = set()


def _warn_scalar_fallback(spec: SolverSpec, n_scenarios: int) -> None:
    """One-time ``UserWarning`` when a stack degrades to a scalar loop.

    Kernel gaps should be visible, not quietly slow: a ``backend="auto"``
    stack that lands on the serial per-scenario loop (solver label
    ``stacked-<name>``) only does so because the method has no batched
    kernel registered.
    """
    if spec.name in _SCALAR_FALLBACK_WARNED:
        return
    _SCALAR_FALLBACK_WARNED.add(spec.name)
    nearest = _nearest_batched_method(spec)
    hint = f"; nearest kernel-backed method: {nearest!r}" if nearest else ""
    warnings.warn(
        f"solve_stack: {spec.name!r} has no batched kernel, so the "
        f"{n_scenarios}-scenario stack runs a scalar per-scenario loop "
        f"(solver label 'stacked-{spec.name}'){hint}",
        UserWarning,
        stacklevel=3,
    )


def _resolve_backend(
    spec: SolverSpec, n_scenarios: int, backend: str, workers: int | None
) -> str:
    """Map a ``backend=`` request to a concrete execution backend name."""
    if backend not in _STACK_BACKENDS:
        raise SolverInputError(
            f"backend must be one of {_STACK_BACKENDS}, got {backend!r}"
        )
    if backend == "scalar":
        backend = "serial"
    if backend == "batched" and spec.batched_kernel is None:
        nearest = _nearest_batched_method(spec)
        hint = f"; nearest method with one: {nearest!r}" if nearest else ""
        raise SolverCapabilityError(
            f"{spec.name}: no batched kernel registered for this method{hint}"
        )
    if backend != "auto":
        return backend
    if n_scenarios >= AUTO_SHARD_THRESHOLD and resolve_workers(workers) > 1:
        return "process-sharded"
    if spec.batched_kernel is not None:
        return "batched"
    return "serial"


def _resolve_fleet(fleet):
    """Turn ``solve_stack``'s ``fleet=`` into ``(membership, ephemeral)``.

    ``ephemeral`` is non-``None`` only when this call launched the fleet
    itself (``fleet=<int>``) and therefore owns its teardown.
    """
    if fleet is None:
        return None, None
    from ..engine.supervisor import FleetSupervisor, StaticMembership, load_fleet_state

    if isinstance(fleet, FleetSupervisor):
        return fleet, None
    if isinstance(fleet, int) and not isinstance(fleet, bool):
        if fleet < 1:
            raise SolverInputError(
                f"solve_stack: fleet= worker count must be >= 1, got {fleet}"
            )
        supervisor = FleetSupervisor(workers=fleet)
        supervisor.start()
        return supervisor, supervisor
    if isinstance(fleet, str) or hasattr(fleet, "__fspath__"):
        try:
            state = load_fleet_state(str(fleet))
        except (OSError, ValueError) as exc:
            raise SolverInputError(f"solve_stack: fleet= state file: {exc}") from exc
        endpoints = [(w["host"], int(w["port"])) for w in state["workers"]]
        if not endpoints:
            raise SolverInputError(
                f"solve_stack: fleet state file {fleet!s} lists no workers"
            )
        return StaticMembership(endpoints), None
    raise SolverInputError(
        "solve_stack: fleet= must be a FleetSupervisor, a worker count, or "
        f"the path of a 'repro fleet up' state file, got {type(fleet).__name__}"
    )


def solve_stack(
    scenarios: Sequence[Scenario],
    method: str = "auto",
    backend: str = "auto",
    cache=USE_DEFAULT_CACHE,
    workers: int | None = None,
    errors: str = "raise",
    retry_policy=None,
    checkpoint=None,
    hosts=None,
    fleet=None,
    **options: Any,
) -> BatchedMVAResult | Any:
    """Solve a stack of topology-sharing scenarios in one shot.

    Single-class trajectory stacks return a :class:`BatchedMVAResult`;
    multi-class stacks return the matching
    :class:`~repro.engine.batched.BatchedMultiClassResult` (point
    solvers) or :class:`~repro.engine.batched.BatchedMultiClassTrajectory`
    (``multiclass-mvasd``) container with the same ``backend`` /
    ``failures`` / ``scenario(i)`` surface.

    With ``backend="auto"`` the stack goes through the method's
    :mod:`repro.engine` kernel when it has one (one batched recursion
    for all scenarios), falls back to the ``serial`` per-scenario loop
    when it does not, and fans out over ``process-sharded`` workers once
    the stack reaches :data:`AUTO_SHARD_THRESHOLD` scenarios — callers
    never branch on the backend.  ``backend="batched"`` insists on a
    kernel; ``"serial"`` (alias ``"scalar"``) forces the per-scenario
    loop; ``"process-sharded"`` forces the local fan-out over forked
    workers (one attempt, no shard timeout: a failed shard is solved
    again in the driver); ``"resilient"`` is the same fan-out with
    bounded retries and backoff (:class:`~repro.engine.resilience.
    RetryPolicy`).  Both run the fabric's
    :class:`~repro.engine.fabric.Dispatcher` degradation chain
    (sharded → batched → serial).  The result's ``backend`` attribute
    records which one ran, and ``solver`` names the concrete method
    (``stacked-<name>`` for serial runs).

    Fault-tolerance knobs
    ---------------------
    errors:
        ``"raise"`` (default) propagates the first scenario failure;
        ``"isolate"`` contains failures — failed scenarios become
        :class:`~repro.engine.batched.ScenarioFailure` records on
        ``result.failures`` with NaN trajectory rows, while every
        healthy scenario keeps its exact result.  The fan-out backends
        isolate per shard: only a failed shard is solved again.
    retry_policy:
        A :class:`~repro.engine.resilience.RetryPolicy` bounding shard
        retries, backoff and per-shard timeouts.  Implies
        ``backend="resilient"``.
    checkpoint:
        Path (or :class:`~repro.engine.resilience.SweepCheckpoint`) of
        an append-only journal of completed shards; re-running after a
        crash re-solves only the missing shards and reassembles a
        bit-identical result.  Implies ``backend="resilient"``
        (or rides ``backend="remote"`` unchanged).
    hosts:
        ``"host:port,host:port"`` (or a list of such specs) naming
        ``repro worker`` processes — implies ``backend="remote"``: the
        stack shards over the workers via the
        :class:`~repro.engine.fabric.Dispatcher`, with the same retry /
        checkpoint / degradation semantics as ``"resilient"`` (shards
        that no worker can solve fall back to local execution).
    fleet:
        A *supervised* fleet — implies ``backend="remote"`` with elastic
        membership (crashed workers are relaunched mid-sweep and rejoin
        the shard queue).  Accepts a running
        :class:`~repro.engine.supervisor.FleetSupervisor` (left running
        afterwards), an ``int`` worker count (an ephemeral local fleet
        is launched, supervised for the sweep, and torn down), or the
        path of a ``repro fleet up`` state file (attaches to those
        workers without supervising them).  Mutually exclusive with
        ``hosts=``.

    Results carrying failures are never cached — a retry after fixing
    the inputs must recompute, not replay the failure.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise SolverInputError("solve_stack: need at least one scenario")
    for sc in scenarios:
        if not isinstance(sc, Scenario):
            raise SolverInputError(
                f"solve_stack: expected Scenario instances, got {type(sc).__name__}"
            )
    if errors not in ("raise", "isolate"):
        raise SolverInputError(
            f"solve_stack: errors must be 'raise' or 'isolate', got {errors!r}"
        )
    if fleet is not None and hosts is not None:
        raise SolverInputError(
            "solve_stack: fleet= and hosts= are mutually exclusive — a fleet "
            "already knows its workers"
        )
    if (hosts is not None or fleet is not None) and backend == "auto":
        backend = "remote"
    if backend == "remote" and not hosts and fleet is None:
        raise SolverInputError(
            "solve_stack: backend='remote' needs hosts= naming at least one "
            "repro worker (e.g. hosts='127.0.0.1:7173'), or fleet="
        )
    if (hosts is not None or fleet is not None) and backend != "remote":
        raise SolverInputError(
            f"solve_stack: hosts=/fleet= only apply to backend='remote', got {backend!r}"
        )
    _check_stackable(scenarios)
    name = _auto_stack_method(scenarios) if method == "auto" else method
    spec = get_solver(name)
    if spec.returns not in ("trajectory", "multiclass"):
        raise SolverCapabilityError(
            f"{spec.name}: only trajectory and multiclass solvers can be stacked"
        )
    if spec.multiclass and not scenarios[0].is_multiclass:
        raise SolverCapabilityError(
            f"{spec.name}: multi-class solver needs scenarios with classes"
        )
    if scenarios[0].is_multiclass and not spec.multiclass:
        raise SolverCapabilityError(
            f"{spec.name}: scenarios have customer classes but the solver is "
            f"single-class; use a multiclass-capable method (or method='auto')"
        )
    _check_option_names(spec, options)
    for sc in scenarios:
        _check_single_class_capabilities(spec, sc, options)
    resolved = _resolve_backend(spec, len(scenarios), backend, workers)
    if (
        backend == "auto"
        and resolved == "serial"
        and spec.batched_kernel is None
        and len(scenarios) > 1
    ):
        _warn_scalar_fallback(spec, len(scenarios))
    if (checkpoint is not None or retry_policy is not None) and resolved not in (
        "resilient",
        "remote",
    ):
        # The retry/checkpoint machinery lives in the dispatcher-backed
        # backends; asking for either is asking for one of them.
        resolved = "resilient"
    if (
        spec.batched_kernel == "ld-mva"
        and options.get("rates") is not None
        and resolved != "serial"
    ):
        # Callable mu(j) laws cannot cross the kernel-input boundary;
        # running the kernel anyway would silently drop the override.
        if backend == "auto" and resolved != "resilient":
            resolved = "serial"
        else:
            raise SolverInputError(
                f"{spec.name}: callable rates= laws cannot ride the "
                f"{resolved!r} backend — encode them as Scenario.rate_tables "
                f"or use backend='serial'"
            )
    store = resolve_cache(cache)
    key = None
    if store is not None:
        fps = tuple(sc.fingerprint() for sc in scenarios)
        key = _cache_key("stack", fps, spec, resolved, options)
        if key is None:
            store.note_uncacheable()
        else:
            # two-tier lookup: stacks profit from the persistent store on
            # restart just like single solves (no trajectory serving here —
            # the store is keyed per scenario, not per stack)
            hit, _ = store.fetch(key)
            if hit is not None:
                return hit
    dispatch = {"policy": retry_policy, "checkpoint": checkpoint, "errors": errors}
    if resolved == "remote":
        membership, ephemeral = _resolve_fleet(fleet)
        try:
            runner = get_backend(
                "remote",
                hosts=hosts if hosts is not None else (),
                membership=membership,
                **dispatch,
            )
            result = runner.run(spec, scenarios, options)
        finally:
            if ephemeral is not None:
                ephemeral.stop()
    elif resolved in ("process-sharded", "resilient"):
        # The local fan-out: one Dispatcher, which isolates per shard.
        runner = get_backend(resolved, workers=workers, **dispatch)
        result = runner.run(spec, scenarios, options)
    elif errors == "isolate":
        try:
            result = get_backend(resolved).run(spec, scenarios, options)
        except Exception:
            from ..engine.resilience import solve_isolated, solve_isolated_batched

            if resolved == "batched":
                # Mask the poisoned scenarios out of the kernel instead of
                # demoting every healthy row to the serial loop.
                result = solve_isolated_batched(spec, scenarios, options)
            else:
                result = solve_isolated(spec, scenarios, options)
    else:
        result = get_backend(resolved).run(spec, scenarios, options)
    if not result.failures and result.backend != resolved:
        result = replace(result, backend=resolved)
    if store is not None and key is not None and not result.failures:
        store.put(key, result)
    return result
