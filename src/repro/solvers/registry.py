"""Decorator-based solver registry with capability flags.

Solver choice is a *policy over a common network description*, not a
call-site decision: every MVA-family algorithm registers here under a
stable name with a :class:`SolverSpec` describing what it can model —
multi-server stations, concurrency-varying demands, multiple customer
classes — whether it is exact for the product-form model, which batched
engine kernel (if any) evaluates it over scenario stacks, and a relative
cost rank the auto-selector uses to pick the cheapest capable method.

Registering a new solver is one decorator::

    from repro.solvers import register_solver

    @register_solver(
        "my-solver",
        summary="one-line description",
        multiserver=True,
        varying_demands=False,
        exact=False,
        cost=22,
        options={"tolerance": 1e-8},
    )
    def _solve_my_solver(scenario, **options):
        return my_solver(
            scenario.resolved_network(),
            scenario.max_population,
            tolerance=options.get("tolerance", 1e-8),
        )

``options`` names every option the adapter reads, with its default:
the facade refuses any other name (an ignored option would silently
return the wrong answer), and a default spelled out keys the cache like
the omitted one.  The adapter receives a validated
:class:`~repro.solvers.scenario.Scenario` and returns the solver's
native result — a canonical :class:`~repro.core.results.MVAResult` for
trajectory solvers (declared via ``returns="trajectory"``), a bounds
envelope, a prediction band, or a multi-class container.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = [
    "DuplicateSolverError",
    "SolverSpec",
    "UnknownSolverError",
    "capability_matrix",
    "get_solver",
    "list_solvers",
    "register_solver",
    "solver_names",
    "unregister_solver",
]

#: Capability columns in display order (matches the DESIGN.md matrix).
CAPABILITY_FLAGS = (
    "multiserver",
    "varying_demands",
    "multiclass",
    "load_dependent",
    "exact",
)


class DuplicateSolverError(ValueError):
    """A solver name was registered twice."""


class UnknownSolverError(KeyError):
    """Lookup of a name no solver registered under."""


@dataclass(frozen=True)
class SolverSpec:
    """Registry entry: an adapter plus the capabilities it advertises.

    Attributes
    ----------
    name:
        Stable registry key (also the CLI ``--method`` choice).
    solve:
        Adapter ``(scenario, **options) -> result``.
    summary:
        One-line description for listings.
    multiserver:
        Models multi-server (``C_k > 1``) queueing stations faithfully.
    varying_demands:
        Tracks concurrency-varying demands along the sweep (solvers
        without this flag freeze them at ``scenario.demand_level``).
    multiclass:
        Consumes the scenario's :class:`~repro.solvers.scenario.WorkloadClass`
        structure.
    load_dependent:
        Consumes tabulated service-rate laws (``Scenario.rate_tables``)
        — the flow-equivalent stations hierarchical composition
        produces.  Solvers without this flag only read
        ``fixed_demands`` and would silently mis-model a rate-table
        station, so the facade rejects the pairing.
    exact:
        Exact for the (single-class, product-form) model it solves.
    batched_kernel:
        Name of the :mod:`repro.engine.batched` kernel that evaluates
        stacked scenarios for this method, or ``None``.
    cost:
        Relative cost rank; the auto-selector prefers lower ranks among
        capable solvers.
    returns:
        ``"trajectory"`` (canonical :class:`MVAResult`), ``"bounds"``,
        ``"band"`` or ``"multiclass"``.
    legacy:
        Dotted path of the thin public wrapper this spec adapts, for
        documentation and the parity suite.
    options:
        Every option name the adapter reads, mapped to its default.
        The facade refuses any other name, and cache keys drop an
        option spelled out at its default.
    """

    name: str
    solve: Callable[..., Any]
    summary: str
    multiserver: bool = False
    varying_demands: bool = False
    multiclass: bool = False
    load_dependent: bool = False
    exact: bool = False
    batched_kernel: str | None = None
    cost: int = 50
    returns: str = "trajectory"
    legacy: str | None = None
    options: Mapping[str, Any] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ValueError(f"solver name must be non-empty without spaces, got {self.name!r}")
        if self.returns not in ("trajectory", "bounds", "band", "multiclass"):
            raise ValueError(f"unknown returns kind {self.returns!r}")

    def capabilities(self) -> dict[str, bool]:
        """The capability flags as an ordered mapping."""
        return {flag: getattr(self, flag) for flag in CAPABILITY_FLAGS}

    def describe(self) -> str:
        """Compact one-line rendering, e.g. ``mvasd [multiserver,varying]``."""
        flags = [flag for flag, on in self.capabilities().items() if on]
        if self.batched_kernel:
            flags.append("batched")
        return f"{self.name} [{','.join(flags) or 'single-server'}] — {self.summary}"


_REGISTRY: dict[str, SolverSpec] = {}


def register_solver(
    name: str,
    *,
    summary: str,
    multiserver: bool = False,
    varying_demands: bool = False,
    multiclass: bool = False,
    load_dependent: bool = False,
    exact: bool = False,
    batched_kernel: str | None = None,
    cost: int = 50,
    returns: str = "trajectory",
    legacy: str | None = None,
    options: Mapping[str, Any] | None = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Class-method decorator registering ``fn`` as solver ``name``.

    Duplicate names are rejected (:class:`DuplicateSolverError`) so two
    plugins cannot silently shadow each other; use
    :func:`unregister_solver` first to replace an entry deliberately.
    """

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in _REGISTRY:
            raise DuplicateSolverError(
                f"solver {name!r} is already registered "
                f"(by {_REGISTRY[name].solve.__module__})"
            )
        _REGISTRY[name] = SolverSpec(
            name=name,
            solve=fn,
            summary=summary,
            multiserver=multiserver,
            varying_demands=varying_demands,
            multiclass=multiclass,
            load_dependent=load_dependent,
            exact=exact,
            batched_kernel=batched_kernel,
            cost=cost,
            returns=returns,
            legacy=legacy,
            options=dict(options or {}),
        )
        return fn

    return decorator


def unregister_solver(name: str) -> SolverSpec:
    """Remove and return a registered spec (for tests and plugins)."""
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise UnknownSolverError(
            f"unknown solver {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def get_solver(name: str) -> SolverSpec:
    """Look a solver up by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSolverError(
            f"unknown solver {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def solver_names() -> tuple[str, ...]:
    """All registered names, sorted."""
    return tuple(sorted(_REGISTRY))


def list_solvers() -> tuple[SolverSpec, ...]:
    """All registered specs, cheapest first (then by name)."""
    return tuple(sorted(_REGISTRY.values(), key=lambda s: (s.cost, s.name)))


def capability_matrix() -> str:
    """ASCII capability table of every registered solver (CLI listing)."""
    headers = ("Solver", *(flag.replace("_", " ") for flag in CAPABILITY_FLAGS),
               "batched kernel", "returns", "Summary")
    rows = []
    for spec in list_solvers():
        rows.append(
            (
                spec.name,
                *("yes" if on else "-" for on in spec.capabilities().values()),
                spec.batched_kernel or "-",
                spec.returns,
                spec.summary,
            )
        )
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    def fmt(row):
        return "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
