"""Registrations of the repo's built-in solver family.

Each adapter is a thin shim from the canonical
:class:`~repro.solvers.scenario.Scenario` onto the existing public entry
point (which keeps its legacy signature — downstream code that calls
``exact_mva(network, n)`` directly is untouched).  The capability flags
and cost ranks drive :func:`repro.solvers.facade.auto_method`:

=========================  ===========  ========  =======  =====  =======
name                       multiserver  varying   multicl  exact  batched
=========================  ===========  ========  =======  =====  =======
bounds                     yes          -         -        -      -
balanced-job-bounds        yes          -         -        -      -
exact-mva                  -            -         -        yes    yes
schweitzer-amva            -            -         -        -      yes
linearizer                 -            -         -        -      -
approx-multiserver-mva     yes          -         -        -      -
exact-multiserver-mva      yes          -         -        yes    -
linearizer-multiserver     yes          -         -        -      -
convolution                yes          -         -        yes    -
mvasd                      yes          yes       -        -      yes
ld-mva                     yes          -         -        yes    -
interval-mva               yes          -         -        yes    -
multiclass-mvasd           -            yes       yes      -      yes
exact-multiclass           -            -         yes      yes    yes
method-of-moments          -            -         yes      yes    -
=========================  ===========  ========  =======  =====  =======

Each registration lists the options its adapter reads, with their
defaults (``options=``); the single-server solvers also accept
``single_server=True``, the facade's waiver for running them on a
multi-server network as the paper's single-server baseline.

Bounds solvers return an :class:`~repro.core.bounds.AsymptoticBounds`
envelope, ``interval-mva`` a :class:`~repro.core.interval_mva.PredictionBand`,
the multi-class solvers their class-resolved containers; everything else
returns the canonical :class:`~repro.core.results.MVAResult`.
"""

from __future__ import annotations

from typing import Any

from ..core.amva import approximate_multiserver_mva, schweitzer_amva
from ..core.bounds import asymptotic_bounds, balanced_job_bounds
from ..core.convolution import convolution_mva
from ..core.interval_mva import band_from_estimates, interval_mva
from ..core.ld_mva import exact_load_dependent_mva
from ..core.linearizer import linearizer_amva, linearizer_multiserver_mva
from ..core.mom import method_of_moments
from ..core.multiclass import exact_multiclass_mva
from ..core.multiclass_amva import multiclass_mvasd
from ..core.multiserver import exact_multiserver_mva
from ..core.mva import exact_mva
from ..core.mvasd import mvasd
from .facade import SolverCapabilityError
from .registry import register_solver
from .scenario import Scenario
from .validation import SolverInputError

__all__: list[str] = []


def _single_class_network(scenario: Scenario, solver: str):
    if scenario.is_multiclass:  # defensive; the facade checks capabilities first
        raise SolverCapabilityError(f"{solver}: single-class solver")
    return scenario.resolved_network()


@register_solver(
    "bounds",
    summary="asymptotic throughput/cycle-time envelope (eqs. 5-6)",
    multiserver=True,
    cost=1,
    returns="bounds",
    legacy="repro.core.bounds.asymptotic_bounds",
)
def _solve_bounds(scenario: Scenario, **options: Any):
    net = _single_class_network(scenario, "bounds")
    return asymptotic_bounds(
        net, scenario.max_population, demand_level=scenario.demand_level
    )


@register_solver(
    "balanced-job-bounds",
    summary="balanced-job bounds (tighter envelope, terminal-adjusted)",
    multiserver=True,
    cost=2,
    returns="bounds",
    legacy="repro.core.bounds.balanced_job_bounds",
)
def _solve_balanced_job_bounds(scenario: Scenario, **options: Any):
    net = _single_class_network(scenario, "balanced-job-bounds")
    return balanced_job_bounds(
        net, scenario.max_population, demand_level=scenario.demand_level
    )


@register_solver(
    "exact-mva",
    summary="Algorithm 1 — exact single-server MVA",
    exact=True,
    batched_kernel="exact-mva",
    cost=10,
    legacy="repro.core.mva.exact_mva",
    options={"single_server": False},
)
def _solve_exact_mva(scenario: Scenario, **options: Any):
    net = _single_class_network(scenario, "exact-mva")
    return exact_mva(
        net, scenario.max_population, demands=scenario.fixed_demands("exact-mva")
    )


@register_solver(
    "schweitzer-amva",
    summary="Schweitzer approximate MVA (fixed point, single-server)",
    batched_kernel="schweitzer-amva",
    cost=12,
    legacy="repro.core.amva.schweitzer_amva",
    options={"single_server": False},
)
def _solve_schweitzer(scenario: Scenario, **options: Any):
    net = _single_class_network(scenario, "schweitzer-amva")
    return schweitzer_amva(
        net, scenario.max_population, demands=scenario.fixed_demands("schweitzer-amva")
    )


@register_solver(
    "linearizer",
    summary="Chandy-Neuse Linearizer AMVA (single-server)",
    cost=15,
    legacy="repro.core.linearizer.linearizer_amva",
    options={"single_server": False},
)
def _solve_linearizer(scenario: Scenario, **options: Any):
    net = _single_class_network(scenario, "linearizer")
    return linearizer_amva(
        net, scenario.max_population, demands=scenario.fixed_demands("linearizer")
    )


@register_solver(
    "approx-multiserver-mva",
    summary="Seidmann transform + Schweitzer (MAQ-PRO-style baseline)",
    multiserver=True,
    cost=18,
    legacy="repro.core.amva.approximate_multiserver_mva",
)
def _solve_approx_multiserver(scenario: Scenario, **options: Any):
    net = _single_class_network(scenario, "approx-multiserver-mva")
    return approximate_multiserver_mva(
        net,
        scenario.max_population,
        demands=scenario.fixed_demands("approx-multiserver-mva"),
    )


@register_solver(
    "exact-multiserver-mva",
    summary="Algorithm 2 — exact multi-server MVA (convolution-backed)",
    multiserver=True,
    exact=True,
    cost=20,
    legacy="repro.core.multiserver.exact_multiserver_mva",
    options={"method": "convolution", "station_detail": True},
)
def _solve_exact_multiserver(scenario: Scenario, **options: Any):
    net = _single_class_network(scenario, "exact-multiserver-mva")
    return exact_multiserver_mva(
        net,
        scenario.max_population,
        demands=scenario.fixed_demands("exact-multiserver-mva"),
        method=options.get("method", "convolution"),
        station_detail=options.get("station_detail", True),
    )


@register_solver(
    "linearizer-multiserver",
    summary="Linearizer over the Seidmann transform (multi-server baseline)",
    multiserver=True,
    cost=25,
    legacy="repro.core.linearizer.linearizer_multiserver_mva",
)
def _solve_linearizer_multiserver(scenario: Scenario, **options: Any):
    net = _single_class_network(scenario, "linearizer-multiserver")
    return linearizer_multiserver_mva(
        net,
        scenario.max_population,
        demands=scenario.fixed_demands("linearizer-multiserver"),
    )


@register_solver(
    "convolution",
    summary="Buzen normalizing-constant method in the log domain (exact reference)",
    multiserver=True,
    exact=True,
    cost=30,
    legacy="repro.core.convolution.convolution_mva",
    options={"station_detail": True},
)
def _solve_convolution(scenario: Scenario, **options: Any):
    net = _single_class_network(scenario, "convolution")
    return convolution_mva(
        net,
        scenario.max_population,
        demands=scenario.fixed_demands("convolution"),
        station_detail=options.get("station_detail", True),
    )


@register_solver(
    "mvasd",
    summary="Algorithm 3 — multi-server MVA with varying service demands",
    multiserver=True,
    varying_demands=True,
    batched_kernel="mvasd",
    cost=35,
    legacy="repro.core.mvasd.mvasd",
    options={"single_server": False, "demand_axis": "population"},
)
def _solve_mvasd(scenario: Scenario, **options: Any):
    net = _single_class_network(scenario, "mvasd")
    return mvasd(
        net,
        scenario.max_population,
        demand_functions=scenario.demand_fns("mvasd"),
        single_server=options.get("single_server", False),
        demand_axis=options.get("demand_axis", "population"),
    )


@register_solver(
    "ld-mva",
    summary="exact load-dependent MVA (textbook marginal recursion)",
    multiserver=True,
    load_dependent=True,
    exact=True,
    batched_kernel="ld-mva",
    cost=40,
    legacy="repro.core.ld_mva.exact_load_dependent_mva",
    options={"rates": None},
)
def _solve_ld_mva(scenario: Scenario, **options: Any):
    net = _single_class_network(scenario, "ld-mva")
    return exact_load_dependent_mva(
        net,
        scenario.max_population,
        demands=scenario.fixed_demands("ld-mva"),
        rates=options.get("rates"),
        rate_tables=scenario.rate_tables,
    )


@register_solver(
    "interval-mva",
    summary="prediction band from demand intervals (two exact corner solves)",
    multiserver=True,
    exact=True,
    cost=45,
    returns="band",
    legacy="repro.core.interval_mva.interval_mva",
    options={"demand_intervals": None, "estimates": None},
)
def _solve_interval(scenario: Scenario, **options: Any):
    net = _single_class_network(scenario, "interval-mva")
    if options.get("demand_intervals") is not None:
        return interval_mva(net, scenario.max_population, options["demand_intervals"])
    if options.get("estimates") is not None:
        return band_from_estimates(net, options["estimates"], scenario.max_population)
    raise SolverInputError(
        "interval-mva: pass demand_intervals={station: (lo, hi)} or "
        "estimates={station: DemandEstimate}"
    )


def _require_single_server(scenario: Scenario, solver: str) -> None:
    if scenario.is_multiserver:
        raise SolverCapabilityError(
            f"{solver}: multi-class solvers take single-server/delay stations "
            f"only — Seidmann-transform the network first "
            f"(repro.core.amva.seidmann_transform)"
        )


@register_solver(
    "multiclass-mvasd",
    summary="Bard-Schweitzer mix sweep with varying per-class demands",
    varying_demands=True,
    multiclass=True,
    batched_kernel="multiclass-mvasd",
    cost=55,
    returns="multiclass",
    legacy="repro.core.multiclass_amva.multiclass_mvasd",
)
def _solve_multiclass_mvasd(scenario: Scenario, **options: Any):
    _require_single_server(scenario, "multiclass-mvasd")
    classes = scenario.classes
    return multiclass_mvasd(
        station_names=scenario.station_names,
        class_demands={c.name: dict(c.demands) for c in classes},
        mix={c.name: float(c.population) for c in classes},
        max_total_population=scenario.max_population,
        think_times={c.name: c.think_time for c in classes},
        station_kinds=tuple(st.kind for st in scenario.network.stations),
    )


@register_solver(
    "exact-multiclass",
    summary="exact multi-class MVA over the full population lattice",
    multiclass=True,
    exact=True,
    batched_kernel="exact-multiclass",
    cost=60,
    returns="multiclass",
    legacy="repro.core.multiclass.exact_multiclass_mva",
)
def _solve_exact_multiclass(scenario: Scenario, **options: Any):
    _require_single_server(scenario, "exact-multiclass")
    return exact_multiclass_mva(
        demands=scenario.multiclass_demand_matrix("exact-multiclass"),
        populations=scenario.class_populations,
        think_times=scenario.class_think_times,
        station_names=scenario.station_names,
        station_kinds=tuple(st.kind for st in scenario.network.stations),
    )


@register_solver(
    "method-of-moments",
    summary="Casale MoM: exact multi-class via moment recursions, poly in N",
    multiclass=True,
    exact=True,
    cost=65,
    returns="multiclass",
    legacy="repro.core.mom.method_of_moments",
)
def _solve_method_of_moments(scenario: Scenario, **options: Any):
    _require_single_server(scenario, "method-of-moments")
    return method_of_moments(
        demands=scenario.multiclass_demand_matrix("method-of-moments"),
        populations=scenario.class_populations,
        think_times=scenario.class_think_times,
        station_names=scenario.station_names,
        station_kinds=tuple(st.kind for st in scenario.network.stations),
    )
