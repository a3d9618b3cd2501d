"""Hierarchical composition via flow-equivalent service centers.

The classical Norton / Chandy-Herzog-Woo aggregation: pick a subsystem
of stations, solve it **in isolation** (think time zero) at every
population ``j = 1..N``, and record its throughputs ``X_sub(j)``.  A
single load-dependent station whose service rate is ``mu(j) = X_sub(j)``
is then *flow-equivalent* to the whole subsystem — for product-form
networks the substitution is exact, so a hierarchy of aggregations
solves to the same answers as the flat model (the acceptance gate of
the composition tests is ``<= 1e-8``).

Three pieces make composition a first-class layer of the solver stack:

* :func:`aggregate` solves the subsystem through the ordinary
  :func:`~repro.solvers.facade.solve` facade, so the rate table rides
  the result cache, the persistent sqlite tier and the trajectory
  store like any other solve — re-aggregating the same subsystem is a
  cache hit, and growing ``N`` extends the ld-MVA trajectory via
  ``resume_from`` instead of recomputing the prefix;
* :class:`FESStation` is the portable aggregate: the member stations it
  stands for, the sampled rate table, and the provenance (solver name +
  subsystem fingerprint) of how it was built;
* :func:`compose` substitutes FES stations into a reduced
  :class:`~repro.solvers.scenario.Scenario` whose ``rate_tables`` field
  carries the tabulated laws — solved by the exact load-dependent MVA
  recursion (``method="auto"`` picks it), fingerprintable, cacheable,
  and itself aggregatable for multi-level hierarchies.

Typical use::

    from repro.solvers import Scenario, aggregate, compose, solve

    sc = Scenario(network, max_population=200)
    disks = aggregate(sc, ["disk1", "disk2"], name="disk-array")
    reduced = compose(sc, [disks])
    result = solve(reduced)        # auto -> ld-mva, exact
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..core.network import ClosedNetwork, Station
from .cache import USE_DEFAULT_CACHE
from .scenario import Scenario
from .validation import SolverInputError

__all__ = ["FESStation", "aggregate", "compose"]


@dataclass(frozen=True)
class FESStation:
    """A flow-equivalent service center produced by :func:`aggregate`.

    Attributes
    ----------
    name:
        Station name the aggregate takes in a composed scenario.
    members:
        Names of the stations it replaces, in network order.
    rates:
        Sampled rate table ``mu(j) = X_sub(j)`` for ``j = 1..N``.
    solver:
        Concrete solver that produced the table (provenance).
    source_fingerprint:
        Fingerprint of the subsystem scenario the table was solved
        from — the identity under which it lives in the caches.
    """

    name: str
    members: tuple[str, ...]
    rates: tuple[float, ...]
    solver: str
    source_fingerprint: str

    @property
    def max_population(self) -> int:
        """Largest population the rate table covers."""
        return len(self.rates)

    def as_station(self) -> Station:
        """The single-server station stand-in the composed network uses.

        The fixed demand is ``1 / mu(1)`` — the subsystem's total
        response time with one customer — so fixed-demand views of the
        composed scenario stay meaningful; solvers that actually run it
        read the rate table instead.
        """
        return Station(self.name, demand=1.0 / self.rates[0])


def _require_flat_single_class(scenario: Scenario, op: str) -> None:
    if scenario.is_multiclass:
        raise SolverInputError(
            f"{op}: multi-class scenarios cannot be aggregated — flow "
            f"equivalence needs a single-class product-form subsystem"
        )
    if scenario.has_varying_demands:
        raise SolverInputError(
            f"{op}: varying-demand scenarios cannot be aggregated — freeze "
            f"the demand model (fixed_demands / with_overrides) first"
        )


def _resolve_members(
    scenario: Scenario, stations: Sequence[str], op: str
) -> tuple[str, ...]:
    members = list(stations)
    if not members:
        raise SolverInputError(f"{op}: need at least one station to aggregate")
    if len(set(members)) != len(members):
        raise SolverInputError(f"{op}: duplicate station names in {members}")
    known = set(scenario.station_names)
    unknown = [m for m in members if m not in known]
    if unknown:
        raise SolverInputError(
            f"{op}: unknown station names {unknown}; scenario has "
            f"{list(scenario.station_names)}"
        )
    # Canonical order is network order, not call order.
    return tuple(n for n in scenario.station_names if n in set(members))


def aggregate(
    scenario: Scenario,
    stations: Sequence[str],
    name: str | None = None,
    method: str = "auto",
    max_population: int | None = None,
    cache=USE_DEFAULT_CACHE,
    **options: Any,
) -> FESStation:
    """Collapse a subsystem of ``scenario`` into a flow-equivalent station.

    Builds the isolated subsystem (member stations only, think time
    zero, demands and any rate tables inherited from ``scenario``) and
    solves it across populations ``1..N`` through the solve facade —
    one trajectory solve whose throughput curve *is* the FES rate
    table.  The subsystem solve shares the ordinary cache stack, so
    repeated aggregation of an unchanged subsystem costs one cache
    lookup, and composed scenarios that were themselves built by
    :func:`compose` chain naturally (their rate tables carry over into
    the subsystem, which ``method="auto"`` then routes to ld-MVA).

    Parameters
    ----------
    scenario:
        The parent scenario (single-class, constant demands).
    stations:
        Names of the member stations (any subset; order is normalized
        to network order).
    name:
        Name of the resulting station; defaults to
        ``"fes:<member>+<member>+..."``.
    method:
        Facade method for the subsystem solve.  The default ``"auto"``
        picks an exact solver; approximate methods trade the ``1e-8``
        composition parity for their documented tolerance.
    max_population:
        Populations to sample (defaults to ``scenario.max_population``).
        Sampling deeper than the parent lets one aggregate serve many
        smaller compositions.
    cache:
        Forwarded to :func:`~repro.solvers.facade.solve`.
    **options:
        Forwarded to the subsystem solver adapter.
    """
    _require_flat_single_class(scenario, "aggregate")
    members = _resolve_members(scenario, stations, "aggregate")
    big_n = scenario.max_population if max_population is None else int(max_population)
    if big_n < 1:
        raise SolverInputError(
            f"aggregate: max_population must be >= 1, got {big_n}"
        )

    demands = scenario.fixed_demands("aggregate")
    index = {n: i for i, n in enumerate(scenario.station_names)}
    sub_stations = []
    sub_tables: dict[str, tuple[float, ...]] = {}
    bounded = False
    for member in members:
        st = scenario.network[member]
        value = float(demands[index[member]])
        sub_stations.append(st.with_demand(value))
        table = (scenario.rate_tables or {}).get(member)
        if table is not None:
            if big_n > len(table):
                raise SolverInputError(
                    f"aggregate: station {member!r} carries a rate table "
                    f"sampled to {len(table)} populations; cannot aggregate "
                    f"to {big_n} without re-aggregating its source deeper"
                )
            sub_tables[member] = tuple(table[:big_n])
            bounded = True
        elif value > 0:
            # any positive demand (queue or delay) keeps X_sub(j) finite
            bounded = True
    if not bounded:
        raise SolverInputError(
            f"aggregate: subsystem {list(members)} has zero total demand — "
            f"its throughput is unbounded and no rate table can represent it"
        )

    sub_net = ClosedNetwork(
        sub_stations,
        think_time=0.0,
        name=f"fes-subsystem({'+'.join(members)})",
    )
    sub_scenario = Scenario(
        network=sub_net,
        max_population=big_n,
        rate_tables=sub_tables or None,
    )

    from .facade import solve  # deferred: facade imports would cycle

    result = solve(sub_scenario, method=method, cache=cache, **options)
    throughput = np.asarray(result.throughput, dtype=float)
    if throughput.ndim != 1 or throughput.shape[0] != big_n:
        raise SolverInputError(
            f"aggregate: subsystem solver {result.solver!r} returned "
            f"{throughput.shape} throughputs, need a 1..{big_n} trajectory"
        )
    if np.any(~np.isfinite(throughput)) or np.any(throughput <= 0):
        raise SolverInputError(
            f"aggregate: subsystem {list(members)} produced non-positive or "
            f"non-finite throughputs — not representable as a rate table"
        )
    return FESStation(
        name=name if name is not None else "fes:" + "+".join(members),
        members=members,
        rates=tuple(float(x) for x in throughput),
        solver=str(result.solver),
        source_fingerprint=sub_scenario.fingerprint(),
    )


def compose(
    scenario: Scenario,
    aggregates: FESStation | Sequence[FESStation],
) -> Scenario:
    """Substitute flow-equivalent stations into a reduced scenario.

    Each aggregate's member stations are replaced — at the position of
    the first member — by one load-dependent station carrying the
    aggregate's rate table; untouched stations (and their own rate
    tables) survive verbatim.  The result is an ordinary
    :class:`Scenario`: fingerprintable, cacheable, solvable by
    ``method="auto"`` (which routes rate-table scenarios to the exact
    ld-MVA recursion), and itself a valid input to :func:`aggregate`
    for deeper hierarchies.

    Rate tables sampled deeper than ``scenario.max_population`` are
    truncated; shallower ones are rejected (a table cannot be extended
    beyond its sampled range).
    """
    _require_flat_single_class(scenario, "compose")
    fes_list = [aggregates] if isinstance(aggregates, FESStation) else list(aggregates)
    if not fes_list:
        raise SolverInputError("compose: need at least one FESStation")
    for fes in fes_list:
        if not isinstance(fes, FESStation):
            raise SolverInputError(
                f"compose: expected FESStation instances, got {type(fes).__name__}"
            )

    big_n = scenario.max_population
    known = set(scenario.station_names)
    claimed: dict[str, FESStation] = {}
    for fes in fes_list:
        if fes.max_population < big_n:
            raise SolverInputError(
                f"compose: aggregate {fes.name!r} samples populations "
                f"1..{fes.max_population} but the scenario needs 1..{big_n}; "
                f"re-aggregate with max_population={big_n}"
            )
        for member in fes.members:
            if member not in known:
                raise SolverInputError(
                    f"compose: aggregate {fes.name!r} replaces unknown "
                    f"station {member!r}"
                )
            if member in claimed:
                raise SolverInputError(
                    f"compose: station {member!r} is claimed by both "
                    f"{claimed[member].name!r} and {fes.name!r}"
                )
            claimed[member] = fes

    names = [fes.name for fes in fes_list]
    if len(set(names)) != len(names):
        raise SolverInputError(f"compose: duplicate aggregate names in {names}")
    surviving = [n for n in scenario.station_names if n not in claimed]
    collisions = sorted(set(names) & set(surviving))
    if collisions:
        raise SolverInputError(
            f"compose: aggregate names {collisions} collide with surviving "
            f"stations — rename the aggregate (aggregate(..., name=...))"
        )

    demands = scenario.fixed_demands("compose")
    index = {n: i for i, n in enumerate(scenario.station_names)}
    first_member = {fes.members[0]: fes for fes in fes_list}
    stations: list[Station] = []
    tables: dict[str, tuple[float, ...]] = {}
    for st in scenario.network.stations:
        fes = first_member.get(st.name)
        if fes is not None:
            stations.append(fes.as_station())
            tables[fes.name] = tuple(fes.rates[:big_n])
            continue
        if st.name in claimed:
            continue
        stations.append(st.with_demand(float(demands[index[st.name]])))
        table = (scenario.rate_tables or {}).get(st.name)
        if table is not None:
            tables[st.name] = tuple(table[:big_n])

    reduced_net = ClosedNetwork(
        stations,
        think_time=scenario.think,
        name=scenario.network.name,
    )
    return Scenario(
        network=reduced_net,
        max_population=big_n,
        rate_tables=tables or None,
    )
