"""Approximate MVA solvers — Schweitzer's fixed point and the
Seidmann multi-server transformation.

The paper contrasts its *exact* multi-server recursion (Algorithm 2)
with the *approximate* multi-server MVA used by MAQ-PRO (its ref. [19]),
noting that approximation errors compound with demand variation at high
concurrency.  These solvers provide that baseline for the ablation
bench.

**Schweitzer's approximation** (paper eq. 9) replaces the exact
arrival-theorem queue ``Q_k^{n-1}`` by the scaled current-population
estimate ``(n-1)/n * Q_k^n``, turning the O(N) recursion into a
fixed-point problem solved directly at the target population.

**Seidmann's transformation** approximates a ``C``-server station of
demand ``D`` by a single-server station of demand ``D/C`` in series
with a pure delay of ``D (C-1)/C``: correct at both the no-contention
limit (total ``D``) and the saturation limit (rate ``C/D``), but
inexact in between — which is precisely the regime where the paper
shows accuracy matters.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .mva import _constant_demand_solve
from .network import ClosedNetwork, Station
from .results import MVAResult

__all__ = ["schweitzer_amva", "seidmann_transform", "approximate_multiserver_mva"]


def schweitzer_amva(
    network: ClosedNetwork,
    max_population: int,
    demands: Sequence[float] | None = None,
    demand_level: float = 1.0,
    resume_from: MVAResult | None = None,
) -> MVAResult:
    """Schweitzer approximate MVA over ``n = 1..N`` (single-server stations).

    Each population level is an independent fixed point, seeded by the
    previous level's queues; the result therefore has the same
    trajectory shape as the exact solvers.  Because level ``n`` depends
    on earlier levels only through that seed, ``resume_from=`` a
    previous result at ``L < N`` continues the sweep bit-identically
    from level ``L + 1``.  The fixed point is
    :func:`repro.engine.batched.batched_schweitzer_amva`'s, run for one
    scenario.
    """
    from ..engine.batched import _schweitzer_levels

    return _constant_demand_solve(
        _schweitzer_levels, "schweitzer-amva", network, max_population, demands,
        demand_level, resume_from,
    )


def seidmann_transform(network: ClosedNetwork) -> ClosedNetwork:
    """Replace every multi-server station by its Seidmann equivalent.

    A ``C``-server queue of demand ``D`` becomes a single-server queue of
    demand ``D/C`` plus a delay station of demand ``D (C-1)/C``.  The
    returned network contains only single-server stations, solvable by
    any single-server MVA.  Varying (callable) demands are wrapped so the
    split scales with the evaluated demand.
    """
    new_stations: list[Station] = []
    for st in network.stations:
        if st.kind != "queue" or st.servers == 1:
            new_stations.append(st)
            continue
        c = st.servers
        if callable(st.demand):
            fn = st.demand
            queue_demand = lambda n, _f=fn, _c=c: float(_f(n)) / _c
            delay_demand = lambda n, _f=fn, _c=c: float(_f(n)) * (_c - 1) / _c
        else:
            queue_demand = float(st.demand) / c
            delay_demand = float(st.demand) * (c - 1) / c
        new_stations.append(
            Station(st.name, queue_demand, servers=1, visits=st.visits, kind="queue")
        )
        new_stations.append(
            Station(
                f"{st.name}.seidmann-delay",
                delay_demand,
                servers=1,
                visits=st.visits,
                kind="delay",
            )
        )
    return ClosedNetwork(
        new_stations, think_time=network.think_time, name=f"{network.name}-seidmann"
    )


def approximate_multiserver_mva(
    network: ClosedNetwork,
    max_population: int,
    demands: Sequence[float] | None = None,
    demand_level: float = 1.0,
) -> MVAResult:
    """Approximate multi-server MVA: Seidmann transform + Schweitzer.

    This is the MAQ-PRO-style baseline ([19] in the paper).  The result
    is reported against the *original* station list: the synthetic
    Seidmann delay residence time is folded back into its parent
    station's columns so trajectories are directly comparable with
    Algorithm 2 output.
    """
    if demands is not None:
        network = network.with_demands(demands)
        demands = None
    transformed = seidmann_transform(network)
    raw = schweitzer_amva(transformed, max_population, demand_level=demand_level)

    names = network.station_names
    n_levels = max_population
    k = len(names)
    qs = np.zeros((n_levels, k))
    rks = np.zeros((n_levels, k))
    utils = np.zeros((n_levels, k))
    for col_raw, raw_name in enumerate(raw.station_names):
        base = raw_name.removesuffix(".seidmann-delay")
        col = names.index(base)
        qs[:, col] += raw.queue_lengths[:, col_raw]
        rks[:, col] += raw.residence_times[:, col_raw]
        if not raw_name.endswith(".seidmann-delay"):
            # utilization of the Seidmann queue (demand D/C) equals the
            # per-server utilization X D / C of the original station.
            utils[:, col] = raw.utilizations[:, col_raw]

    return MVAResult(
        populations=raw.populations,
        throughput=raw.throughput,
        response_time=raw.response_time,
        queue_lengths=qs,
        residence_times=rks,
        utilizations=utils,
        station_names=names,
        think_time=raw.think_time,
        solver="approx-multiserver-mva",
    )
