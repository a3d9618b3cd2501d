"""Algorithm 1 — exact single-server Mean Value Analysis.

The classic Reiser-Lavenberg recursion for single-class closed
product-form networks: start with an empty network and add customers
one at a time.  At population ``n`` the residence time at station ``k``
follows the arrival theorem,

    ``R_k = D_k * (1 + Q_k^{n-1})``        (queueing stations, eq. 8)
    ``R_k = D_k``                          (delay stations)

then Little's law gives ``X^n = n / (Z + sum_k R_k)`` and the queues
are updated with ``Q_k = X^n R_k``.

The residence times here fold the visit count into the demand
(``D_k = V_k S_k``), matching the ``sum_k V_k R_k`` total of the
paper's pseudocode.

Multi-server stations are *not* modelled here; this solver treats every
station as single-server, which is exactly the naive model the paper
improves on.  Use :func:`repro.core.multiserver.exact_multiserver_mva`
(Algorithm 2) for multi-core CPUs, or pass demands normalized by the
core count to obtain the "normalized single-server" baseline of Fig. 8.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .network import ClosedNetwork
from .results import MVAResult

__all__ = ["exact_mva"]


def _resolve_demands(
    network: ClosedNetwork, demands, level: float, solver: str = "mva"
) -> np.ndarray:
    """Fixed demand vector for a constant-demand solve.

    Delegates to the shared validator in :mod:`repro.solvers.validation`
    (deferred import — ``repro.solvers`` pulls the core solver modules in
    at registration time, so a module-level import here would cycle).
    ``demands`` overrides the network's demands; otherwise varying
    demands are frozen at population ``level`` — this is the paper's
    ``MVA i`` construction (service demands measured at concurrency
    ``i`` fed to a constant-demand solver).
    """
    from ..solvers.validation import resolve_demands

    return resolve_demands(network, demands, level, solver=solver)


def validate_resume(
    prev: MVAResult,
    max_population: int,
    n_stations: int,
    think_time: float,
    solver: str,
) -> int:
    """Check that ``prev`` is a resumable prefix; return its level ``L``.

    Shared by every solver accepting ``resume_from=``: the previous
    result must be a dense ``1..L`` trajectory over the same stations
    and think time, with ``L < max_population``.  Demand agreement is
    checked by each solver against its own resolved demands (exact
    equality — the facade's trajectory store guarantees it via
    fingerprints, direct callers get a cheap guard).
    """
    if not isinstance(prev, MVAResult):
        raise ValueError(
            f"{solver}: resume_from must be an MVAResult, got {type(prev).__name__}"
        )
    if prev.queue_lengths.shape[1] != n_stations:
        raise ValueError(
            f"{solver}: resume_from covers {prev.queue_lengths.shape[1]} stations, "
            f"this network has {n_stations}"
        )
    if float(prev.think_time) != float(think_time):
        raise ValueError(
            f"{solver}: resume_from think time {prev.think_time} != {think_time}"
        )
    level = prev.max_population
    if int(prev.populations[0]) != 1 or len(prev.populations) != level:
        raise ValueError(f"{solver}: resume_from must be a dense 1..L trajectory")
    if level >= max_population:
        raise ValueError(
            f"{solver}: resume_from already covers N={level} >= {max_population}; "
            f"take result.prefix({max_population}) instead"
        )
    return level


def _scalar_result(network: ClosedNetwork, levels, prev: MVAResult | None, **fields) -> MVAResult:
    """One network's :class:`MVAResult` from ``S = 1`` level arrays.

    ``levels`` is a batched recursion's ``(xs, rs, qs, rks, utils)`` at
    ``S = 1``; a resumed solve copies levels ``1..L`` from ``prev``.
    ``fields`` carry the solver label and the optional fields.
    """
    arrays = tuple(arr[0] for arr in levels)
    if prev is not None:
        prefix = (prev.throughput, prev.response_time, prev.queue_lengths,
                  prev.residence_times, prev.utilizations)
        for arr, rows in zip(arrays, prefix):
            arr[: prev.max_population] = rows
    return MVAResult(
        np.arange(1, len(arrays[0]) + 1),
        *arrays,
        station_names=network.station_names,
        think_time=network.think_time,
        **fields,
    )


def exact_mva(
    network: ClosedNetwork,
    max_population: int,
    demands: Sequence[float] | None = None,
    demand_level: float = 1.0,
    resume_from: MVAResult | None = None,
) -> MVAResult:
    """Solve a closed network with exact single-server MVA (Algorithm 1).

    The recursion is :func:`repro.engine.batched.batched_exact_mva`'s,
    run for one scenario.

    Parameters
    ----------
    network:
        The closed network model.  Multi-server stations are accepted but
        treated as single servers (see module docstring).
    max_population:
        Largest customer population ``N``; the recursion yields results
        for every ``n = 1..N``.
    demands:
        Optional fixed demand vector overriding the network demands —
        used to build the paper's ``MVA i`` variants from demands
        sampled at concurrency ``i``.
    demand_level:
        When the network has varying demands and ``demands`` is not
        given, the level at which they are frozen.
    resume_from:
        A previous result of this solver for the *same* network and
        demands at some ``L < N``: the recursion restarts from the
        cached queue lengths at ``L`` instead of from the empty network,
        producing trajectories bit-identical to a full ``1..N`` solve.

    Returns
    -------
    MVAResult
        Trajectories for ``n = 1..N``.
    """
    from ..engine.batched import _exact_mva_levels

    return _constant_demand_solve(
        _exact_mva_levels, "exact-mva", network, max_population, demands, demand_level,
        resume_from,
    )


def _constant_demand_solve(
    levels_fn, solver, network, max_population, demands, demand_level, resume_from
) -> MVAResult:
    """A constant-demand recursion ``levels_fn`` of :mod:`repro.engine.batched` at S=1.

    ``levels_fn(network, d, z, N, start, init_q)`` continues from the
    resumed result's last queue lengths when there is one.
    """
    if max_population < 1:
        raise ValueError(f"max_population must be >= 1, got {max_population}")
    d = _resolve_demands(network, demands, demand_level, solver=solver)
    start, init_q = 0, None
    if resume_from is not None:
        start = validate_resume(
            resume_from, max_population, len(network), network.think_time, solver
        )
        if resume_from.demands_used is None or not np.array_equal(
            np.asarray(resume_from.demands_used[-1]), d
        ):
            raise ValueError(f"{solver}: resume_from demands differ from this solve")
        init_q = np.array(resume_from.queue_lengths[-1], dtype=float)[None]
    levels = levels_fn(
        network, d[None], np.full(1, network.think_time), max_population, start, init_q
    )
    return _scalar_result(
        network, levels, resume_from, solver=solver,
        demands_used=np.tile(d, (max_population, 1)),
    )
