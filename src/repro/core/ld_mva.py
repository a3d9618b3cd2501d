"""Exact load-dependent MVA (textbook marginal-probability recursion).

The classical exact treatment of stations whose service rate depends on
the local queue length (Lazowska et al., *Quantitative System
Performance*, ch. 20 — the "general load-dependent" recursion the JMT
tool implements, referenced by the paper when discussing ref. [17]):

    ``R_k(n)   = sum_{j=1..n} (j / mu_k(j)) * p_k(j-1 | n-1)``
    ``X(n)     = n / (Z + sum_k R_k(n))``
    ``p_k(j|n) = (X(n) / mu_k(j)) * p_k(j-1 | n-1)``   for ``j = 1..n``
    ``p_k(0|n) = 1 - sum_{j=1..n} p_k(j|n)``

A ``C``-server queue of demand ``D`` is the special case
``mu_k(j) = min(j, C) / D``, which makes this solver the *exact*
reference for multi-server stations: Algorithm 2's correction-factor
recursion is validated against it in the tests and the ablation bench.
The price is O(N^2 K) time and O(N K) memory versus Algorithm 2's
O(N K).

This recursion is also the workhorse of hierarchical composition
(:mod:`repro.solvers.fes`): a flow-equivalent service center is exactly
a station with a tabulated ``mu(j)`` law, supplied here through
``rate_tables``.  The recursion is
:func:`repro.engine.batched.batched_ld_mva`'s, run for one scenario:
the per-level work is a handful of ``(K, n)`` array operations, and
the marginal state rides in ``final_state`` so ``resume_from=`` extends
a ``1..L`` trajectory to ``1..N`` without recomputing the prefix.

Demands must be constant over the sweep (this is a fixed-demand exact
solver); combine with MVASD-style outer sweeps by re-solving per level
if needed.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .mva import _resolve_demands, _scalar_result, validate_resume
from .network import ClosedNetwork
from .results import MVAResult

__all__ = ["build_rate_tables", "exact_load_dependent_mva", "multiserver_rates"]

RateFn = Callable[[int], float]

_SOLVER_NAME = "exact-load-dependent-mva"


def multiserver_rates(demand: float, servers: int) -> RateFn:
    """Service-rate function ``mu(j) = min(j, C) / D`` of a C-server queue."""
    if demand <= 0:
        raise ValueError(f"demand must be positive, got {demand}")
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")

    def mu(j: int) -> float:
        return min(j, servers) / demand

    return mu


def build_rate_tables(
    network: ClosedNetwork,
    demands: np.ndarray,
    max_population: int,
    rates: Mapping[str, RateFn] | None = None,
    rate_tables: Mapping[str, Sequence[float]] | None = None,
    solver: str = "ld-mva",
) -> np.ndarray:
    """Dense ``(K, N)`` service-rate matrix ``mu_k(j)`` for ``j = 1..N``.

    Row precedence per queueing station: a callable from ``rates``, then
    a tabulated law from ``rate_tables`` (truncated to ``N`` entries —
    tables shorter than ``N`` are an error), then the multi-server
    default ``min(j, C_k) / D_k``.  Delay stations and zero-demand
    queues get ``+inf`` rows (never congested), which the recursion
    treats as "no queueing contribution".
    """
    big_n = max_population
    js = np.arange(1, big_n + 1, dtype=float)
    mu = np.empty((len(network), big_n), dtype=float)
    for idx, st in enumerate(network.stations):
        if st.kind == "delay":
            mu[idx] = np.inf
            continue
        if rates is not None and st.name in rates:
            fn = rates[st.name]
            row = np.array([fn(j) for j in range(1, big_n + 1)], dtype=float)
        elif rate_tables is not None and st.name in rate_tables:
            table = np.asarray(rate_tables[st.name], dtype=float)
            if table.ndim != 1 or table.shape[0] < big_n:
                have = 0 if table.ndim != 1 else table.shape[0]
                raise ValueError(
                    f"{solver}: station {st.name!r}: rate table covers "
                    f"{have} populations, need {big_n}"
                )
            row = table[:big_n]
        elif demands[idx] <= 0:
            row = np.full(big_n, np.inf)
        else:
            row = np.minimum(js, st.servers) / demands[idx]
        if np.any(np.isnan(row)) or np.any(row <= 0):
            raise ValueError(f"station {st.name!r}: service rates must be positive")
        mu[idx] = row
    return mu


def exact_load_dependent_mva(
    network: ClosedNetwork,
    max_population: int,
    demands: Sequence[float] | None = None,
    demand_level: float = 1.0,
    rates: Mapping[str, RateFn] | None = None,
    rate_tables: Mapping[str, Sequence[float]] | None = None,
    resume_from: MVAResult | None = None,
) -> MVAResult:
    """Exact MVA with general load-dependent stations.

    Parameters
    ----------
    network:
        The closed network.  Queueing stations default to the
        ``min(j, C_k) / D_k`` multi-server rate law; ``rates`` overrides
        individual stations with arbitrary ``mu(j)`` laws (e.g. a disk
        whose throughput improves with queue depth due to scheduling).
    max_population:
        Largest population ``N``.
    demands / demand_level:
        As in the other solvers: optional demand override, or the level
        at which varying demands are frozen.
    rates:
        Optional mapping ``station name -> mu(j)`` (jobs per second when
        ``j`` jobs are present, in demand units — i.e. already folding
        in the visit count).
    rate_tables:
        Optional mapping ``station name -> [mu(1), ..., mu(N)]`` — the
        array-native form of ``rates``, and the representation
        flow-equivalent stations (:mod:`repro.solvers.fes`) carry.
        ``rates`` wins where both name a station.
    resume_from:
        A previous result of this solver for the same network, demands
        and rate laws at some ``L < N``: the recursion restarts from the
        marginal distributions stored in ``final_state``, producing
        trajectories bit-identical to a full ``1..N`` solve.

    Returns
    -------
    MVAResult
        ``marginal_probabilities[name]`` holds ``p_k(j | N)`` for
        ``j = 0..N`` at the final population (shape ``(1, N+1)``),
        complementing the per-level scalars.  ``final_state`` carries
        the full marginal matrix for ``resume_from=``.
    """
    from ..engine.batched import _ld_mva_levels

    if max_population < 1:
        raise ValueError(f"max_population must be >= 1, got {max_population}")
    d = _resolve_demands(network, demands, demand_level, solver="ld-mva")
    big_n = max_population
    mu = build_rate_tables(network, d, big_n, rates, rate_tables)
    start, init_p = 0, None
    if resume_from is not None:
        start, init_p = _resume_state(resume_from, big_n, network, d, mu)
    levels, p = _ld_mva_levels(
        network, d[None], mu[None], np.full(1, network.think_time), big_n, start, init_p
    )
    p = p[0]
    return _scalar_result(
        network,
        levels,
        resume_from,
        solver=_SOLVER_NAME,
        marginal_probabilities={
            st.name: p[idx][np.newaxis, :].copy()
            for idx, st in enumerate(network.stations)
            if st.kind == "queue"
        },
        demands_used=np.tile(d, (big_n, 1)),
        final_state={"solver": _SOLVER_NAME, "level": big_n, "marginals": p.copy(), "mu": mu},
    )


def _resume_state(
    prev: MVAResult, max_population: int, network: ClosedNetwork, d: np.ndarray, mu: np.ndarray
) -> tuple[int, np.ndarray]:
    """Validate ``resume_from``; return its level ``L`` and marginals ``(1, K, L+1)``."""
    k = len(network)
    level = validate_resume(prev, max_population, k, network.think_time, "ld-mva")
    if prev.solver != _SOLVER_NAME:
        raise ValueError(
            f"ld-mva: resume_from was produced by {prev.solver!r}, "
            f"expected {_SOLVER_NAME!r}"
        )
    if prev.demands_used is None or not np.array_equal(
        np.asarray(prev.demands_used[-1]), d
    ):
        raise ValueError("ld-mva: resume_from demands differ from this solve")
    state = prev.final_state
    if not isinstance(state, Mapping) or "marginals" not in state:
        raise ValueError("ld-mva: resume_from lacks final_state (prefix slices drop it)")
    marginals = np.asarray(state["marginals"], dtype=float)
    if marginals.shape != (k, level + 1):
        raise ValueError(
            f"ld-mva: resume_from marginals have shape {marginals.shape}, "
            f"expected {(k, level + 1)}"
        )
    prev_mu = np.asarray(state["mu"], dtype=float)
    if not np.array_equal(prev_mu, mu[:, :level]):
        raise ValueError("ld-mva: resume_from service rates differ from this solve")
    return level, marginals[None]


def _reference_exact_ld_mva(
    network: ClosedNetwork,
    max_population: int,
    demands: Sequence[float] | None = None,
    demand_level: float = 1.0,
    rates: Mapping[str, RateFn] | None = None,
    rate_tables: Mapping[str, Sequence[float]] | None = None,
) -> MVAResult:
    """Scalar per-station reference recursion (pre-vectorization).

    Kept verbatim as the parity oracle for the vectorized solver: the
    tests require ``exact_load_dependent_mva`` to agree with this
    implementation to ≤1e-12.  Not registered anywhere — import it
    directly.
    """
    if max_population < 1:
        raise ValueError(f"max_population must be >= 1, got {max_population}")
    d = _resolve_demands(network, demands, demand_level, solver="ld-mva")
    k = len(network)
    z = network.think_time
    stations = network.stations
    servers = network.servers().astype(float)
    big_n = max_population

    mu_matrix = build_rate_tables(network, d, big_n, rates, rate_tables)
    mu_tables = [
        None if st.kind == "delay" else mu_matrix[idx]
        for idx, st in enumerate(stations)
    ]

    p = [np.zeros(big_n + 1) for _ in range(k)]
    for arr in p:
        arr[0] = 1.0

    pops = np.arange(1, big_n + 1)
    xs = np.empty(big_n)
    rs = np.empty(big_n)
    qs = np.empty((big_n, k))
    rks = np.empty((big_n, k))
    utils = np.empty((big_n, k))

    for i, n in enumerate(pops):
        r_k = np.empty(k)
        for idx, st in enumerate(stations):
            if st.kind == "delay":
                r_k[idx] = d[idx]
                continue
            mu = mu_tables[idx][:n]
            js = np.arange(1, n + 1, dtype=float)
            r_k[idx] = float(((js / mu) * p[idx][:n]).sum())
        r_total = float(r_k.sum())
        x = n / (r_total + z)

        for idx, st in enumerate(stations):
            if st.kind == "delay":
                continue
            mu = mu_tables[idx][:n]
            new_tail = (x / mu) * p[idx][:n]
            p[idx][1 : n + 1] = new_tail
            p[idx][0] = max(0.0, 1.0 - float(new_tail.sum()))

        xs[i] = x
        rs[i] = r_total
        rks[i] = r_k
        qs[i] = x * r_k
        utils[i] = x * d / servers

    prob_hist = {
        st.name: p[idx][np.newaxis, :].copy()
        for idx, st in enumerate(stations)
        if st.kind == "queue"
    }
    return MVAResult(
        populations=pops,
        throughput=xs,
        response_time=rs,
        queue_lengths=qs,
        residence_times=rks,
        utilizations=utils,
        station_names=network.station_names,
        think_time=z,
        solver=_SOLVER_NAME,
        marginal_probabilities=prob_hist,
        demands_used=np.tile(d, (big_n, 1)),
    )
