"""Algorithm 3 — MVASD: multi-server MVA with varying service demands.

The paper's core contribution.  Classic MVA assumes the demand vector is
constant over the whole population sweep, but measured demands *change*
with concurrency (caching, batching, branch prediction — Figs. 5, 10).
MVASD therefore re-evaluates, at every population level ``n``, an
interpolated demand ``SS_k^n = h_k(n)`` fitted through demands sampled
at a handful of measured concurrency levels, and feeds it to the
multi-server residence-time equation (eq. 11):

    ``R_k = (SS_k^n / C_k) * (1 + Q_k + F_k)``

with the same marginal-probability machinery as Algorithm 2 (but driven
by ``SS_k^n``).  Both demand axes run the batched recursions of
:mod:`repro.engine.batched` at ``S = 1``: on the population axis the
demand matrix is known up front, so the recursion is the compiled
kernel (or its NumPy twin, the same bits).  Two additional variants
reproduce the paper's baselines and extensions:

* ``single_server=True`` — the "MVASD: Single Server" baseline of
  Fig. 8: multi-server queues are *normalized* to single-server ones by
  dividing the demand by the core count (``R_k = (SS_k^n/C_k)(1+Q_k)``),
  dropping the correction factor.  Underestimates contention for
  CPU-bound workloads.
* ``demand_axis="throughput"`` — Section 7 / Fig. 11: demand curves
  interpolated against *throughput* instead of concurrency.  Since
  ``X^n`` is not known before the level is solved, each level runs a
  small damped fixed-point iteration ``X -> demands(X) -> X`` seeded
  with the previous level's throughput, in the same NumPy recursion
  over the same marginal state (``repro.engine.batched._mvasd_levels``
  with per-scenario demand curves).

Demand functions may come from the network's own callable demands, from
an explicit mapping, or from fitted
:class:`repro.interpolate.demand_model.ServiceDemandModel` objects —
anything callable ``level -> seconds``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .mva import _scalar_result, validate_resume
from .network import ClosedNetwork
from .results import MVAResult

__all__ = ["mvasd", "precompute_demand_matrix"]

DemandFn = Callable[[float], float]

def _resolve_demand_functions(
    network: ClosedNetwork,
    demand_functions: Mapping[str, DemandFn] | Sequence[DemandFn] | None,
) -> list[DemandFn]:
    """One callable per station, in station order.

    Delegates to the shared validator in :mod:`repro.solvers.validation`
    (deferred import to avoid the registration-time cycle).
    """
    from ..solvers.validation import resolve_demand_functions

    return resolve_demand_functions(network, demand_functions, solver="mvasd")


@lru_cache(maxsize=16)
def _population_grid(max_population: int) -> np.ndarray:
    """The read-only grid ``1..N`` as floats, shared by every caller."""
    grid = np.arange(1, max_population + 1, dtype=float)
    grid.setflags(write=False)
    return grid


def precompute_demand_matrix(
    fns: Sequence[DemandFn],
    max_population: int,
    levels: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate every demand curve over the whole population grid up front.

    Returns the ``(N, K)`` matrix ``SS_k^n`` for ``n = 1..N`` (or over an
    explicit ``levels`` grid).  Curves that accept array input — fitted
    :class:`~repro.interpolate.demand_model.ServiceDemandModel` splines,
    :class:`~repro.apps.profiles.DemandProfile` shapes — are evaluated in
    one vectorized call per station; anything else falls back to a
    per-level loop.  This replaces the K Python calls per recursion level
    inside :func:`mvasd` with a single upfront sweep, which is what makes
    the batched kernels in :mod:`repro.engine` profitable.
    """
    if levels is None:
        if max_population < 1:
            raise ValueError(f"max_population must be >= 1, got {max_population}")
        levels = _population_grid(int(max_population))
    else:
        levels = np.asarray(levels, dtype=float)
    matrix = np.empty((levels.shape[0], len(fns)))
    for k, f in enumerate(fns):
        try:
            out = np.asarray(f(levels), dtype=float)
            vectorized = out.shape == levels.shape
        except Exception:
            vectorized = False
        if vectorized:
            matrix[:, k] = out
        else:
            matrix[:, k] = [float(f(lvl)) for lvl in levels]
    if not np.isfinite(matrix).all():
        bad = np.argwhere(~np.isfinite(matrix))[0]
        raise ValueError(
            f"mvasd: non-finite interpolated demand at level {levels[bad[0]]:g} "
            f"(station index {bad[1]})"
        )
    if np.any(matrix < 0):
        bad = np.argwhere(matrix < 0)[0]
        raise ValueError(
            f"negative interpolated demand at level {levels[bad[0]]:g} "
            f"(station index {bad[1]})"
        )
    return matrix


def mvasd(
    network: ClosedNetwork,
    max_population: int,
    demand_functions: Mapping[str, DemandFn] | Sequence[DemandFn] | None = None,
    single_server: bool = False,
    demand_axis: str = "population",
    resume_from: MVAResult | None = None,
) -> MVAResult:
    """Solve a closed network with MVASD (Algorithm 3).

    Parameters
    ----------
    network:
        Closed network; stations with callable demands supply their own
        ``SS_k^n`` curves unless ``demand_functions`` overrides them.
    max_population:
        Largest population ``N``; the recursion covers ``n = 1..N``.
    demand_functions:
        Optional per-station demand curves — a mapping keyed by station
        name or a sequence in station order.  Typically the
        ``predict``/``__call__`` of fitted spline demand models.
    single_server:
        Use the normalized single-server baseline instead of the
        multi-server correction (Fig. 8 comparison).
    demand_axis:
        ``"population"`` (default) evaluates demand curves at ``n``;
        ``"throughput"`` evaluates them at the level's own throughput
        via a damped fixed point (Fig. 11).
    resume_from:
        A previous *non-prefix* result of this solver variant at some
        ``L < N`` over the same network and demand curves: the recursion
        restarts from level ``L + 1``, bit-identical to a full solve.
        Multi-server resumes need the result's ``final_state`` (the
        per-station marginal vectors), which prefix slices drop.  Only
        ``demand_axis="population"`` is resumable — the throughput axis
        seeds each level's fixed point with the float ``x_prev``, which
        a prefix cannot reproduce for the level after the cut.

    Returns
    -------
    MVAResult
        With ``demands_used`` recording the actual ``SS_k^n`` consumed at
        every level and, for multi-server runs, the ``p_k(j)``
        trajectories.
    """
    if max_population < 1:
        raise ValueError(f"max_population must be >= 1, got {max_population}")
    if demand_axis not in ("population", "throughput"):
        raise ValueError(f"demand_axis must be 'population' or 'throughput', got {demand_axis!r}")

    fns = _resolve_demand_functions(network, demand_functions)
    solver = "mvasd-single-server" if single_server else "mvasd"
    if demand_axis == "population":
        # Population-axis demands depend only on n, so the whole SS_k^n
        # matrix is computable before the recursion starts (vectorized per
        # station).
        demand_matrix = precompute_demand_matrix(fns, max_population)
        return _population_recursion(network, demand_matrix, single_server, solver, resume_from)
    if resume_from is not None:
        raise ValueError(
            "mvasd: resume_from requires demand_axis='population' "
            "(the throughput axis is not level-separable)"
        )

    from ..engine.batched import _mvasd_levels

    used = np.empty((1, max_population, len(network)))
    *levels, history, _ = _mvasd_levels(
        None, network, used, np.full(1, network.think_time, dtype=float), single_server,
        history=True, fns=[fns],
    )
    return _scalar_result(
        network,
        levels,
        None,
        solver=solver + "-throughput",
        marginal_probabilities={name: hist[0] for name, hist in history.items()} or None,
        demands_used=used[0],
    )


def _population_recursion(
    network: ClosedNetwork,
    demand_matrix: np.ndarray,
    single_server: bool,
    solver: str,
    prev: MVAResult | None = None,
) -> MVAResult:
    """Population-axis MVASD over ``(N, K)`` demands: the batched recursion at S=1.

    ``prev`` continues a result at ``L < N`` from its queue lengths
    and marginals, copying levels ``1..L``.  A multi-server ``mvasd``
    solve keeps each queueing station's ``p(0..N | N)`` in its
    ``final_state`` for a later resume; other solver labels get none.
    """
    from ..engine import native
    from ..engine.batched import _mvasd_levels

    n_levels, k = demand_matrix.shape
    start, init_p, init_q = 0, None, None
    if prev is not None:
        start = validate_resume(prev, n_levels, k, network.think_time, solver)
        if prev.solver != solver:
            raise ValueError(
                f"mvasd: resume_from was produced by {prev.solver!r}, "
                f"this solve is {solver!r}"
            )
        if prev.demands_used is None or not np.array_equal(
            np.asarray(prev.demands_used), demand_matrix[:start]
        ):
            raise ValueError("mvasd: resume_from demands differ from this solve")
        init_q = np.asarray(prev.queue_lengths[-1], dtype=float)[None]
    if prev is not None and not single_server:
        # A final_state may have been unpickled from disk: check it in full.
        fstate = prev.final_state
        if not isinstance(fstate, Mapping) or int(fstate.get("level", -1)) != start:
            raise ValueError(
                f"mvasd: resume_from lacks a final_state at its level {start} (prefix "
                "slices drop it) — re-solve from scratch or resume the original result"
            )
        init_p = np.ones((1, k, start + 1))
        for idx, st in enumerate(network.stations):
            if st.kind != "queue":
                continue
            snap = fstate.get("marginals", {}).get(st.name, {})
            p = np.asarray(snap.get("p", ()), dtype=float)
            if (int(snap.get("servers", 0)), int(snap.get("level", -1)), p.shape) != (
                st.servers, start, (start + 1,)
            ):
                raise ValueError(
                    f"mvasd: final_state has no p(0..{start}) at resume level {start} "
                    f"for the {st.servers}-server station {st.name!r}"
                )
            if st.servers > 1 and st.name not in (prev.marginal_probabilities or {}):
                raise ValueError(f"mvasd: resume_from lacks marginal history for {st.name!r}")
            init_p[0, idx] = p

    *levels, history, final = _mvasd_levels(
        native.mvasd_kernel(), network, demand_matrix[None],
        np.full(1, network.think_time, dtype=float), single_server, start, init_p, init_q,
        history=True, final=solver == "mvasd",
    )
    probs = {name: hist[0] for name, hist in history.items()}
    if prev is not None:
        for name, hist in probs.items():
            hist[:start] = prev.marginal_probabilities[name]
    if final is not None:
        marginals = {
            name: {"servers": int(network[name].servers), "level": n_levels, "p": p[0]}
            for name, p in final.items()
        }
        final = {"solver": solver, "level": n_levels, "marginals": marginals}
    return _scalar_result(
        network,
        levels,
        prev,
        solver=solver,
        marginal_probabilities=probs or None,
        demands_used=demand_matrix,
        final_state=final,
    )
