"""Algorithm 2 — exact MVA with multi-server queues.

Multi-core CPUs are multi-server FCFS queues; plain MVA has no notion of
``C_k`` parallel servers.  The paper adopts the correction of its
ref. [8] (the Reiser exact multi-server recursion, as presented e.g. in
Bolch et al., *Queueing Networks and Markov Chains*): the residence
time at a ``C_k``-server station is

    ``R_k = (D_k / C_k) * (1 + Q_k + F_k)``                    (eq. 10)

with a correction factor built from the marginal queue-size
probabilities ``p_k(j)`` = P[``j`` jobs at station ``k``],

    ``F_k = sum_{j=0}^{C_k - 2} (C_k - 1 - j) * p_k(j)``

updated after each population step as

    ``p_k(j) <- (X^n D_k / j) * p_k(j-1)``          for ``j = 1..C_k-1``
    ``p_k(0) <- 1 - (1/C_k) * (X^n D_k + sum_{j=1}^{C_k-1} (C_k - j) p_k(j))``

**Indexing note.** The paper's pseudocode stores these in a 1-based
Scilab array — its ``p_k(1)`` (initialized to 1 on the empty network)
is the *empty-station* probability ``p_k(0)`` here, and its correction
``sum_{j=1}^{C_k}(C_k - j) p_k(j)`` is this ``F_k`` after the index
shift.  Read literally in 0-based form, the pseudocode diverges
(probabilities exceed 1 at ``C_k = 16``).

**Numerical note.** The truncated recursion above, though algebraically
exact, is numerically unstable for larger server counts: near
saturation ``p_k(0)`` becomes a catastrophic cancellation
(``1 - (XD + ...)/C`` with ``XD -> C``) whose rounding error is then
amplified through the ``(XD/j)`` chain — at ``C_k = 16`` the recursion
tracks the exact solution to 1e-13 until ~70 % utilization and then
blows up.  This is a known property of exact multi-server MVA.  The
solver therefore carries the **full** marginal vector ``p_k(j | n)``
for ``j = 0..n``, renormalized every level: ``method="recursion"`` and
both axes of MVASD run it in the batched recursions of
:mod:`repro.engine.batched` at ``S = 1`` (``_BatchedMultiServerState``
and its compiled twin ``_mvasd.c``), for which one can show

    ``(D/C) * (1 + Q + F)  ==  D * sum_{j>=1} (j / min(j, C)) p(j-1 | n-1)``

i.e. eq. 10 evaluated with exact marginals equals the load-dependent
residence form — stable because residence is dominated by the large
marginals instead of the tiny cancelled ones.  The truncated
paper-literal update (:func:`multiserver_step` /
:func:`update_marginals`) is kept as Algorithm 2's transcription for
small server counts (the Fig. 3 bench runs ``method="recursion"``); the
test suite validates both against :mod:`repro.core.ld_mva` in their
stable regimes.

The per-visit ``S_k`` of the paper combines with ``V_k`` into the
demand ``D_k`` here, exactly as in the total ``sum_k V_k R_k``.  For
``C_k = 1`` the correction factor is zero and the recursion reduces to
Algorithm 1.

At zero load ``p_k(0) = 1`` so ``F_k = C_k - 1`` and ``R_k = D_k`` — a
lone customer sees the full service demand.  As the station saturates
the low-occupancy probabilities vanish and
``R_k -> (D_k / C_k)(1 + Q_k)``, the correct heavy-traffic behaviour of
a ``C_k``-server queue.  Fig. 3 of the paper plots these ``p_k(j)``
trajectories for a 4-core CPU;
:class:`~repro.core.results.MVAResult.marginal_probabilities` exposes
them for the corresponding bench.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .mva import _resolve_demands
from .network import ClosedNetwork
from .results import MVAResult

__all__ = [
    "exact_multiserver_mva",
    "multiserver_step",
    "update_marginals",
]


def multiserver_step(
    demand: float,
    servers: int,
    queue: float,
    probs: np.ndarray,
) -> float:
    """Residence time of one station for one population step (eq. 10).

    ``probs`` holds ``p_k(0 .. C_k-1)`` at the *previous* population;
    the caller updates them afterwards with :func:`update_marginals`.
    Exposed separately so the MVASD solver (Algorithm 3) can reuse it
    with per-level demands.
    """
    if servers == 1:
        return demand * (1.0 + queue)
    j = np.arange(0, servers - 1)
    correction = float(((servers - 1 - j) * probs[: servers - 1]).sum())
    return (demand / servers) * (1.0 + queue + correction)


def update_marginals(probs: np.ndarray, x: float, demand: float, servers: int) -> None:
    """In-place marginal-probability update of Algorithm 2.

    ``p(1..C-1)`` are chained from the previous population's values
    (highest index first, so each reads the *old* lower neighbour), then
    ``p(0)`` is renormalized from the new tail.  ``p(0)`` is clamped at
    0: past saturation the closed-form normalization can dip negative
    by rounding since ``X^n D_k -> C_k`` only in exact arithmetic.
    """
    if servers == 1:
        return
    xd = x * demand
    for j in range(servers - 1, 0, -1):
        probs[j] = (xd / j) * probs[j - 1]
    weights = servers - np.arange(1, servers)
    tail = float((weights * probs[1:servers]).sum())
    probs[0] = max(0.0, 1.0 - (xd + tail) / servers)


def exact_multiserver_mva(
    network: ClosedNetwork,
    max_population: int,
    demands: Sequence[float] | None = None,
    demand_level: float = 1.0,
    method: str = "convolution",
    station_detail: bool = True,
) -> MVAResult:
    """Solve a closed network with exact multi-server MVA (Algorithm 2).

    Demands are constant over the population sweep; as with
    :func:`repro.core.mva.exact_mva`, a varying-demand network is frozen
    at ``demand_level`` (the paper's ``MVA i`` construction) unless an
    explicit ``demands`` vector is given.

    ``method`` selects the backend:

    * ``"convolution"`` (default) — the model Algorithm 2 computes,
      solved exactly and stably for any server count via
      :func:`repro.core.convolution.convolution_mva`.
    * ``"recursion"`` — the paper's marginal-probability recursion
      (full-vector, renormalized).  Matches convolution to rounding for
      small server counts and moderate utilization, and additionally
      returns the ``p_k(j)`` trajectories of Fig. 3 in
      ``marginal_probabilities``; subject to the MVA-LD transition bias
      discussed in the module docstring for many-server bottlenecks.
    """
    if max_population < 1:
        raise ValueError(f"max_population must be >= 1, got {max_population}")
    if method not in ("convolution", "recursion"):
        raise ValueError(f"method must be 'convolution' or 'recursion', got {method!r}")
    if method == "convolution":
        from .convolution import convolution_mva

        result = convolution_mva(
            network,
            max_population,
            demands=demands,
            demand_level=demand_level,
            station_detail=station_detail,
        )
        # Re-badge: callers asked for Algorithm 2's model, which this solves.
        return MVAResult(
            populations=result.populations,
            throughput=result.throughput,
            response_time=result.response_time,
            queue_lengths=result.queue_lengths,
            residence_times=result.residence_times,
            utilizations=result.utilizations,
            station_names=result.station_names,
            think_time=result.think_time,
            solver="exact-multiserver-mva",
            demands_used=result.demands_used,
        )

    from .mvasd import _population_recursion

    d = _resolve_demands(network, demands, demand_level, solver="exact-multiserver-mva")
    return _population_recursion(
        network, np.tile(d, (max_population, 1)), False, "exact-multiserver-mva-recursion"
    )
