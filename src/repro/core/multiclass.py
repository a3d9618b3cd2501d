"""Exact multi-class MVA (extension beyond the paper's single class).

The paper restricts itself to a single customer class ("customers are
assumed to be indistinguishable"), but real load tests mix workflows —
e.g. VINS Registration vs Renew-Policy customers.  This module provides
the classical exact multi-class recursion over population *vectors* so
such mixes can be modelled:

    ``R_{k,c}(n) = D_{k,c} * (1 + Q_k(n - e_c))``
    ``X_c(n)    = n_c / (Z_c + sum_k R_{k,c}(n))``
    ``Q_k(n)    = sum_c X_c(n) * R_{k,c}(n)``

Stations are single-server (or delay); combine with
:func:`repro.core.amva.seidmann_transform` for multi-core CPUs.  Cost is
O(K * prod_c (N_c + 1)), so keep class populations modest.  The lattice
walk is :func:`repro.engine.batched.batched_exact_multiclass`'s, run for
one scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["MultiClassResult", "exact_multiclass_mva"]


@dataclass(frozen=True)
class MultiClassResult:
    """Solution of a multi-class closed network at the full population.

    Attributes
    ----------
    populations:
        The target population vector ``(N_1, ..., N_C)``.
    throughput:
        Per-class throughput ``X_c``, shape ``(C,)``.
    response_time:
        Per-class response time (excluding think time), shape ``(C,)``.
    queue_lengths:
        Total mean jobs per station, shape ``(K,)``.
    queue_lengths_by_class:
        Shape ``(K, C)``.
    utilizations:
        Per-station utilization ``sum_c X_c D_{k,c}``, shape ``(K,)``.
    station_names:
        Station labels.
    """

    populations: tuple[int, ...]
    throughput: np.ndarray
    response_time: np.ndarray
    queue_lengths: np.ndarray
    queue_lengths_by_class: np.ndarray
    utilizations: np.ndarray
    station_names: tuple[str, ...]
    think_times: tuple[float, ...]

    @property
    def total_throughput(self) -> float:
        return float(self.throughput.sum())

    @property
    def cycle_times(self) -> np.ndarray:
        return self.response_time + np.asarray(self.think_times)


def exact_multiclass_mva(
    demands: Sequence[Sequence[float]],
    populations: Sequence[int],
    think_times: Sequence[float],
    station_names: Sequence[str] | None = None,
    station_kinds: Sequence[str] | None = None,
) -> MultiClassResult:
    """Solve a multi-class closed network exactly.

    Parameters
    ----------
    demands:
        ``(K, C)`` matrix — demand of class ``c`` at station ``k``.
    populations:
        Class populations ``(N_1, ..., N_C)``.
    think_times:
        Per-class think times ``Z_c``.
    station_names:
        Optional station labels (defaults ``station-0..``).
    station_kinds:
        Optional per-station ``"queue"`` / ``"delay"`` flags (default all
        queueing).

    Returns
    -------
    MultiClassResult
        Metrics at the full population vector.
    """
    from ..engine.batched import (
        _exact_multiclass_lattice,
        _lattice_inputs,
        _multiclass_demand_stack,
    )

    solver = "exact-multiclass"
    d = np.asarray(demands, dtype=float)
    if d.ndim != 2:
        raise ValueError(f"{solver}: demands must be a (K, C) matrix, got shape {d.shape}")
    d, _ = _multiclass_demand_stack(d, d.shape, solver, None)
    pops, names, is_queue, z, _ = _lattice_inputs(
        d, populations, think_times, station_names, station_kinds, None, solver
    )
    arrays = _exact_multiclass_lattice(d, pops, z, is_queue)
    return MultiClassResult(pops, *(arr[0] for arr in arrays), names, tuple(z))
