"""Multi-class approximate MVA with varying demands ("multi-class MVASD").

The paper treats all virtual users as one class and leaves workload
mixes to future work.  This module combines its two threads:

* the **Bard-Schweitzer multi-class approximation** — the exact
  multi-class recursion of :mod:`repro.core.multiclass` costs
  ``prod_c (N_c + 1)`` lattice points, hopeless for realistic
  populations, while the Schweitzer fixed point

      ``Q_k(N - e_c) ~= Q_k(N) - Q_{k,c}(N) / N_c``

  solves directly at the target mix;
* **concurrency-varying demands**: per-class demand curves
  ``SS_{k,c}(n)`` evaluated at the *total* population, exactly like
  Algorithm 3 — fitted from per-workflow load tests.

:func:`multiclass_mvasd` sweeps a fixed mix proportionally (e.g. 20 %
Registration / 80 % Read) from 1 user to a target total, producing
per-class trajectories; this is the multi-class analogue of the paper's
Fig. 6/7 curves.

Stations are single-server or delay (Seidmann-transform multi-server
networks first); multi-class FCFS product form additionally requires a
common service rate across classes at FCFS stations, so — as with every
multi-class AMVA in practice — results for class-dependent demands are
approximations, validated against the multi-class DES in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = ["MultiClassTrajectory", "multiclass_mvasd", "bard_schweitzer"]

DemandFn = Callable[[float], float]


def bard_schweitzer(
    demands: np.ndarray,
    populations: Sequence[int],
    think_times: Sequence[float],
    station_kinds: Sequence[str] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bard-Schweitzer fixed point at one population vector.

    The iteration is the one every step of
    :func:`repro.engine.batched.batched_multiclass_mvasd` runs, for one
    scenario.

    Parameters
    ----------
    demands:
        ``(K, C)`` demand matrix.
    populations / think_times:
        Per-class ``N_c`` and ``Z_c``.
    station_kinds:
        Optional ``"queue"``/``"delay"`` per station.

    Returns
    -------
    (X_c, R_c, Q_kc):
        Per-class throughput and response time, and the per-station x
        per-class queue matrix.
    """
    from ..engine.batched import _bard_schweitzer, _class_axes, _multiclass_demand_stack

    solver = "bard-schweitzer"
    d = np.asarray(demands, dtype=float)
    if d.ndim != 2:
        raise ValueError(f"{solver}: demands must be a non-negative (K, C) matrix")
    d, _ = _multiclass_demand_stack(d, d.shape, solver, None)
    k, c = d.shape[1:]
    n_c = np.asarray(populations, dtype=float)
    if n_c.shape != (c,) or not np.isfinite(n_c).all() or np.any(n_c < 0):
        raise ValueError(f"{solver}: populations must be {c} finite non-negative values")
    _, _, is_queue, z, _ = _class_axes(None, think_times, None, station_kinds, k, solver)
    if z.shape != (c,):
        raise ValueError(f"{solver}: think_times must be {c} values")
    x, r, q = _bard_schweitzer(d, n_c, z, is_queue)
    return x[0], r[0], q[0]


@dataclass(frozen=True)
class MultiClassTrajectory:
    """Per-class trajectories along a proportional population sweep."""

    class_names: tuple[str, ...]
    station_names: tuple[str, ...]
    totals: np.ndarray  # total population per step
    populations: np.ndarray  # (steps, C) realized integer mixes
    throughput: np.ndarray  # (steps, C)
    response_time: np.ndarray  # (steps, C)
    utilizations: np.ndarray  # (steps, K)
    think_times: tuple[float, ...]

    @property
    def total_throughput(self) -> np.ndarray:
        return self.throughput.sum(axis=1)

    def class_index(self, name: str) -> int:
        try:
            return self.class_names.index(name)
        except ValueError:
            raise KeyError(f"unknown class {name!r}") from None

    def cycle_time(self, name: str) -> np.ndarray:
        ci = self.class_index(name)
        return self.response_time[:, ci] + self.think_times[ci]


def multiclass_mvasd(
    station_names: Sequence[str],
    class_demands: Mapping[str, Mapping[str, DemandFn | float]],
    mix: Mapping[str, float],
    max_total_population: int,
    think_times: Mapping[str, float],
    station_kinds: Sequence[str] | None = None,
) -> MultiClassTrajectory:
    """Sweep a workload mix with varying-demand multi-class AMVA.

    Parameters
    ----------
    station_names:
        Stations in order (single-server or delay).
    class_demands:
        ``class -> station -> demand`` where demand is a constant or a
        callable of the *total* population (the ``SS_{k,c}^n`` curves).
    mix:
        Relative class weights (normalized internally); realized integer
        populations follow largest-remainder rounding per step.
    max_total_population:
        Sweep 1..N total users.
    think_times:
        Per-class ``Z_c``.
    """
    from ..engine.batched import _class_axes, _mix_sweep, _multiclass_demand_stack, mix_populations

    solver = "multiclass-mvasd"
    classes = tuple(class_demands)
    if not classes:
        raise ValueError("need at least one class")
    if set(mix) != set(classes) or set(think_times) != set(classes):
        raise ValueError("mix and think_times must cover exactly the classes")
    weights = np.array([float(mix[c]) for c in classes])
    if not np.isfinite(weights).all() or np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("mix weights must be finite, non-negative with positive sum")
    if max_total_population < 1:
        raise ValueError("max_total_population must be >= 1")
    names = tuple(station_names)
    k = len(names)
    for cls in classes:
        missing = set(names) - set(class_demands[cls])
        if missing:
            raise ValueError(f"class {cls!r} missing demands for {sorted(missing)}")
    _, _, is_queue, z, _ = _class_axes(
        classes, [float(think_times[c]) for c in classes], names, station_kinds, k, solver
    )

    # The per-class SS_{k,c}(n) curves at every total population.
    t = int(max_total_population)
    d = np.empty((t, k, len(classes)))
    for i in range(t):
        total = float(i + 1)
        for ci, cls in enumerate(classes):
            for ki, st in enumerate(names):
                spec = class_demands[cls][st]
                d[i, ki, ci] = float(spec(total)) if callable(spec) else float(spec)
                if d[i, ki, ci] < 0:
                    raise ValueError(f"negative demand for {cls}/{st} at N={total}")
    d, _ = _multiclass_demand_stack(d, d.shape, solver, None)

    steps, pops = mix_populations(weights, t)
    xs, rs, utils = _mix_sweep(d, pops, z, is_queue)
    return MultiClassTrajectory(
        class_names=classes,
        station_names=names,
        totals=steps,
        populations=pops,
        throughput=xs[0],
        response_time=rs[0],
        utilizations=utils[0],
        think_times=tuple(z),
    )
