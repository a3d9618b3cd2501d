"""Batched MVA-family kernels — one recursion, S scenarios.

Every sweep artifact in this repo (deviation tables, what-if grids, the
Fig. 6/7/16 validation loops, the ablation benches) solves the *same*
recursion over a grid of demand vectors, demand scalings or think
times.  Solving the grid one scenario at a time leaves almost all of the
work in Python-level loop overhead: at every population level the
scalar solvers touch K stations with K-element arrays, so the NumPy
call overhead dominates the arithmetic.

The kernels here instead advance **all S scenarios together** through
the population recursion: demands come in as a stack of shape
``(S, K)`` (constant-demand solvers) or ``(S, N, K)`` (MVASD demand
matrices, precomputed once via
:func:`repro.core.mvasd.precompute_demand_matrix`), and every update is
an array operation over the scenario axis.  The per-level Python cost
is then paid once per level instead of once per level *per scenario*,
which is where the order-of-magnitude speedups of
``benchmarks/bench_perf01_batch_speedup.py`` come from.

Each recursion exists once, here, as a private level function that
takes a start level and an initial state; the public kernel validates a
stack and calls it.  The scalar solvers are the same functions run at
``S = 1``: :func:`repro.core.mva.exact_mva` (:func:`_exact_mva_levels`),
:func:`repro.core.amva.schweitzer_amva` (:func:`_schweitzer_levels`),
:func:`repro.core.ld_mva.exact_load_dependent_mva` (:func:`_ld_mva_levels`),
:func:`repro.core.mvasd.mvasd` (:func:`_mvasd_levels`, on either demand
axis),
:func:`repro.core.multiclass.exact_multiclass_mva`
(:func:`_exact_multiclass_lattice`) and
:func:`repro.core.multiclass_amva.multiclass_mvasd` /
:func:`~repro.core.multiclass_amva.bard_schweitzer` (:func:`_mix_sweep`,
:func:`_bard_schweitzer`).  Every update is elementwise along the
scenario axis, so a scenario's row of a stack solve equals its scalar
solve bit for bit.

Scenarios must share the network *topology* (station kinds, server
counts) — that is what makes the recursion batchable — but may differ
in demands and think times.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import product
from typing import Any, Mapping, Sequence

import numpy as np

from . import native
from ..core.multiclass import MultiClassResult
from ..core.multiclass_amva import MultiClassTrajectory
from ..core.mvasd import DemandFn, precompute_demand_matrix
from ..core.network import ClosedNetwork
from ..core.results import MVAResult

__all__ = [
    "BatchedMVAResult",
    "BatchedMultiClassResult",
    "BatchedMultiClassTrajectory",
    "ScenarioFailure",
    "ScenarioStack",
    "batched_exact_mva",
    "batched_exact_multiclass",
    "batched_ld_mva",
    "batched_multiclass_mvasd",
    "batched_schweitzer_amva",
    "batched_mvasd",
    "demand_matrix_stack",
    "mix_populations",
]

# Fixed-point controls: Schweitzer (single class) and Bard-Schweitzer
# (multi-class) iterate until the largest queue change is within _TOL
# of max(1, largest queue).
_MAX_ITER = 10_000
_MC_MAX_ITER = 50_000
_TOL = 1e-10
# Damped fixed-point controls of throughput-axis MVASD: a level iterates
# until X moves by at most _FP_TOL * max(1, X).
_FP_MAX_ITER = 50
_FP_TOL = 1e-10
_FP_DAMPING = 0.5


def _mask_stack(mask, s: int, solver: str) -> np.ndarray | None:
    """Validate an optional ``(S,)`` boolean scenario-validity mask.

    ``True`` rows are solved; ``False`` rows are excluded from input
    validation and the recursion (their inputs are replaced by benign
    placeholders) and come back as all-NaN output rows.  ``None`` keeps
    the strict all-rows-must-be-valid behavior.
    """
    if mask is None:
        return None
    arr = np.asarray(mask, dtype=bool)
    if arr.shape != (s,):
        raise ValueError(f"{solver}: expected a ({s},) scenario mask, got shape {arr.shape}")
    return arr


def _nan_rows(mask: np.ndarray | None, *arrays: np.ndarray) -> None:
    """Overwrite the masked-out scenario rows of each array with NaN."""
    if mask is None or mask.all():
        return
    for arr in arrays:
        arr[~mask] = np.nan


@dataclass(frozen=True)
class ScenarioFailure:
    """One scenario a ``solve_stack(errors="isolate")`` run could not solve.

    Carried on :attr:`BatchedMVAResult.failures` instead of aborting the
    stack; the failed scenario's rows in the result arrays are NaN.

    Attributes
    ----------
    index:
        Position of the scenario in the solved stack.
    fingerprint:
        :meth:`Scenario.fingerprint` content hash, so the failure can be
        matched to its scenario across runs (``"<unavailable>"`` when
        the demand model is too broken to fingerprint).
    solver:
        Registry name of the method that rejected the scenario.
    error:
        ``"ExcType: message"`` of the final exception.
    retries:
        How many recovery attempts the execution layer made before
        isolating the scenario.
    """

    index: int
    fingerprint: str
    solver: str
    error: str
    retries: int = 0


#: Where each letter of a :attr:`ScenarioStack.LAYOUT` shape gets its size.
_DIM_SOURCES = {
    "S": "throughput",
    "N": "populations",
    "T": "totals",
    "K": "station_names",
    "C": "class_names",
}


class ScenarioStack:
    """The array layout the three stack containers share.

    Each container declares its array fields once, in :attr:`LAYOUT`:
    field name → shape letters.  A shape that starts with ``S`` (the
    scenario axis) marks a per-scenario field; every other array field
    is shared by all scenarios.  The other letters are sized by
    :data:`_DIM_SOURCES` — ``N`` by ``populations``, ``T`` by ``totals``,
    ``K``/``C`` by the station/class names.  ``demands_used`` is the one
    optional array.  Shape validation, :meth:`concat`,
    :meth:`from_scalars` and the :meth:`to_arrays`/:meth:`from_arrays`
    codec are all driven by that declaration, so the backends, the
    checkpoint journal and the wire codec never spell out fields.
    """

    #: Array field name → shape letters (``S`` first = per-scenario).
    LAYOUT: dict[str, str] = {}
    #: Journal ``container`` tag (the wire ``kind`` is derived from it).
    TAG = ""
    #: String-tuple fields carried in the meta dict.
    NAMES: tuple[str, ...] = ("station_names",)

    #: Container class by :attr:`TAG`.
    containers: dict[str, type["ScenarioStack"]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        ScenarioStack.containers[cls.TAG] = cls

    def __post_init__(self) -> None:
        for name, dims in self.LAYOUT.items():
            value = getattr(self, name)
            if value is None and name == "demands_used":
                continue
            shape = self._shape(dims, lambda field: getattr(self, field))
            if np.shape(value) != shape:
                raise ValueError(f"{name} must have shape {shape}")
        object.__setattr__(self, "failures", tuple(self.failures))
        s = self.n_scenarios
        for f in self.failures:
            if not 0 <= f.index < s:
                raise ValueError(
                    f"failure index {f.index} out of range for {s} scenarios"
                )

    @staticmethod
    def _shape(dims: str, lookup) -> tuple[int, ...]:
        """The shape ``dims`` spells, sizing letters through ``lookup(field)``."""
        return tuple(len(lookup(_DIM_SOURCES[d])) for d in dims)

    @classmethod
    def _per_scenario(cls) -> tuple[str, ...]:
        return tuple(name for name, dims in cls.LAYOUT.items() if dims.startswith("S"))

    @property
    def failed_indices(self) -> tuple[int, ...]:
        """Stack positions of the isolated scenarios, ascending."""
        return tuple(sorted(f.index for f in self.failures))

    @property
    def n_scenarios(self) -> int:
        return self.throughput.shape[0]

    def __len__(self) -> int:
        return self.n_scenarios

    @staticmethod
    def concat(parts: Sequence["ScenarioStack"], backend: str | None) -> "ScenarioStack":
        """Stack sub-stack results back together along the scenario axis.

        Per-scenario fields are concatenated (``demands_used`` only when
        every part carries it), shared fields and labels come from part 0,
        and each part's failure indices are shifted by its offset.
        """
        first = parts[0]
        fields = {name: getattr(first, name) for name in first.LAYOUT}
        for name in first._per_scenario():
            arrays = [getattr(p, name) for p in parts]
            fields[name] = (
                None if any(a is None for a in arrays) else np.concatenate(arrays)
            )
        failures, offset = [], 0
        for p in parts:
            failures.extend(replace(f, index=offset + f.index) for f in p.failures)
            offset += p.n_scenarios
        return type(first)(
            **fields,
            **{name: getattr(first, name) for name in first.NAMES},
            solver=first.solver,
            backend=backend,
            failures=tuple(failures),
        )

    @classmethod
    def from_scalars(
        cls,
        results: Mapping[int, Any],
        n_scenarios: int,
        failures: Sequence[ScenarioFailure] = (),
        **fields,
    ) -> "ScenarioStack":
        """Stack ``{index: scalar result}`` into one container of ``n_scenarios``.

        Keyword ``fields`` win.  Any other shared field or name is read
        off the first result; any other per-scenario field is one row per
        result, read under the same name, with NaN rows at the indices
        that have no result (the ``failures``).  ``demands_used`` is kept
        only when there is a result and every result carries one.  A
        single-class stack needs ``think_times`` given: its scalar results
        carry ``think_time``.
        """
        first = next(iter(results.values()), None)
        per_scenario = cls._per_scenario()
        for name in (*cls.LAYOUT, *cls.NAMES):
            if name not in fields and name not in per_scenario:
                fields[name] = getattr(first, name)
        for name in per_scenario:
            if name in fields:
                continue
            rows = {i: getattr(r, name, None) for i, r in results.items()}
            if name == "demands_used" and (
                not rows or any(row is None for row in rows.values())
            ):
                fields[name] = None
                continue
            shape = cls._shape(cls.LAYOUT[name][1:], fields.__getitem__)
            stack = np.full((n_scenarios, *shape), np.nan)
            for i, row in rows.items():
                stack[i] = row
            fields[name] = stack
        return cls(**fields, failures=tuple(failures))

    def to_arrays(self) -> tuple[dict[str, Any], dict[str, Any]]:
        """The container as ``(named arrays, meta)``; inverse of :meth:`from_arrays`.

        The arrays follow :attr:`LAYOUT` order (``demands_used`` may be
        ``None``); the meta dict holds the JSON-ready labels and the
        ``container`` tag.  Failures are left to the caller.
        """
        meta = {
            "solver": self.solver,
            "backend": self.backend,
            "station_names": list(self.station_names),
            "container": self.TAG,
        }
        if "class_names" in self.NAMES:
            meta["class_names"] = list(self.class_names)
        return {name: getattr(self, name) for name in self.LAYOUT}, meta

    @staticmethod
    def from_arrays(
        arrays: Mapping[str, Any],
        meta: Mapping[str, Any],
        failures: Sequence[ScenarioFailure] = (),
    ) -> "ScenarioStack":
        """Rebuild a container from :meth:`to_arrays` output.

        ``meta["container"]`` picks the class; it defaults to ``"mva"``,
        the single-class container, for records written before the tag.
        Per-scenario arrays come back as float, whatever dtype a peer sent.
        """
        tag = meta.get("container", "mva")
        cls = ScenarioStack.containers.get(tag)
        if cls is None:
            raise ValueError(f"unknown stack container {tag!r}")
        per_scenario = cls._per_scenario()
        fields = {}
        for name in cls.LAYOUT:
            value = arrays.get(name) if name == "demands_used" else arrays[name]
            if value is not None and name in per_scenario:
                value = np.asarray(value, dtype=float)
            fields[name] = value
        return cls(
            **fields,
            **{name: tuple(str(n) for n in meta[name]) for name in cls.NAMES},
            solver=str(meta["solver"]),
            backend=meta.get("backend"),
            failures=tuple(failures),
        )


def mix_populations(mix, max_total_population: int) -> tuple[np.ndarray, np.ndarray]:
    """Totals ``1..T`` and their integer class mixes ``(T, C)``.

    Each total is split over the classes in proportion to ``mix`` by
    largest-remainder rounding — the apportionment every multi-class mix
    sweep shares.
    """
    weights = np.asarray(mix, dtype=float)
    weights = weights / weights.sum()
    totals = np.arange(1, int(max_total_population) + 1)
    pops = np.zeros((len(totals), len(weights)), dtype=int)
    for i, total in enumerate(totals):
        raw = weights * total
        base = np.floor(raw).astype(int)
        remainder = int(total) - int(base.sum())
        order = np.argsort(-(raw - base))
        base[order[:remainder]] += 1
        pops[i] = base
    return totals, pops


@dataclass(frozen=True)
class BatchedMVAResult(ScenarioStack):
    """Trajectories of S scenarios solved in one batched recursion.

    The arrays carry a leading scenario axis on top of the scalar
    :class:`~repro.core.results.MVAResult` layout: ``throughput`` is
    ``(S, N)``, the per-station trajectories are ``(S, N, K)``.
    :meth:`scenario` slices one scenario back out as a plain
    :class:`MVAResult` for downstream code that expects the scalar
    container.
    """

    populations: np.ndarray
    throughput: np.ndarray
    response_time: np.ndarray
    queue_lengths: np.ndarray
    residence_times: np.ndarray
    utilizations: np.ndarray
    station_names: tuple[str, ...]
    think_times: np.ndarray
    solver: str
    demands_used: np.ndarray | None = None
    #: Execution backend that produced this result ("serial", "batched",
    #: "process-sharded", "resilient"), stamped by the solve_stack facade;
    #: ``None`` for results built by calling a kernel directly.
    backend: str | None = None
    #: Scenarios isolated by ``solve_stack(errors="isolate")`` — their
    #: rows in the trajectory arrays are NaN.  Empty for fault-free runs.
    failures: tuple[ScenarioFailure, ...] = ()

    TAG = "mva"
    LAYOUT = {
        "populations": "N",
        "throughput": "SN",
        "response_time": "SN",
        "queue_lengths": "SNK",
        "residence_times": "SNK",
        "utilizations": "SNK",
        "think_times": "S",
        "demands_used": "SNK",
    }

    @property
    def cycle_time(self) -> np.ndarray:
        """``R^n + Z`` per scenario, shape ``(S, N)``."""
        return self.response_time + self.think_times[:, None]

    def peak_throughput(self) -> np.ndarray:
        """Max throughput over the population sweep, per scenario ``(S,)``."""
        return self.throughput.max(axis=1)

    def scenario(self, index: int) -> MVAResult:
        """One scenario's trajectories as a scalar :class:`MVAResult`."""
        s = self.n_scenarios
        if not -s <= index < s:
            raise IndexError(f"scenario index {index} out of range for {s} scenarios")
        return MVAResult(
            populations=self.populations,
            throughput=self.throughput[index],
            response_time=self.response_time[index],
            queue_lengths=self.queue_lengths[index],
            residence_times=self.residence_times[index],
            utilizations=self.utilizations[index],
            station_names=self.station_names,
            think_time=float(self.think_times[index]),
            solver=self.solver,
            demands_used=(
                np.array(self.demands_used[index])
                if self.demands_used is not None
                else None
            ),
        )


def _demand_stack(
    network: ClosedNetwork, demands, solver: str = "batched", mask: np.ndarray | None = None
) -> np.ndarray:
    """Validate and shape a ``(S, K)`` stack of constant demand vectors."""
    arr = np.asarray(demands, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != len(network):
        raise ValueError(
            f"{solver}: expected a (S, {len(network)}) demand stack, "
            f"got shape {arr.shape}"
        )
    if mask is not None:
        # Masked-out rows may carry arbitrary garbage; neutralize them so
        # the validity checks and the recursion only see the live rows.
        arr = arr.copy()
        arr[~mask] = 1.0
    # isfinite before the sign check: NaN compares False against 0, so a
    # plain `arr < 0` guard would let NaN/Inf demands poison the recursion.
    if not np.isfinite(arr).all():
        raise ValueError(
            f"{solver}: demands must be finite, got non-finite values at "
            f"scenario indices {sorted(set(np.nonzero(~np.isfinite(arr))[0].tolist()))}"
        )
    if np.any(arr < 0):
        raise ValueError(f"{solver}: demands must be non-negative")
    return arr


def _think_stack(
    network: ClosedNetwork, think_times, s: int, mask: np.ndarray | None = None
) -> np.ndarray:
    """Per-scenario think times ``(S,)`` (default: the network's)."""
    if think_times is None:
        return np.full(s, network.think_time)
    z = np.asarray(think_times, dtype=float)
    if z.ndim == 0:
        z = np.full(s, float(z))
    if z.shape != (s,):
        raise ValueError(f"expected {s} think times, got shape {z.shape}")
    if mask is not None:
        # Masked rows keep their (reported) think time when it is usable —
        # the serial isolate path reports the real Z for failed scenarios
        # too — and only garbage values are neutralized.
        z = z.copy()
        with np.errstate(invalid="ignore"):
            dead = ~mask & (~np.isfinite(z) | (z < 0))
        z[dead] = 0.0
    if not np.isfinite(z).all():
        raise ValueError("think times must be finite")
    if np.any(z < 0):
        raise ValueError("think times must be non-negative")
    return z


def demand_matrix_stack(
    demand_functions: Sequence[Sequence[DemandFn]],
    max_population: int,
) -> np.ndarray:
    """Precompute the ``(S, N, K)`` demand-matrix stack for S scenarios.

    ``demand_functions`` holds one per-station callable sequence per
    scenario (all the same length K); each is evaluated once over the
    whole population grid via
    :func:`~repro.core.mvasd.precompute_demand_matrix`.
    """
    matrices = [
        precompute_demand_matrix(fns, max_population) for fns in demand_functions
    ]
    if not matrices:
        raise ValueError("need at least one scenario")
    return np.stack(matrices, axis=0)


def _level_arrays(s: int, n_levels: int, k: int) -> tuple[np.ndarray, ...]:
    """Empty ``(xs, rs, qs, rks, utils)``: ``(S, N)`` twice, then ``(S, N, K)`` thrice."""
    return (
        np.empty((s, n_levels)),
        np.empty((s, n_levels)),
        *(np.empty((s, n_levels, k)) for _ in range(3)),
    )


def _topology(network: ClosedNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Queueing-station flags and float server counts, per station."""
    return (
        np.array([st.kind == "queue" for st in network.stations]),
        network.servers().astype(float),
    )


def _record(levels, i: int, x, r_total, r_k, q=None) -> None:
    """Store level ``i``'s throughput, response time, residences and queues."""
    xs, rs, qs, rks, _ = levels
    xs[:, i] = x
    rs[:, i] = r_total
    rks[:, i] = r_k
    if q is not None:
        qs[:, i] = q


def _utilizations(levels, start: int, d, servers) -> None:
    """Fill the utilizations ``X D_k / C_k`` of levels ``start+1..N`` at once.

    The same elementwise product and quotient per level as inside the
    loop, so the same bits; one pass saves three array operations per
    level.
    """
    xs, _, _, _, utils = levels
    out = utils[:, start:]
    np.multiply(xs[:, start:, None], d[:, None, :], out=out)
    out /= servers


def _constant_inputs(network, max_population, demands, think_times, mask, solver):
    """Validated ``(d, z, mask)`` of a constant-demand stack: ``(S, K)``, ``(S,)``."""
    if max_population < 1:
        raise ValueError(f"max_population must be >= 1, got {max_population}")
    arr = np.asarray(demands, dtype=float)
    mask = _mask_stack(mask, arr.shape[0] if arr.ndim > 1 else 1, solver)
    d = _demand_stack(network, demands, solver=solver, mask=mask)
    return d, _think_stack(network, think_times, d.shape[0], mask=mask), mask


def _stack_result(network, levels, z, demands, solver, mask) -> BatchedMVAResult:
    """Wrap S scenarios' level arrays; ``demands`` is ``(S, K)`` or ``(S, N, K)``.

    Masked-out rows come back NaN, demands included.
    """
    s, n_levels = levels[0].shape
    if demands.ndim == 2:
        demands = np.broadcast_to(demands[:, None, :], (s, n_levels, demands.shape[1]))
        if mask is not None:
            demands = demands.copy()
    if mask is not None:
        _nan_rows(mask, *levels, demands)
    return BatchedMVAResult(
        np.arange(1, n_levels + 1),
        *levels,
        station_names=network.station_names,
        think_times=z,
        solver=solver,
        demands_used=demands,
    )


def batched_exact_mva(
    network: ClosedNetwork,
    max_population: int,
    demands,
    think_times=None,
    mask=None,
) -> BatchedMVAResult:
    """Exact single-server MVA (Algorithm 1) over a stack of scenarios.

    Parameters
    ----------
    network:
        Shared topology (station kinds; servers are ignored exactly as in
        the scalar :func:`~repro.core.mva.exact_mva`).
    max_population:
        Largest population ``N``; results cover ``n = 1..N``.
    demands:
        ``(S, K)`` array — one constant demand vector per scenario.  A
        single ``(K,)`` vector is treated as ``S = 1``.
    think_times:
        Optional per-scenario think times ``(S,)`` (default: the
        network's ``Z`` for every scenario).
    mask:
        Optional ``(S,)`` boolean validity mask: ``False`` rows are
        skipped by input validation and return all-NaN trajectories
        while the surviving rows keep the batched recursion (the
        ``errors="isolate"`` path).  All masked kernels share this
        contract; survivors see exactly the arithmetic of an unmasked
        run because every update is elementwise along the scenario axis.
    """
    solver = "batched-exact-mva"
    d, z, mask = _constant_inputs(network, max_population, demands, think_times, mask, solver)
    levels = _exact_mva_levels(network, d, z, max_population)
    return _stack_result(network, levels, z, d, solver, mask)


def _exact_mva_levels(network, d, z, n_levels, start=0, init_q=None):
    """Algorithm 1 over levels ``start+1..N`` of S scenarios.

    ``d`` is ``(S, K)`` and ``z`` ``(S,)``; the recursion starts from
    queue lengths ``init_q`` ``(S, K)`` (by default the empty network at
    ``start = 0``).  Returns ``(xs, rs, qs, rks, utils)``, set from row
    ``start`` on.  :func:`~repro.core.mva.exact_mva` is this at ``S = 1``.
    """
    s, k = d.shape
    is_queue, servers = _topology(network)
    levels = _level_arrays(s, n_levels, k)
    q = np.zeros((s, k)) if init_q is None else init_q
    for i in range(start, n_levels):
        r_k = np.where(is_queue, d * (1.0 + q), d)
        r_total = r_k.sum(axis=1)
        x = (i + 1) / (r_total + z)
        q = x[:, None] * r_k
        _record(levels, i, x, r_total, r_k, q)
    _utilizations(levels, start, d, servers)
    return levels


def batched_ld_mva(
    network: ClosedNetwork,
    max_population: int,
    inputs,
    think_times=None,
    mask=None,
) -> BatchedMVAResult:
    """Exact load-dependent MVA over a stack of scenarios.

    The hot kernel of hierarchical composition: every composed scenario
    (flow-equivalent stations carrying tabulated rate laws) resolves to
    one ``(K, N+1)`` row — column 0 is the constant demand vector,
    columns ``1..N`` the service-rate matrix ``mu_k(j)`` of
    :meth:`Scenario.ld_rate_matrix` — and the marginal-probability
    recursion of :func:`repro.core.ld_mva.exact_load_dependent_mva`
    advances all S scenarios together.  Per level the work is a handful
    of ``(S, K, n)`` array operations, elementwise along the scenario
    axis.

    Parameters
    ----------
    network:
        Shared topology (station kinds and server counts; the rate
        matrix already folds the multi-server law in).
    max_population:
        Largest population ``N``; results cover ``n = 1..N``.
    inputs:
        ``(S, K, N+1)`` packed stack; a single ``(K, N+1)`` row is
        treated as ``S = 1``.  Delay stations carry ``+inf`` rate rows.
    think_times:
        Optional per-scenario think times ``(S,)``.
    mask:
        Optional ``(S,)`` validity mask, the
        :func:`batched_exact_mva` isolate contract.
    """
    solver = "batched-ld-mva"
    if max_population < 1:
        raise ValueError(f"max_population must be >= 1, got {max_population}")
    arr = np.asarray(inputs, dtype=float)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    k, big_n = len(network), max_population
    if arr.ndim != 3 or arr.shape[1:] != (k, big_n + 1):
        raise ValueError(
            f"{solver}: expected a (S, {k}, {big_n + 1}) input stack "
            f"(demand column + rate table), got shape {arr.shape}"
        )
    s = arr.shape[0]
    mask = _mask_stack(mask, s, solver)
    d = _demand_stack(network, arr[:, :, 0], solver=solver, mask=mask)
    mu = arr[:, :, 1:]
    if mask is not None:
        mu = mu.copy()
        mu[~mask] = 1.0
    if np.any(np.isnan(mu)) or np.any(mu <= 0):
        bad = np.nonzero(np.any(np.isnan(mu) | (mu <= 0), axis=(1, 2)))[0]
        raise ValueError(
            f"{solver}: service rates must be positive at scenario "
            f"indices {sorted(bad.tolist())}"
        )
    z = _think_stack(network, think_times, s, mask=mask)
    levels, _ = _ld_mva_levels(network, d, mu, z, big_n)
    return _stack_result(network, levels, z, d, "batched-exact-load-dependent-mva", mask)


def _ld_mva_levels(network, d, mu, z, n_levels, start=0, init_p=None):
    """The load-dependent marginal recursion over levels ``start+1..N`` of S scenarios.

    ``d`` is ``(S, K)``, ``mu`` the ``(S, K, N)`` rate table (``+inf``
    rows for delay stations) and ``z`` ``(S,)``.  Starts from marginals
    ``p_k(0..start | start)`` ``init_p`` ``(S, K, start+1)`` (by default
    the empty network at ``start = 0``).  Returns ``(levels, p)``: the
    ``(xs, rs, qs, rks, utils)`` arrays set from row ``start`` on, and
    the final marginals ``p_k(0..N | N)`` ``(S, K, N+1)``.
    :func:`~repro.core.ld_mva.exact_load_dependent_mva` is this at
    ``S = 1``.
    """
    s, k = d.shape
    is_queue, servers = _topology(network)
    levels = _level_arrays(s, n_levels, k)
    # R_k(n) weight table j / mu_k(j); +inf rates (delay, idle stations)
    # contribute zero, so the np.where below restores the delay demand.
    weights = np.arange(1, n_levels + 1, dtype=float) / mu
    p = np.zeros((s, k, n_levels + 1))
    p[:, :, : start + 1] = 1.0 if init_p is None else init_p
    for i in range(start, n_levels):
        n = i + 1
        r_k = np.where(is_queue, (weights[:, :, :n] * p[:, :, :n]).sum(axis=2), d)
        r_total = r_k.sum(axis=1)
        x = n / (r_total + z)
        # p(j|n) = (X/mu(j)) p(j-1|n-1); build the tail fresh before
        # assigning — p still holds the n-1 values.
        tail = (x[:, None, None] / mu[:, :, :n]) * p[:, :, :n]
        p[:, :, 1 : n + 1] = tail
        p[:, :, 0] = np.maximum(0.0, 1.0 - tail.sum(axis=2))
        _record(levels, i, x, r_total, r_k)
    xs, _, qs, rks, _ = levels
    np.multiply(xs[:, start:, None], rks[:, start:], out=qs[:, start:])
    _utilizations(levels, start, d, servers)
    return levels, p


def batched_schweitzer_amva(
    network: ClosedNetwork,
    max_population: int,
    demands,
    think_times=None,
    mask=None,
) -> BatchedMVAResult:
    """Schweitzer approximate MVA over a stack of scenarios.

    Each population level is a fixed point per scenario; scenarios are
    iterated together and *frozen* individually as soon as their own
    convergence criterion fires, so every scenario sees exactly the
    iterates a one-scenario solve would produce.  ``mask`` follows the
    :func:`batched_exact_mva` isolate contract.
    """
    solver = "batched-schweitzer-amva"
    d, z, mask = _constant_inputs(network, max_population, demands, think_times, mask, solver)
    levels = _schweitzer_levels(network, d, z, max_population)
    return _stack_result(network, levels, z, d, solver, mask)


def _schweitzer_levels(network, d, z, n_levels, start=0, init_q=None):
    """Schweitzer's fixed point (eq. 9) at levels ``start+1..N`` of S scenarios.

    Level ``n`` is seeded with level ``n-1``'s queue lengths, ``init_q``
    ``(S, K)`` at ``start`` (by default ``1/K`` per station at
    ``start = 0``).  Returns ``(xs, rs, qs, rks, utils)``, set from row
    ``start`` on.  :func:`~repro.core.amva.schweitzer_amva` is this at
    ``S = 1``.
    """
    s, k = d.shape
    is_queue, servers = _topology(network)
    levels = _level_arrays(s, n_levels, k)
    q = np.full((s, k), 1.0 / k) if init_q is None else init_q.copy()
    for i in range(start, n_levels):
        n = i + 1
        alive = np.arange(s)
        for _ in range(_MAX_ITER):
            # While every row iterates, whole arrays stand in for the rows.
            full = alive.size == s
            qa, da, za = (q, d, z) if full else (q[alive], d[alive], z[alive])
            q_arr = (n - 1.0) / n * qa
            r = np.where(is_queue, da * (1.0 + q_arr), da)
            xa = n / (r.sum(axis=1) + za)
            q_new = xa[:, None] * r
            converged = (
                np.abs(q_new - qa).max(axis=1)
                <= _TOL * np.maximum(1.0, q_new.max(axis=1))
            )
            if full:
                x, r_k, q = xa, r, q_new
            else:
                x[alive] = xa
                r_k[alive] = r
                q[alive] = q_new
            alive = alive[~converged]
            if alive.size == 0:
                break
        _record(levels, i, x, r_k.sum(axis=1), r_k, q)
    _utilizations(levels, start, d, servers)
    return levels


class _BatchedMultiServerState:
    """The exact residence-time state of one multi-server station, S scenarios wide.

    Carries the full marginal vectors ``p(j | n)`` for ``j = 0..n`` of
    all S scenarios as a ``(S, N+1)`` array, from ``p(0..L | L)`` ``p0``
    ``(S, L+1)``, and evaluates eq. 10 through the equivalent
    load-dependent form (see :mod:`repro.core.multiserver`), elementwise
    along the scenario axis.  Demands may differ at every level, which
    is what MVASD needs.  ``_mvasd.c`` is its compiled twin.
    """

    __slots__ = ("servers", "_p", "_weights")

    def __init__(self, servers: int, max_population: int, p0: np.ndarray) -> None:
        self.servers = int(servers)
        # At least C columns, so p(0..C-1) can always be read off (zero above n).
        self._p = np.zeros((p0.shape[0], max(max_population + 1, self.servers)))
        self._p[:, : p0.shape[1]] = p0
        js = np.arange(1, max_population + 1, dtype=float)
        self._weights = js / np.minimum(js, self.servers)

    def residence(self, n: int, demand: np.ndarray) -> np.ndarray:
        """``R_k`` per scenario at population ``n``; ``demand`` is ``(S,)``."""
        return demand * (self._weights[:n] * self._p[:, :n]).sum(axis=1)

    def update(self, n: int, x: np.ndarray, demand: np.ndarray) -> None:
        """Advance all scenarios' marginals once ``X^n`` ``(S,)`` is known.

        The closing ``p(0) = 1 - sum(tail)`` is a cancellation whose
        rounding error the recursion amplifies once the station runs past
        ~75 % utilization (the classical MVA-LD instability); the clamp
        and the renormalization of the whole vector keep it bounded.
        """
        mu_scale = x * demand
        js = np.arange(1, n + 1, dtype=float)
        new_tail = (mu_scale[:, None] / np.minimum(js, self.servers)) * self._p[:, :n]
        self._p[:, 1 : n + 1] = new_tail
        self._p[:, 0] = np.maximum(0.0, 1.0 - new_tail.sum(axis=1))
        total = self._p[:, : n + 1].sum(axis=1)
        positive = total > 0
        self._p[positive, : n + 1] /= total[positive, None]


def batched_mvasd(
    network: ClosedNetwork,
    max_population: int,
    demand_matrices,
    single_server: bool = False,
    think_times=None,
    mask=None,
) -> BatchedMVAResult:
    """MVASD (Algorithm 3, population axis) over a stack of scenarios.

    Parameters
    ----------
    network:
        Shared topology; server counts drive the multi-server
        correction exactly as in :func:`~repro.core.mvasd.mvasd`.
    max_population:
        Largest population ``N``.
    demand_matrices:
        ``(S, N, K)`` stack of precomputed ``SS_k^n`` matrices — build
        with :func:`demand_matrix_stack` or by scaling one
        :func:`~repro.core.mvasd.precompute_demand_matrix` output.  A
        single ``(N, K)`` matrix is treated as ``S = 1``.
    single_server:
        The Fig. 8 normalized single-server baseline.
    think_times:
        Optional per-scenario think times ``(S,)``.

    Notes
    -----
    This is the population axis, whose demand matrix is known before the
    recursion.  ``solve_stack(method="mvasd", demand_axis="throughput")``
    runs the Section-7 fixed point over the stack instead
    (:func:`_batched_mvasd_throughput`).  Marginal-probability histories
    are not recorded in batched mode.

    The population recursion runs in the compiled kernel of
    :mod:`repro.engine.native` when it can be built, and in NumPy
    otherwise; both compute the same bits.  The same recursion, run at
    ``S = 1``, solves every population-axis
    :func:`~repro.core.mvasd.mvasd` and
    ``exact_multiserver_mva(method="recursion")``, so a scenario's row
    here equals that scalar solve bit for bit.
    """
    return _batched_mvasd(
        network, max_population, demand_matrices, single_server, think_times, mask,
        native.mvasd_kernel(),
    )


def _batched_mvasd_numpy(
    network: ClosedNetwork,
    max_population: int,
    demand_matrices,
    single_server: bool = False,
    think_times=None,
    mask=None,
) -> BatchedMVAResult:
    """:func:`batched_mvasd` through the NumPy recursion.

    The reference the native kernel is held bit-identical to, and the
    path taken on hosts where the kernel cannot be built.
    """
    return _batched_mvasd(
        network, max_population, demand_matrices, single_server, think_times, mask, None
    )


def _batched_mvasd(
    network, max_population, demand_matrices, single_server, think_times, mask, kernel
) -> BatchedMVAResult:
    if max_population < 1:
        raise ValueError(f"max_population must be >= 1, got {max_population}")
    matrices = np.asarray(demand_matrices, dtype=float)
    if matrices.ndim == 2:
        matrices = matrices[None, :, :]
    k = len(network)
    if matrices.ndim != 3 or matrices.shape[1:] != (max_population, k):
        raise ValueError(
            f"expected a (S, {max_population}, {k}) demand-matrix stack, "
            f"got shape {matrices.shape}"
        )
    mask = _mask_stack(mask, matrices.shape[0], "batched-mvasd")
    if mask is not None:
        matrices = matrices.copy()
        matrices[~mask] = 1.0
    if not np.isfinite(matrices).all():
        raise ValueError(
            "batched-mvasd: demand matrices must be finite, got non-finite "
            f"values at scenario indices "
            f"{sorted(set(np.nonzero(~np.isfinite(matrices))[0].tolist()))}"
        )
    if np.any(matrices < 0):
        raise ValueError("demand matrices must be non-negative")
    s = matrices.shape[0]
    z = _think_stack(network, think_times, s, mask=mask)

    *levels, _, _ = _mvasd_levels(kernel, network, matrices, z, single_server)
    solver = "batched-mvasd-single-server" if single_server else "batched-mvasd"
    return _stack_result(network, levels, z, matrices, solver, mask)


def _mvasd_levels(
    kernel, network, matrices, z, single_server, start=0, init_p=None, init_q=None,
    history=False, final=False, fns=None,
):
    """The MVASD recursion over levels ``start+1..N`` of S scenarios.

    Runs in the compiled ``kernel``, or in NumPy when it is ``None``: the
    same bits.  Starts from marginals ``init_p`` ``(S, K, start+1)`` and
    queue lengths ``init_q`` ``(S, K)`` (by default all ones and zeros:
    the empty network at ``start = 0``).  Returns ``(xs, rs, qs, rks,
    utils, history, final)``, trajectories set from row ``start`` on.
    Without ``single_server``, ``history`` asks for a map of each queueing
    station with ``C_k > 1`` to its ``p(0..C_k-1 | n)`` ``(S, N, C_k)``
    and ``final`` for one of each queueing station to its ``p(0..N | N)``
    ``(S, N+1)``; otherwise they come back as ``{}`` and ``None``.

    On the throughput axis ``fns`` holds one per-station curve sequence
    per scenario: each level's demands come from its fixed point
    (:func:`_throughput_fixed_point`) and are written into ``matrices``,
    and the recursion runs in NumPy.
    """
    s, n_levels, k = matrices.shape
    stations = network.stations
    init_p = np.ones((s, k, start + 1)) if init_p is None else init_p
    init_q = np.zeros((s, k)) if init_q is None else init_q
    # The kernel reads start+1 marginals per station from init_p.
    if not 0 <= start <= n_levels or (init_p.shape, init_q.shape) != ((s, k, start + 1), (s, k)):
        raise ValueError(
            f"mvasd: initial state of shapes {init_p.shape} and {init_q.shape} at level "
            f"{start}, expected {(s, k, start + 1)} and {(s, k)} at a level in 0..{n_levels}"
        )
    recorded = [st.kind == "queue" and st.servers > 1 for st in stations]
    keep = not single_server
    levels = _level_arrays(s, n_levels, k)
    c_max = max(network.servers()) if keep and history and any(recorded) else 0
    hist = np.empty((s, n_levels, k, c_max)) if c_max else None
    final_p = np.empty((s, k, n_levels + 1)) if keep and final else None
    args = (network, matrices, z, single_server, start, init_p, init_q)
    if kernel is None or fns is not None:
        _mvasd_levels_numpy(*args, levels, hist, final_p, fns)
    else:
        _mvasd_levels_native(kernel, *args, levels, hist, final_p)
    history = {
        st.name: hist[:, :, i, : st.servers].copy()
        for i, st in enumerate(stations)
        if hist is not None and recorded[i]
    }
    final_marginals = None if final_p is None else {
        st.name: final_p[:, i] for i, st in enumerate(stations) if st.kind == "queue"
    }
    return (*levels, history, final_marginals)


def _mvasd_levels_native(
    kernel, network, matrices, z, single_server, start, init_p, init_q, levels, hist, final_p
):
    """:func:`_mvasd_levels_numpy` through the compiled ``mvasd_recursion``.

    The C routine performs the same floating-point operations in the same
    order, scenario by scenario (see ``_mvasd.c``).  Its scenario loop is
    outermost and the rows are independent, so the S rows are cut into
    :func:`~repro.engine.native.kernel_threads` contiguous chunks, each
    one call on row views of the inputs and outputs with its own work
    arrays, run on parallel threads (cffi releases the GIL during the
    call): the same bits as one call over all rows.  The levels solved
    (``N - start``) measure the work.
    """
    s, n_levels, k = matrices.shape
    servers = network.servers().astype(float)
    is_queue = np.array([st.kind == "queue" for st in network.stations], dtype=np.int8)
    js = np.arange(1, n_levels + 1, dtype=float)
    # The per-job residence weights of _BatchedMultiServerState, per station.
    weights = js / np.minimum(js, servers[:, None])
    matrices, z, init_p, init_q = (
        np.ascontiguousarray(arr, dtype=float) for arr in (matrices, z, init_p, init_q)
    )
    c_max = 0 if hist is None else hist.shape[3]
    ffi = kernel.ffi

    def buf(arr):
        return ffi.from_buffer("double[]", arr)

    def work(arr):
        return ffi.NULL if arr is None else ffi.from_buffer("double[]", arr, require_writable=True)

    def rows(lo, hi):
        part = slice(lo, hi)
        kernel.lib.mvasd_recursion(
            hi - lo, n_levels, k, buf(matrices[part]), buf(z[part]), buf(servers),
            ffi.from_buffer("int8_t[]", is_queue), int(bool(single_server)), buf(weights),
            start, buf(init_p[part]), buf(init_q[part]),
            work(np.zeros((k, n_levels + 1))), work(np.empty(k)), work(np.empty(k)),
            *(work(arr[part]) for arr in levels),
            c_max, work(None if hist is None else hist[part]),
            work(None if final_p is None else final_p[part]),
        )

    # Single-server rows cost O(K) a level, so their output writes bound
    # the call and a split measured no faster; they keep one thread.
    threads = 1 if single_server else native.kernel_threads(s, n_levels - start)
    _run_row_chunks(rows, s, threads)


def _run_row_chunks(rows, s: int, threads: int) -> None:
    """Call ``rows(lo, hi)`` over ``threads`` contiguous chunks of ``0..s``.

    Chunk 0 runs on the calling thread, the others on a pool whose
    threads are joined before this returns, also when a chunk raises, so
    no thread outlives the call.  The first exception in chunk order is
    re-raised here.
    """
    if threads <= 1:
        rows(0, s)
        return
    bounds = [s * i // threads for i in range(threads + 1)]
    with ThreadPoolExecutor(threads - 1, thread_name_prefix="mvasd-rows") as pool:
        futures = [pool.submit(rows, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
        rows(bounds[0], bounds[1])
        for future in futures:
            future.result()


def _mvasd_levels_numpy(
    network, matrices, z, single_server, start, init_p, init_q, levels, hist, final_p,
    fns=None,
):
    """The MVASD recursion over all scenarios, level by level.

    Fills ``levels`` — throughput and response time ``(S, N)``, queue
    lengths, residence times and utilizations ``(S, N, K)`` — from row
    ``start`` on, and ``hist`` and ``final_p`` when they are not
    ``None``.  With ``fns`` (the throughput axis) the demands of each
    level are found by its fixed point and stored into ``matrices``.
    """
    s, n_levels, k = matrices.shape
    stations = network.stations
    servers = network.servers().astype(float)
    xs, rs, qs, rks, utils = levels

    states = (
        None
        if single_server
        else [
            _BatchedMultiServerState(st.servers, n_levels, init_p[:, idx])
            if st.kind == "queue"
            else None
            for idx, st in enumerate(stations)
        ]
    )

    q = init_q
    x = np.zeros(s)
    r_k = np.empty((s, k))
    for i in range(start, n_levels):
        n = i + 1
        d = matrices[:, i, :]
        if fns is not None:
            _throughput_seed(fns, x, z, d)
        for idx, st in enumerate(stations):
            col = d[:, idx]
            if st.kind == "delay":
                r_k[:, idx] = col
            elif single_server:
                r_k[:, idx] = (col / st.servers) * (1.0 + q[:, idx])
            else:
                r_k[:, idx] = states[idx].residence(n, col)
        if fns is not None:
            _throughput_fixed_point(n, fns, x, z, d, r_k)
        r_total = r_k.sum(axis=1)
        if fns is None:
            x = n / (r_total + z)
        q = x[:, None] * r_k
        if not single_server:
            for idx, st in enumerate(stations):
                if st.kind == "queue":
                    states[idx].update(n, x, d[:, idx])
                    if hist is not None and st.servers > 1:
                        hist[:, i, idx, : st.servers] = states[idx]._p[:, : st.servers]
        xs[:, i] = x
        rs[:, i] = r_total
        qs[:, i] = q
        rks[:, i] = r_k
        utils[:, i] = x[:, None] * d / servers
    if final_p is not None:
        for idx, st in enumerate(stations):
            if st.kind == "queue":
                final_p[:, idx] = states[idx]._p[:, : n_levels + 1]


def _batched_mvasd_throughput(
    network: ClosedNetwork,
    max_population: int,
    demand_functions: Sequence[Sequence[DemandFn]],
    single_server: bool = False,
    think_times=None,
    mask=None,
) -> BatchedMVAResult:
    """MVASD on the throughput axis (Section 7, Fig. 11) over a stack of scenarios.

    ``demand_functions`` holds one per-station curve sequence
    ``X -> seconds`` per scenario.  The curves of rows where ``mask`` is
    ``False`` are never called, and those rows come back NaN (the
    :func:`batched_exact_mva` isolate contract); any other row equals its
    scenario's scalar ``mvasd(demand_axis="throughput")`` bit for bit.
    """
    if max_population < 1:
        raise ValueError(f"max_population must be >= 1, got {max_population}")
    s, k = len(demand_functions), len(network)
    mask = _mask_stack(mask, s, "batched-mvasd")
    if mask is not None:
        # Masked-out rows may carry broken curves; solve placeholders instead.
        flat = [lambda _x: 1.0] * k
        demand_functions = [fns if ok else flat for fns, ok in zip(demand_functions, mask)]
    z = _think_stack(network, think_times, s, mask=mask)
    used = np.empty((s, max_population, k))
    *levels, _, _ = _mvasd_levels(None, network, used, z, single_server, fns=demand_functions)
    solver = "batched-mvasd-single-server" if single_server else "batched-mvasd"
    return _stack_result(network, levels, z, used, solver + "-throughput", mask)


def _demand_row(fns: Sequence[DemandFn], level: float) -> np.ndarray:
    """One scenario's demands ``(K,)`` at throughput ``level``, validated."""
    d = np.array([float(f(level)) for f in fns])
    if not np.isfinite(d).all():
        raise ValueError(f"mvasd: non-finite interpolated demand at level {level}: {d}")
    if np.any(d < 0):
        raise ValueError(f"negative interpolated demand at level {level}: {d}")
    return d


def _throughput_seed(fns, x, z, d) -> None:
    """Each row's demands ``d`` at the previous level's throughput ``x``.

    A row with no throughput yet (the first customer) starts from the
    zero-contention estimate ``1 / (sum_k D_k(0) + Z)``.
    """
    for row in range(len(fns)):
        if x[row] <= 0:
            total = _demand_row(fns[row], 0.0).sum() + z[row]
            x[row] = 1.0 / total if total > 0 else 1.0
        d[row] = _demand_row(fns[row], float(x[row]))


def _throughput_fixed_point(n, fns, x, z, d, r_k) -> None:
    """Level ``n``'s damped fixed point ``X -> demands(X) -> X``, row by row.

    ``r_k`` holds the residences at the seeded demands ``d``.  The
    residence form is linear in the demand vector, so the iteration
    only rescales ``r_k``; the marginal state advances once, after
    convergence.  Each row iterates on its own, in Python floats, so it
    sees exactly the iterates of its ``S = 1`` solve.  Updates ``x``,
    ``d`` and ``r_k`` in place.
    """
    base = np.divide(r_k, d, out=np.zeros(d.shape), where=d > 0)
    for row in range(len(fns)):
        xr, zr, dr, rr = float(x[row]), float(z[row]), d[row], r_k[row]
        r_total = float(rr.sum())
        for _ in range(_FP_MAX_ITER):
            x_new = n / (r_total + zr)
            if abs(x_new - xr) <= _FP_TOL * max(1.0, xr):
                xr = x_new
                break
            xr = _FP_DAMPING * xr + (1.0 - _FP_DAMPING) * x_new
            dr = _demand_row(fns[row], xr)
            rr = base[row] * dr
            r_total = float(rr.sum())
        else:
            xr = n / (r_total + zr)
        x[row], d[row], r_k[row] = xr, dr, rr


@dataclass(frozen=True)
class BatchedMultiClassResult(ScenarioStack):
    """Full-population multi-class solutions of S scenarios in one batch.

    The multi-class analogue of :class:`BatchedMVAResult`: the arrays
    carry a leading scenario axis on top of the scalar
    :class:`~repro.core.multiclass.MultiClassResult` layout —
    ``throughput`` is ``(S, C)``, ``queue_lengths_by_class`` is
    ``(S, K, C)``.  Scenarios share the population vector, class names
    and per-class think times (that is what makes the class-lattice
    recursion batchable) but differ in their demand matrices.
    """

    populations: tuple[int, ...]
    class_names: tuple[str, ...]
    throughput: np.ndarray
    response_time: np.ndarray
    queue_lengths: np.ndarray
    queue_lengths_by_class: np.ndarray
    utilizations: np.ndarray
    station_names: tuple[str, ...]
    think_times: np.ndarray
    solver: str
    demands_used: np.ndarray | None = None
    backend: str | None = None
    failures: tuple[ScenarioFailure, ...] = ()

    TAG = "multiclass"
    LAYOUT = {
        "populations": "C",
        "throughput": "SC",
        "response_time": "SC",
        "queue_lengths": "SK",
        "queue_lengths_by_class": "SKC",
        "utilizations": "SK",
        "think_times": "C",
        "demands_used": "SKC",
    }
    NAMES = ("station_names", "class_names")

    def __post_init__(self) -> None:
        object.__setattr__(self, "populations", tuple(int(n) for n in self.populations))
        super().__post_init__()

    @property
    def total_throughput(self) -> np.ndarray:
        """``sum_c X_c`` per scenario, shape ``(S,)``."""
        return self.throughput.sum(axis=1)

    def scenario(self, index: int) -> MultiClassResult:
        """One scenario's solution as a scalar :class:`MultiClassResult`."""
        s = self.n_scenarios
        if not -s <= index < s:
            raise IndexError(f"scenario index {index} out of range for {s} scenarios")
        return MultiClassResult(
            populations=self.populations,
            throughput=np.array(self.throughput[index]),
            response_time=np.array(self.response_time[index]),
            queue_lengths=np.array(self.queue_lengths[index]),
            queue_lengths_by_class=np.array(self.queue_lengths_by_class[index]),
            utilizations=np.array(self.utilizations[index]),
            station_names=self.station_names,
            think_times=tuple(float(z) for z in self.think_times),
        )


@dataclass(frozen=True)
class BatchedMultiClassTrajectory(ScenarioStack):
    """Mix-sweep trajectories of S multi-class scenarios in one batch.

    Batched analogue of
    :class:`~repro.core.multiclass_amva.MultiClassTrajectory`:
    ``throughput``/``response_time`` are ``(S, T, C)`` over the shared
    total-population sweep ``totals`` with the shared realized integer
    mixes ``populations`` ``(T, C)``; ``utilizations`` is ``(S, T, K)``.
    """

    class_names: tuple[str, ...]
    station_names: tuple[str, ...]
    totals: np.ndarray
    populations: np.ndarray
    throughput: np.ndarray
    response_time: np.ndarray
    utilizations: np.ndarray
    think_times: np.ndarray
    solver: str
    demands_used: np.ndarray | None = None
    backend: str | None = None
    failures: tuple[ScenarioFailure, ...] = ()

    TAG = "multiclass-trajectory"
    LAYOUT = {
        "totals": "T",
        "populations": "TC",
        "throughput": "STC",
        "response_time": "STC",
        "utilizations": "STK",
        "think_times": "C",
        "demands_used": "STKC",
    }
    NAMES = ("station_names", "class_names")

    @property
    def total_throughput(self) -> np.ndarray:
        """``sum_c X_c`` per scenario and step, shape ``(S, T)``."""
        return self.throughput.sum(axis=2)

    def scenario(self, index: int) -> MultiClassTrajectory:
        """One scenario's sweep as a scalar :class:`MultiClassTrajectory`."""
        s = self.n_scenarios
        if not -s <= index < s:
            raise IndexError(f"scenario index {index} out of range for {s} scenarios")
        return MultiClassTrajectory(
            class_names=self.class_names,
            station_names=self.station_names,
            totals=self.totals,
            populations=self.populations,
            throughput=np.array(self.throughput[index]),
            response_time=np.array(self.response_time[index]),
            utilizations=np.array(self.utilizations[index]),
            think_times=tuple(float(z) for z in self.think_times),
        )


def _class_axes(
    class_names, think_times, station_names, station_kinds, k: int, solver: str
):
    """Validate the shared class/station structure of a multi-class batch."""
    names = (
        tuple(station_names)
        if station_names
        else tuple(f"station-{i}" for i in range(k))
    )
    if len(names) != k:
        raise ValueError(f"{solver}: expected {k} station names")
    kinds = tuple(station_kinds) if station_kinds else ("queue",) * k
    if len(kinds) != k or any(kd not in ("queue", "delay") for kd in kinds):
        raise ValueError(f"{solver}: station_kinds must be 'queue'/'delay' per station")
    z = np.asarray(think_times, dtype=float)
    c = z.shape[0] if z.ndim == 1 else 0
    if z.ndim != 1 or c == 0 or not np.isfinite(z).all() or np.any(z < 0):
        raise ValueError(f"{solver}: think_times must be finite non-negative per class")
    cls = (
        tuple(class_names)
        if class_names
        else tuple(f"class-{i}" for i in range(c))
    )
    if len(cls) != c:
        raise ValueError(f"{solver}: expected {c} class names")
    is_queue = np.array([kd == "queue" for kd in kinds])
    return names, kinds, is_queue, z, cls


def _multiclass_demand_stack(
    demands, trailing: tuple[int, ...], solver: str, mask
) -> tuple[np.ndarray, np.ndarray | None]:
    """Validate a per-scenario multi-class demand stack ``(S, *trailing)``."""
    arr = np.asarray(demands, dtype=float)
    if arr.ndim == len(trailing):
        arr = arr[None]
    if arr.ndim != len(trailing) + 1 or arr.shape[1:] != trailing:
        raise ValueError(
            f"{solver}: expected a (S, {', '.join(map(str, trailing))}) "
            f"demand stack, got shape {arr.shape}"
        )
    mask = _mask_stack(mask, arr.shape[0], solver)
    if mask is not None:
        arr = arr.copy()
        arr[~mask] = 1.0
    if not np.isfinite(arr).all():
        raise ValueError(
            f"{solver}: demands must be finite, got non-finite values at "
            f"scenario indices {sorted(set(np.nonzero(~np.isfinite(arr))[0].tolist()))}"
        )
    if np.any(arr < 0):
        raise ValueError(f"{solver}: demands must be non-negative")
    return arr, mask


def batched_exact_multiclass(
    demands,
    populations,
    think_times,
    station_names=None,
    station_kinds=None,
    class_names=None,
    mask=None,
) -> BatchedMultiClassResult:
    """Exact multi-class MVA over a stack of scenarios.

    Vectorizes the class-lattice recursion of
    :func:`~repro.core.multiclass.exact_multiclass_mva` over the
    scenario axis: the ``Q_k(n)`` lattice table gains a leading
    scenario dimension and every update is an array operation across
    all S scenarios, so the ``O(K * prod_c (N_c + 1))`` Python-level
    lattice walk is paid once for the whole stack instead of once per
    scenario.  The scalar solver is this walk at ``S = 1``, so each row
    equals its scalar result bit for bit.

    Parameters
    ----------
    demands:
        ``(S, K, C)`` stack — one ``(K, C)`` class-demand matrix per
        scenario.  A single ``(K, C)`` matrix is treated as ``S = 1``.
    populations / think_times:
        Shared class populations ``(N_1, ..., N_C)`` and per-class
        think times.
    station_names / station_kinds / class_names:
        Optional shared labels and ``"queue"``/``"delay"`` flags.
    mask:
        Optional ``(S,)`` validity mask (the ``errors="isolate"``
        path); see :func:`batched_exact_mva`.

    Notes
    -----
    The lattice table costs ``S`` times the scalar solver's memory —
    ``prod_c (N_c + 1) * S * K`` floats — so keep class populations
    modest (the facade's ``EXACT_MULTICLASS_LATTICE_LIMIT`` guards
    this).
    """
    solver = "batched-exact-multiclass"
    arr = np.asarray(demands, dtype=float)
    if arr.ndim not in (2, 3):
        raise ValueError(f"{solver}: demands must be (S, K, C), got shape {arr.shape}")
    d, mask = _multiclass_demand_stack(arr, arr.shape[-2:], solver, mask)
    pops, names, is_queue, z, cls = _lattice_inputs(
        d, populations, think_times, station_names, station_kinds, class_names, solver
    )
    arrays = _exact_multiclass_lattice(d, pops, z, is_queue)
    if mask is not None:
        _nan_rows(mask, *arrays, d)
    return BatchedMultiClassResult(
        pops, cls, *arrays, names, think_times=z, solver=solver, demands_used=d
    )


def _lattice_inputs(d, populations, think_times, station_names, station_kinds, class_names, solver):
    """Validate the shared axes of an exact multi-class solve of ``(S, K, C)`` demands.

    Returns ``(populations, station names, is_queue, think times, class names)``.
    """
    k, c = d.shape[1:]
    pops = tuple(int(p) for p in populations)
    if len(pops) != c or any(p < 0 for p in pops):
        raise ValueError(
            f"{solver}: populations must be {c} non-negative integers, got {populations}"
        )
    names, _kinds, is_queue, z, cls = _class_axes(
        class_names, think_times, station_names, station_kinds, k, solver
    )
    if z.shape != (c,):
        raise ValueError(f"{solver}: think_times must be {c} values")
    return pops, names, is_queue, z, cls


def _exact_multiclass_lattice(d, pops, z, is_queue):
    """The exact class-lattice recursion of S scenarios, ``d`` ``(S, K, C)``.

    Returns the full-population throughput and response time ``(S, C)``,
    queue lengths ``(S, K)``, per-class queue lengths ``(S, K, C)`` and
    utilizations ``(S, K)``: the :class:`BatchedMultiClassResult` field
    order.  :func:`~repro.core.multiclass.exact_multiclass_mva` is this
    at ``S = 1``.
    """
    s, k, c = d.shape
    # Station queue lengths Q_k(n) over the lattice, for all S scenarios.
    q_table = np.zeros(tuple(p + 1 for p in pops) + (s, k))
    last_x = np.zeros((s, c))
    last_r = np.zeros((s, c))
    last_qkc = np.zeros((s, k, c))
    d_cls = [np.ascontiguousarray(d[:, :, ci]) for ci in range(c)]

    for n in product(*(range(p + 1) for p in pops)):
        if sum(n) == 0:
            continue
        r_kc = np.zeros((s, k, c))
        x_c = np.zeros((s, c))
        for ci in range(c):
            if n[ci] == 0:
                continue
            prev = list(n)
            prev[ci] -= 1
            q_prev = q_table[tuple(prev)]
            r = np.where(is_queue, d_cls[ci] * (1.0 + q_prev), d_cls[ci])
            r_kc[:, :, ci] = r
            x_c[:, ci] = n[ci] / (z[ci] + r.sum(axis=1))
        q_kc = r_kc * x_c[:, None, :]
        q_table[n] = q_kc.sum(axis=2)
        if n == pops:
            last_x = x_c
            last_r = r_kc.sum(axis=1)
            last_qkc = q_kc

    util = (d * last_x[:, None, :]).sum(axis=2)
    return last_x, last_r, last_qkc.sum(axis=2), last_qkc, util


def batched_multiclass_mvasd(
    station_names,
    class_names,
    demand_tensors,
    mix,
    max_total_population,
    think_times,
    station_kinds=None,
    mask=None,
) -> BatchedMultiClassTrajectory:
    """Multi-class MVASD mix sweep over a stack of scenarios.

    Vectorizes :func:`~repro.core.multiclass_amva.multiclass_mvasd`
    over the scenario axis: at every total population the shared
    largest-remainder mix apportionment is computed once, and the
    Bard-Schweitzer fixed point iterates all S scenarios together —
    each scenario is *frozen* individually the moment its own
    convergence criterion fires.  The scalar solver is this sweep at
    ``S = 1``, so every row reproduces its iterates exactly.

    Parameters
    ----------
    station_names / class_names:
        Shared labels (stations in order; classes in order).
    demand_tensors:
        ``(S, T, K, C)`` stack of per-total class-demand matrices for
        totals ``1..T`` — the multi-class analogue of the precomputed
        MVASD demand matrix, evaluated from the per-class ``SS_{k,c}(n)``
        curves.  A single ``(T, K, C)`` tensor is treated as ``S = 1``.
    mix:
        Shared relative class weights (normalized internally; realized
        integer populations follow largest-remainder rounding, exactly
        as in the scalar sweep).
    max_total_population:
        Sweep 1..N total users (``T = N``).
    think_times:
        Per-class think times, shared across scenarios.
    station_kinds:
        Optional ``"queue"``/``"delay"`` per station.
    mask:
        Optional ``(S,)`` validity mask (the ``errors="isolate"``
        path); see :func:`batched_exact_mva`.
    """
    solver = "batched-multiclass-mvasd"
    names = tuple(station_names)
    k = len(names)
    cls = tuple(class_names)
    c = len(cls)
    if not c:
        raise ValueError(f"{solver}: need at least one class")
    t = int(max_total_population)
    if t < 1:
        raise ValueError(f"{solver}: max_total_population must be >= 1")
    d, mask = _multiclass_demand_stack(demand_tensors, (t, k, c), solver, mask)
    weights = np.asarray(mix, dtype=float)
    if (
        weights.shape != (c,)
        or not np.isfinite(weights).all()
        or np.any(weights < 0)
        or weights.sum() <= 0
    ):
        raise ValueError(
            f"{solver}: mix weights must be finite, non-negative with positive sum"
        )
    _names, _kinds, is_queue, z, cls = _class_axes(
        cls, think_times, names, station_kinds, k, solver
    )
    if z.shape != (c,):
        raise ValueError(f"{solver}: think_times must be {c} values")

    # Shared largest-remainder apportionment of the mix at every total.
    steps, pops = mix_populations(weights, t)
    xs, rs, utils = _mix_sweep(d, pops, z, is_queue)

    if mask is not None:
        _nan_rows(mask, xs, rs, utils, d)
    return BatchedMultiClassTrajectory(
        class_names=cls,
        station_names=names,
        totals=steps,
        populations=pops,
        throughput=xs,
        response_time=rs,
        utilizations=utils,
        think_times=z,
        solver=solver,
        demands_used=d,
    )


def _mix_sweep(d, pops, z, is_queue):
    """The Bard-Schweitzer fixed point at every step of a mix sweep of S scenarios.

    ``d`` is the ``(S, T, K, C)`` demand tensor and ``pops`` the ``(T, C)``
    integer mixes.  Returns throughput and response time ``(S, T, C)``
    and utilizations ``(S, T, K)``.
    :func:`~repro.core.multiclass_amva.multiclass_mvasd` is this at
    ``S = 1``.
    """
    s, t, k, c = d.shape
    xs = np.zeros((s, t, c))
    rs = np.zeros((s, t, c))
    utils = np.zeros((s, t, k))
    for i in range(t):
        d_step = d[:, i]
        x, r_c, _ = _bard_schweitzer(d_step, pops[i].astype(float), z, is_queue)
        xs[:, i] = x
        rs[:, i] = r_c
        utils[:, i] = (d_step * x[:, None, :]).sum(axis=2)
    return xs, rs, utils


def _bard_schweitzer(d, n_c, z, is_queue):
    """Bard-Schweitzer fixed point of S scenarios at one population vector.

    ``d`` is ``(S, K, C)`` and ``n_c`` ``(C,)``.  Scenarios iterate
    together and each is *frozen* the moment its own convergence
    criterion fires.  Returns ``(X_c, R_c, Q_kc)``: ``(S, C)``, ``(S, C)``
    and ``(S, K, C)``.  :func:`~repro.core.multiclass_amva.bard_schweitzer`
    is this at ``S = 1``.
    """
    s, k, c = d.shape
    active_cls = n_c > 0
    idle_cls = ~active_cls
    n_div = np.where(active_cls, n_c, 1.0)  # idle classes get R = 0 below
    queue_col = is_queue[:, None]
    q = np.zeros((s, k, c))
    if active_cls.any():
        q[:, :, active_cls] = n_c[active_cls] / k  # even initial spread
    alive = np.arange(s)
    for _ in range(_MC_MAX_ITER):
        # While every row iterates, whole arrays stand in for the rows.
        full = alive.size == s
        qa, da = (q, d) if full else (q[alive], d[alive])
        a = alive.size
        # arrival-theorem queue with one customer of each class removed
        q_arr = np.maximum(qa.sum(axis=2)[:, :, None] - qa / n_div, 0.0)
        r = np.where(queue_col, da * (1.0 + q_arr), da)
        r[:, :, idle_cls] = 0.0
        r_c = r.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            xa = np.where(active_cls, n_c / (z + r_c), 0.0)
        q_new = r * xa[:, None, :]
        converged = (
            np.abs(q_new - qa).reshape(a, -1).max(axis=1)
            <= _TOL * np.maximum(1.0, q_new.reshape(a, -1).max(axis=1))
        )
        if full:
            x, r_c_out, q = xa, r_c, q_new
        else:
            x[alive] = xa
            r_c_out[alive] = r_c
            q[alive] = q_new
        alive = alive[~converged]
        if alive.size == 0:
            break
    return x, r_c_out, q
