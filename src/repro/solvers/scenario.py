"""The canonical solver input: a frozen, pre-validated :class:`Scenario`.

Every solver in the registry consumes the same description of the
problem — network topology, target population, demand model and think
time — instead of each entry point inventing its own keyword soup.  A
scenario is validated **once**, on construction; adapters then read the
representation they need (:meth:`Scenario.fixed_demands` for
constant-demand solvers, :meth:`Scenario.demand_fns` /
:meth:`Scenario.resolved_demand_matrix` for the varying-demand family).

Demands can be supplied four ways, at most one of which may be given
explicitly (otherwise the network's own station demands apply):

* ``demands`` — a fixed per-station vector (the paper's ``MVA i``
  construction when the network itself varies);
* ``demand_functions`` — per-station curves ``n -> seconds`` (fitted
  :class:`~repro.interpolate.demand_model.ServiceDemandModel` splines,
  profile callables, plain lambdas);
* ``demand_matrix`` — a precomputed ``(N, K)`` array of ``SS_k^n``
  samples, the representation the batched kernels consume directly;
* ``classes`` — a multi-class workload mix (:class:`WorkloadClass`),
  which replaces the single-class demand description entirely.

Orthogonally to the demand source, ``rate_tables`` attaches tabulated
load-dependent service-rate laws ``station name -> [mu(1), ..., mu(N)]``
to individual queueing stations — the canonical representation of a
flow-equivalent service center (:mod:`repro.solvers.fes`).  Stations
with a rate table are served by the exact load-dependent MVA recursion;
the tables are part of the fingerprint, so composed scenarios ride the
result cache, the persistent tier and the trajectory store like any
other scenario.

Scenarios are **content-addressed**: :meth:`Scenario.fingerprint` hashes
the canonical serialization of everything a solver can observe —
topology, server counts, the resolved demand matrix (with float
canonicalization so ``-0.0`` and ``NaN`` bit patterns cannot split
equal scenarios), population, think time and class mix — and is the
identity the :mod:`repro.solvers.cache` result cache keys on.  To keep
fingerprints valid for the lifetime of a scenario, construction takes
defensive copies of every mutable input (demand-function mappings,
demand matrices) and the demand views hand out read-only arrays.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.network import ClosedNetwork
from .validation import (
    SolverInputError,
    resolve_demand_functions,
    resolve_demands,
    validate_population,
)

__all__ = ["Scenario", "WorkloadClass"]

DemandFn = Callable[[float], float]

#: Bumped whenever the canonical serialization changes, so fingerprints
#: from different layouts can never collide.
_FINGERPRINT_VERSION = b"repro-scenario-v1"


def _canonical_float_array(values) -> np.ndarray:
    """Float64 array with one bit pattern per numeric value.

    Adding ``0.0`` collapses ``-0.0`` onto ``+0.0``; every NaN payload is
    replaced by the canonical quiet NaN.  The returned buffer is what
    fingerprints hash, so two arrays that compare equal elementwise (NaN
    aside) always serialize to the same bytes.
    """
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64)) + 0.0
    if np.isnan(arr).any():
        arr = np.where(np.isnan(arr), np.float64("nan"), arr)
    return arr


def _hash_floats(h, values) -> None:
    h.update(_canonical_float_array(values).tobytes())


#: The canonical quiet NaN's bytes, as :func:`_canonical_float_array` writes it.
_CANONICAL_NAN = np.float64("nan").tobytes()


def _float_bytes(*values) -> bytes:
    """The bytes :func:`_hash_floats` hashes for these scalars, without NumPy.

    Native-order float64, ``-0.0`` folded onto ``+0.0`` and every NaN
    onto the canonical one, so a header built from these hashes exactly
    like one ``_hash_floats`` call per scalar.
    """
    return b"".join(
        _CANONICAL_NAN if v != v else struct.pack("=d", v + 0.0) for v in map(float, values)
    )


def _readonly(arr: np.ndarray) -> np.ndarray:
    """Mark ``arr`` read-only (views of read-only bases already are)."""
    if arr.flags.writeable:
        arr.setflags(write=False)
    return arr


class _ScaledDemand:
    """Picklable wrapper scaling a demand curve by a constant factor.

    ``with_overrides(demand_scale=...)`` on multi-class scenarios wraps
    callable per-class demands with this instead of a lambda so derived
    scenarios survive the fork/pickle boundary of the sharded backends.
    """

    __slots__ = ("fn", "scale")

    def __init__(self, fn: DemandFn, scale: float) -> None:
        self.fn = fn
        self.scale = float(scale)

    def __call__(self, level: float) -> float:
        return float(self.fn(level)) * self.scale


def _scale_class_demand(demand: float | DemandFn, scale: float) -> float | DemandFn:
    if callable(demand):
        return _ScaledDemand(demand, scale)
    return float(demand) * scale


@dataclass(frozen=True)
class WorkloadClass:
    """One customer class of a multi-class scenario.

    Attributes
    ----------
    name:
        Class label, e.g. ``"registration"``.
    population:
        Number of customers of this class (for mix-sweep solvers the
        populations act as relative mix weights).
    demands:
        ``station name -> demand`` where each demand is a constant or a
        callable of the *total* population (``SS_{k,c}^n``).
    think_time:
        Per-class think time ``Z_c``.
    """

    name: str
    population: int
    demands: Mapping[str, float | DemandFn] = field(default_factory=dict)
    think_time: float = 0.0

    def __post_init__(self) -> None:
        # Defensive copy: the caller keeping (and mutating) the original
        # mapping must not change this class after construction.
        object.__setattr__(self, "demands", dict(self.demands))
        if self.population < 0:
            raise SolverInputError(
                f"class {self.name!r}: population must be non-negative, "
                f"got {self.population}"
            )
        if not np.isfinite(self.think_time) or self.think_time < 0:
            raise SolverInputError(
                f"class {self.name!r}: think_time must be finite and "
                f"non-negative, got {self.think_time}"
            )
        for station, demand in self.demands.items():
            if not callable(demand) and float(demand) < 0:
                raise SolverInputError(
                    f"class {self.name!r}: demand for {station!r} must be "
                    f"non-negative, got {demand}"
                )

    @property
    def has_varying_demands(self) -> bool:
        return any(callable(d) for d in self.demands.values())

    def demand_vector(self, station_names: Sequence[str], level: float) -> np.ndarray:
        """Per-station demands of this class evaluated at ``level``."""
        out = np.empty(len(station_names))
        for i, name in enumerate(station_names):
            try:
                spec = self.demands[name]
            except KeyError:
                raise SolverInputError(
                    f"class {self.name!r}: missing demands for station {name!r}"
                ) from None
            out[i] = float(spec(level)) if callable(spec) else float(spec)
        if np.any(out < 0):
            raise SolverInputError(
                f"class {self.name!r}: negative demand at level {level:g}"
            )
        return out

    def fingerprint(self, station_names: Sequence[str], max_population: int) -> str:
        """Content hash of this class within a scenario's station order.

        Constant demands hash as one vector; varying demands are sampled
        over every total-population level ``1..max_population`` — exactly
        the values a mix-sweep solver can observe.
        """
        h = hashlib.sha256(
            b"".join((
                _FINGERPRINT_VERSION,
                b"workload-class\x00",
                self.name.encode("utf-8"),
                struct.pack("<q", int(self.population)),
                _float_bytes(self.think_time),
            ))
        )
        if self.has_varying_demands:
            levels = np.stack(
                [
                    self.demand_vector(station_names, float(level))
                    for level in range(1, int(max_population) + 1)
                ]
            )
        else:
            levels = self.demand_vector(station_names, 1.0)
        _hash_floats(h, levels)
        return h.hexdigest()


@dataclass(frozen=True)
class Scenario:
    """A fully specified solve request.

    Attributes
    ----------
    network:
        Closed-network topology (stations, server counts, think time).
    max_population:
        Largest population ``N``; trajectory solvers cover ``n = 1..N``.
    demands:
        Optional fixed per-station demand vector.
    demand_functions:
        Optional per-station demand curves (mapping by station name or
        sequence in station order).
    demand_matrix:
        Optional precomputed ``(N, K)`` demand samples ``SS_k^n``.
    demand_level:
        Level at which varying demands are frozen when a constant-demand
        solver runs this scenario.
    think_time:
        Optional override of the network's think time ``Z``.
    classes:
        Optional multi-class structure; when given, the single-class
        demand fields must be absent.
    rate_tables:
        Optional tabulated service-rate laws ``station name ->
        [mu(1), ..., mu(N)]`` for individual queueing stations (the
        flow-equivalent representation).  Orthogonal to the demand
        source, but only combines with *constant* demands — varying
        demands and multi-class mixes are rejected.
    """

    network: ClosedNetwork
    max_population: int
    demands: tuple[float, ...] | None = None
    demand_functions: Mapping[str, DemandFn] | Sequence[DemandFn] | None = None
    demand_matrix: np.ndarray | None = None
    demand_level: float = 1.0
    think_time: float | None = None
    classes: tuple[WorkloadClass, ...] | None = None
    rate_tables: Mapping[str, Sequence[float]] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "max_population", validate_population(self.max_population, solver="scenario")
        )
        sources = [
            name
            for name, value in (
                ("demands", self.demands),
                ("demand_functions", self.demand_functions),
                ("demand_matrix", self.demand_matrix),
                ("classes", self.classes),
            )
            if value is not None
        ]
        if len(sources) > 1:
            raise SolverInputError(
                f"scenario: give at most one demand source, got {sources}"
            )
        if self.demands is not None:
            arr = resolve_demands(self.network, self.demands, solver="scenario")
            object.__setattr__(self, "demands", tuple(float(v) for v in arr))
        if self.demand_functions is not None:
            # Validate coverage/length now; adapters re-resolve per solver.
            resolve_demand_functions(self.network, self.demand_functions, solver="scenario")
            # Defensive copy: later mutation of the caller's mapping or
            # sequence must not alias into this (fingerprinted) scenario.
            if isinstance(self.demand_functions, Mapping):
                object.__setattr__(self, "demand_functions", dict(self.demand_functions))
            else:
                object.__setattr__(self, "demand_functions", tuple(self.demand_functions))
        if self.demand_matrix is not None:
            matrix = np.asarray(self.demand_matrix, dtype=float)
            expected = (self.max_population, len(self.network))
            if matrix.shape != expected:
                raise SolverInputError(
                    f"scenario: demand_matrix must have shape {expected}, "
                    f"got {matrix.shape}"
                )
            if np.any(matrix < 0):
                raise SolverInputError("scenario: demand_matrix must be non-negative")
            matrix = matrix.copy()
            matrix.setflags(write=False)
            object.__setattr__(self, "demand_matrix", matrix)
        if self.think_time is not None and (
            not np.isfinite(self.think_time) or self.think_time < 0
        ):
            raise SolverInputError(
                f"scenario: think_time must be finite and non-negative, "
                f"got {self.think_time}"
            )
        if self.classes is not None:
            classes = tuple(self.classes)
            if not classes:
                raise SolverInputError("scenario: classes must be non-empty when given")
            names = [c.name for c in classes]
            if len(set(names)) != len(names):
                raise SolverInputError(f"scenario: duplicate class names in {names}")
            if sum(c.population for c in classes) < 1:
                raise SolverInputError("scenario: total class population must be >= 1")
            object.__setattr__(self, "classes", classes)
        if self.rate_tables is not None:
            object.__setattr__(self, "rate_tables", self._validated_rate_tables())

    def _validated_rate_tables(self) -> Mapping[str, tuple[float, ...]] | None:
        """Canonicalize ``rate_tables`` into an immutable, validated form."""
        if self.is_multiclass:
            raise SolverInputError(
                "scenario: rate_tables do not combine with multi-class workloads"
            )
        if self.has_varying_demands:
            raise SolverInputError(
                "scenario: rate_tables require constant demands — freeze varying "
                "demands (fixed_demands) before attaching flow-equivalent stations"
            )
        tables: dict[str, tuple[float, ...]] = {}
        kinds = {st.name: st.kind for st in self.network.stations}
        for name, values in self.rate_tables.items():
            kind = kinds.get(name)
            if kind is None:
                raise SolverInputError(
                    f"scenario: rate table names unknown station {name!r}"
                )
            if kind != "queue":
                raise SolverInputError(
                    f"scenario: rate table for {name!r} targets a {kind} station; "
                    f"only queueing stations are load-dependent"
                )
            arr = np.asarray(values, dtype=float)
            if arr.ndim != 1 or arr.shape[0] != self.max_population:
                raise SolverInputError(
                    f"scenario: rate table for {name!r} must cover populations "
                    f"1..{self.max_population}, got shape {arr.shape}"
                )
            if np.any(np.isnan(arr)) or np.any(arr <= 0):
                raise SolverInputError(
                    f"scenario: rate table for {name!r} must be positive"
                )
            tables[name] = tuple(float(v) for v in arr)
        return tables or None

    # -- structure ----------------------------------------------------------

    @property
    def station_names(self) -> tuple[str, ...]:
        return self.network.station_names

    @property
    def is_multiclass(self) -> bool:
        return self.classes is not None

    @property
    def is_multiserver(self) -> bool:
        """Any queueing station with more than one server?"""
        return any(st.servers > 1 for st in self.network.stations if st.kind == "queue")

    @property
    def has_varying_demands(self) -> bool:
        """Does the demand model change with concurrency?"""
        if self.classes is not None:
            return any(c.has_varying_demands for c in self.classes)
        if self.demands is not None:
            return False
        if self.demand_functions is not None or self.demand_matrix is not None:
            return True
        return self.network.has_varying_demands

    @property
    def has_rate_tables(self) -> bool:
        """Any station carrying a tabulated load-dependent rate law?"""
        return bool(self.rate_tables)

    @property
    def think(self) -> float:
        """The effective think time ``Z`` of this scenario."""
        return self.network.think_time if self.think_time is None else float(self.think_time)

    # -- multi-class structure ----------------------------------------------

    @property
    def class_names(self) -> tuple[str, ...]:
        """Class labels in order (multi-class scenarios only)."""
        if self.classes is None:
            raise SolverInputError("scenario: not a multi-class scenario")
        return tuple(c.name for c in self.classes)

    @property
    def class_populations(self) -> tuple[int, ...]:
        """Per-class populations ``(N_1, ..., N_C)``."""
        if self.classes is None:
            raise SolverInputError("scenario: not a multi-class scenario")
        return tuple(int(c.population) for c in self.classes)

    @property
    def class_think_times(self) -> tuple[float, ...]:
        """Per-class think times ``(Z_1, ..., Z_C)``."""
        if self.classes is None:
            raise SolverInputError("scenario: not a multi-class scenario")
        return tuple(float(c.think_time) for c in self.classes)

    def class_structure(self) -> tuple[tuple[str, int, float], ...]:
        """The batching invariant: ``(name, population, think_time)`` per class.

        Multi-class scenarios are stackable into one batched kernel call
        exactly when they share this structure (and the topology /
        ``max_population``); demands are free to differ per scenario.
        """
        if self.classes is None:
            raise SolverInputError("scenario: not a multi-class scenario")
        return tuple(
            (c.name, int(c.population), float(c.think_time)) for c in self.classes
        )

    def resolved_network(self) -> ClosedNetwork:
        """The network with any think-time override applied."""
        if self.think_time is None:
            return self.network
        return self.network.with_think_time(float(self.think_time))

    # -- demand views -------------------------------------------------------

    def fixed_demands(self, solver: str = "scenario") -> np.ndarray:
        """The constant ``(K,)`` demand vector a fixed-demand solver sees.

        Varying demand models are frozen at ``demand_level`` (matrix
        scenarios at the nearest sampled level).  The returned array is
        read-only — derive variants through :meth:`with_overrides`.
        """
        if self.is_multiclass:
            raise SolverInputError(
                f"{solver}: multi-class scenarios have no single-class demand vector"
            )
        if self.demands is not None:
            return _readonly(np.asarray(self.demands, dtype=float))
        if self.demand_matrix is not None:
            row = min(max(int(round(self.demand_level)), 1), self.max_population) - 1
            return _readonly(np.asarray(self.demand_matrix[row], dtype=float))
        if self.demand_functions is not None:
            fns = resolve_demand_functions(self.network, self.demand_functions, solver=solver)
            return _readonly(np.array([float(f(self.demand_level)) for f in fns]))
        return _readonly(resolve_demands(self.network, None, self.demand_level, solver=solver))

    def demand_fns(self, solver: str = "scenario") -> list[DemandFn]:
        """Per-station demand curves ``n -> seconds`` in station order."""
        if self.is_multiclass:
            raise SolverInputError(
                f"{solver}: multi-class scenarios have no single-class demand curves"
            )
        if self.demands is not None:
            return [lambda _n, _v=float(v): _v for v in self.demands]
        if self.demand_matrix is not None:
            levels = np.arange(1, self.max_population + 1, dtype=float)
            return [
                lambda n, _lv=levels, _col=np.asarray(self.demand_matrix[:, i]): np.interp(
                    n, _lv, _col
                )
                for i in range(self.demand_matrix.shape[1])
            ]
        return resolve_demand_functions(self.network, self.demand_functions, solver=solver)

    def resolved_demand_matrix(self, solver: str = "scenario") -> np.ndarray:
        """The full ``(N, K)`` demand samples ``SS_k^n`` for ``n = 1..N``.

        The returned array is read-only; copy before mutating.
        """
        if self.demand_matrix is not None:
            return _readonly(np.asarray(self.demand_matrix))
        if self.demands is not None:
            return _readonly(
                np.tile(np.asarray(self.demands, dtype=float), (self.max_population, 1))
            )
        from ..core.mvasd import precompute_demand_matrix

        return _readonly(
            precompute_demand_matrix(self.demand_fns(solver), self.max_population)
        )

    def ld_rate_matrix(self, solver: str = "scenario") -> np.ndarray:
        """The dense ``(K, N)`` service-rate matrix ``mu_k(j)``.

        Rate-table stations use their tables; other queueing stations
        fall back to the multi-server law ``min(j, C_k) / D_k``; delay
        stations (and zero-demand queues) get ``+inf`` rows.  This is
        the representation the ld-MVA recursion and its batched kernel
        consume; read-only.
        """
        from ..core.ld_mva import build_rate_tables

        return _readonly(
            build_rate_tables(
                self.network,
                self.fixed_demands(solver),
                self.max_population,
                rate_tables=self.rate_tables,
                solver=solver,
            )
        )

    def multiclass_demand_matrix(self, solver: str = "scenario") -> np.ndarray:
        """The ``(K, C)`` class-demand matrix frozen at ``demand_level``.

        The representation the exact multi-class solvers (and their
        batched kernel) consume; read-only.
        """
        if self.classes is None:
            raise SolverInputError(f"{solver}: not a multi-class scenario")
        names = self.station_names
        return _readonly(
            np.stack(
                [c.demand_vector(names, self.demand_level) for c in self.classes],
                axis=1,
            )
        )

    def multiclass_demand_tensor(self, solver: str = "scenario") -> np.ndarray:
        """The ``(N, K, C)`` class-demand samples at totals ``1..N``.

        Per-class demand curves evaluated at every *total* population —
        exactly the values the scalar mix sweep
        (:func:`~repro.core.multiclass_amva.multiclass_mvasd`) observes,
        precomputed for the batched kernel; read-only.
        """
        if self.classes is None:
            raise SolverInputError(f"{solver}: not a multi-class scenario")
        names = self.station_names
        out = np.empty((self.max_population, len(names), len(self.classes)))
        for ci, cls in enumerate(self.classes):
            if cls.has_varying_demands:
                for level in range(1, self.max_population + 1):
                    out[level - 1, :, ci] = cls.demand_vector(names, float(level))
            else:
                out[:, :, ci] = cls.demand_vector(names, 1.0)[None, :]
        return _readonly(out)

    # -- identity -----------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash of everything a solver can observe.

        Two scenarios with the same fingerprint produce the same result
        for any registered method: the hash covers topology (station
        names, kinds, server counts, visits), population, effective
        think time, the frozen ``demand_level``, and the demand model —
        the resolved ``(N, K)`` matrix *and* the frozen single-level
        vector for single-class scenarios, per-class digests for
        multi-class ones.  Float bytes are canonicalized (``-0.0`` →
        ``+0.0``, one NaN bit pattern) before hashing.  The network
        *name* is deliberately excluded: it never reaches a solver, so
        renamed copies share cache entries.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        # The topology header is packed into one buffer: one hash update
        # instead of one per field, over the same bytes.
        header = [_FINGERPRINT_VERSION]
        for st in self.network.stations:
            header += (
                st.name.encode("utf-8"), b"\x00", st.kind.encode("utf-8"), b"\x00",
                struct.pack("<q", int(st.servers)), _float_bytes(st.visits),
            )
        header += (
            struct.pack("<q", self.max_population), _float_bytes(self.think, self.demand_level)
        )
        h = hashlib.sha256(b"".join(header))
        if self.is_multiclass:
            h.update(b"classes\x00")
            for c in self.classes:
                h.update(c.fingerprint(self.station_names, self.max_population).encode("ascii"))
        else:
            h.update(b"single-class\x00")
            _hash_floats(h, self.resolved_demand_matrix("fingerprint"))
            _hash_floats(h, self.fixed_demands("fingerprint"))
            if self.rate_tables:
                h.update(b"rate-tables\x00")
                for name in sorted(self.rate_tables):
                    h.update(name.encode("utf-8"))
                    h.update(b"\x00")
                    _hash_floats(h, self.rate_tables[name])
        digest = h.hexdigest()
        object.__setattr__(self, "_fingerprint", digest)
        return digest

    # -- derivation ---------------------------------------------------------

    def with_overrides(
        self,
        demand_scale: float | None = None,
        think_time: float | None = None,
        max_population: int | None = None,
    ) -> "Scenario":
        """A variant of this scenario with simple axis overrides.

        ``demand_scale`` multiplies the whole demand model (the
        resolved matrix for varying scenarios, the fixed vector
        otherwise) — the common what-if axis of the sweep grids.
        Rate tables scale by ``1 / demand_scale`` (service *rates* are
        inverse demands, so the whole model slows down together) and
        truncate with ``max_population``; like demand matrices, they
        cannot extend beyond their sampled range.

        Multi-class scenarios support ``demand_scale`` (every class's
        demands scale together) and ``max_population``; a ``think_time``
        override is rejected because think times live per class.
        """
        if self.is_multiclass:
            if think_time is not None:
                raise SolverInputError(
                    "scenario: think_time override does not apply to multi-class "
                    "scenarios — think times are per class (WorkloadClass.think_time)"
                )
            n = self.max_population if max_population is None else int(max_population)
            scale = 1.0 if demand_scale is None else float(demand_scale)
            if scale < 0:
                raise SolverInputError(
                    f"scenario: demand_scale must be non-negative, got {scale}"
                )
            if scale == 1.0 and n == self.max_population:
                return self
            classes = tuple(
                WorkloadClass(
                    name=c.name,
                    population=c.population,
                    demands={
                        st: _scale_class_demand(dm, scale)
                        for st, dm in c.demands.items()
                    }
                    if scale != 1.0
                    else c.demands,
                    think_time=c.think_time,
                )
                for c in self.classes
            )
            return Scenario(
                network=self.network,
                max_population=n,
                demand_level=self.demand_level,
                classes=classes,
            )
        n = self.max_population if max_population is None else int(max_population)
        think = self.think if think_time is None else float(think_time)
        if demand_scale is None:
            if self.has_varying_demands:
                return Scenario(
                    network=self.network,
                    max_population=n,
                    demand_matrix=self.resolved_demand_matrix()[:n]
                    if n <= self.max_population
                    else None,
                    demand_functions=None if n <= self.max_population else self.demand_functions,
                    demand_level=self.demand_level,
                    think_time=think,
                )
            return Scenario(
                network=self.network,
                max_population=n,
                demands=self.demands,
                demand_level=self.demand_level,
                think_time=think,
                rate_tables=self._derived_rate_tables(n, 1.0),
            )
        scale = float(demand_scale)
        if scale < 0:
            raise SolverInputError(f"scenario: demand_scale must be non-negative, got {scale}")
        if self.has_varying_demands:
            base = self.resolved_demand_matrix()
            if n > self.max_population:
                raise SolverInputError(
                    "scenario: cannot extend a demand matrix beyond its sampled range"
                )
            return Scenario(
                network=self.network,
                max_population=n,
                demand_matrix=base[:n] * scale,
                demand_level=self.demand_level,
                think_time=think,
            )
        return Scenario(
            network=self.network,
            max_population=n,
            demands=tuple(scale * v for v in self.fixed_demands()),
            demand_level=self.demand_level,
            think_time=think,
            rate_tables=self._derived_rate_tables(n, scale),
        )

    def _derived_rate_tables(
        self, max_population: int, scale: float
    ) -> Mapping[str, tuple[float, ...]] | None:
        """Rate tables for a derived scenario: truncated and rate-scaled."""
        if not self.rate_tables:
            return None
        if max_population > self.max_population:
            raise SolverInputError(
                "scenario: cannot extend a rate table beyond its sampled range"
            )
        if scale <= 0:
            raise SolverInputError(
                f"scenario: demand_scale must be positive for rate-table "
                f"scenarios, got {scale}"
            )
        return {
            name: tuple(v / scale for v in table[:max_population])
            for name, table in self.rate_tables.items()
        }
