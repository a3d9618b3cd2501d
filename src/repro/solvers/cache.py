"""Content-addressed result cache behind the :func:`repro.solvers.solve` facade.

Capacity-planning studies are sweeps of thousands of near-identical
model evaluations: what-if grids re-solve the same baseline, comparison
tables run every method on one scenario, pipelines re-predict the
scenario they just calibrated.  Since PR 2 every one of those calls
funnels through ``solve()``/``solve_stack()``, a single LRU keyed on
:meth:`Scenario.fingerprint` + method + canonicalized options makes the
repeats free.

The cache is strictly a memoization layer: a hit returns the *same*
result object a miss produced, so every NumPy array stored in a result
is frozen (``writeable=False``) on insertion — mutating a cached result
would silently corrupt every later hit.

``resolve_cache`` accepts four spellings so call sites with different
import constraints can all opt in:

* the :data:`USE_DEFAULT_CACHE` sentinel (the default) — process-global
  cache;
* ``None`` — bypass caching entirely;
* a :class:`SolverCache` instance — private cache, e.g. per-test;
* the string ``"default"`` — for modules (``loadtest.replication``)
  that cannot import :mod:`repro.solvers` at module scope without a
  cycle and therefore cannot name the sentinel.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .registry import UnknownSolverError, get_solver

__all__ = [
    "CacheStats",
    "DEFAULT_MAXSIZE",
    "SolverCache",
    "USE_DEFAULT_CACHE",
    "cache_stats",
    "canonical_options",
    "default_cache",
    "resolve_cache",
    "set_default_cache",
]

DEFAULT_MAXSIZE = 256


class _UseDefault:
    """Sentinel distinguishing "use the global cache" from ``cache=None``."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "USE_DEFAULT_CACHE"


USE_DEFAULT_CACHE = _UseDefault()


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of a :class:`SolverCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    uncacheable: int = 0
    size: int = 0
    maxsize: int = DEFAULT_MAXSIZE
    #: Internal cache failures (corrupted entries, unhashable keys,
    #: freezing errors) that degraded to a miss instead of propagating.
    #: Includes failures of the persistent tier, so the PR 5 contract —
    #: ``cache_stats()["errors"]`` counts every degraded operation —
    #: holds across tiers.
    errors: int = 0
    #: Requests answered by the persistent (sqlite) second level after an
    #: in-memory miss.
    persistent_hits: int = 0
    #: Requests answered as a pure prefix slice of a cached trajectory.
    trajectory_hits: int = 0
    #: Requests answered by resuming a cached trajectory to a deeper N.
    trajectory_extends: int = 0
    #: Counters of the persistent tier itself (None when not configured).
    persistent: object | None = None

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __getitem__(self, name: str):
        """Counter access by name, e.g. ``cache_stats()["errors"]``."""
        if name not in {f.name for f in fields(self)}:
            raise KeyError(name)
        return getattr(self, name)


def canonical_options(
    options: Mapping[str, object], method: str | None = None
) -> tuple | None:
    """Hashable canonical form of a solver-options mapping.

    Returns ``None`` when any value cannot be canonicalized (callables,
    arbitrary objects) — the caller must then treat the request as
    uncacheable rather than risk a false hit.  So does
    ``demand_axis="throughput"``: it evaluates demand curves off the
    integer population grid that fingerprints sample, so equal
    fingerprints do not guarantee equal results there.  Floats are
    canonicalized the same way fingerprints are (``-0.0`` folds onto
    ``+0.0``), arrays hash by shape + canonical bytes, mappings by
    sorted key.  With ``method``, an option spelled out at that
    solver's declared default (same type, equal value) is dropped, so
    it keys like the omitted default.
    """
    if options.get("demand_axis") == "throughput":
        return None
    defaults = _option_defaults(method)
    try:
        return tuple(
            (str(k), _canonical_value(v))
            for k, v in sorted(options.items())
            if not (k in defaults and type(v) is type(defaults[k]) and v == defaults[k])
        )
    except _Uncacheable:
        return None


def _option_defaults(method: str | None) -> Mapping[str, object]:
    if method is None:
        return {}
    try:
        return get_solver(method).options
    except UnknownSolverError:
        return {}



class _Uncacheable(Exception):
    pass


def _canonical_value(value):
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return value
    if isinstance(value, float):
        return value + 0.0
    if isinstance(value, np.generic):
        return _canonical_value(value.item())
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(np.asarray(value, dtype=np.float64)) + 0.0
        if np.isnan(arr).any():
            arr = np.where(np.isnan(arr), np.float64("nan"), arr)
        return ("ndarray", arr.shape, arr.tobytes())
    if isinstance(value, Mapping):
        return (
            "mapping",
            tuple((str(k), _canonical_value(v)) for k, v in sorted(value.items())),
        )
    if isinstance(value, Sequence):
        return ("sequence", tuple(_canonical_value(v) for v in value))
    raise _Uncacheable(value)


def _freeze(value) -> None:
    """Recursively mark every ndarray reachable from ``value`` read-only."""
    if isinstance(value, np.ndarray):
        try:
            value.setflags(write=False)
        except ValueError:
            pass  # view of a buffer we do not own; base is what matters
        return
    if is_dataclass(value) and not isinstance(value, type):
        for f in fields(value):
            _freeze(getattr(value, f.name))
        return
    if isinstance(value, Mapping):
        for v in value.values():
            _freeze(v)
        return
    if isinstance(value, (list, tuple, set)):
        for v in value:
            _freeze(v)


class SolverCache:
    """Thread-safe LRU of solver results keyed on content-addressed requests.

    Keys are built by the facade from ``(kind, fingerprint(s), method,
    backend, canonical options)``; values are the solver-result objects
    themselves, frozen on insertion.

    Two optional lower tiers extend the in-memory LRU (PR 7):

    * ``persistent=`` — a :class:`~repro.solvers.persistent.PersistentCache`
      (or a path to create one): a sqlite-backed shared store consulted
      by :meth:`fetch` after an in-memory miss, so process restarts and
      worker fleets warm each other;
    * ``trajectory`` — a
      :class:`~repro.solvers.trajectory.TrajectoryStore` (on by
      default) the *facade* consults for population-prefix and
      resumed-recursion answers; it lives on the cache object so
      ``clear()`` and ``stats()`` cover it.

    The cache is an *optimization*, never a correctness dependency: any
    internal failure in :meth:`get`/:meth:`put` (a corrupted entry, an
    unhashable key, a freezing error) degrades to a counted miss — the
    ``errors`` counter in :meth:`stats` — and the caller recomputes.  A
    broken cache can slow ``solve()`` down but can never make it fail.
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_MAXSIZE,
        persistent=None,
        trajectory=True,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._uncacheable = 0
        self._errors = 0
        self._persistent_hits = 0
        self._trajectory_hits = 0
        self._trajectory_extends = 0
        if isinstance(persistent, (str, os.PathLike)):
            from .persistent import PersistentCache

            persistent = PersistentCache(persistent)
        self.persistent = persistent
        if trajectory is True:
            from .trajectory import TrajectoryStore

            trajectory = TrajectoryStore()
        elif trajectory is False:
            trajectory = None
        self.trajectory = trajectory

    def _note_error(self) -> None:
        with self._lock:
            self._errors += 1
            self._misses += 1

    def get(self, key):
        """The cached result for ``key``, or ``None`` (counted as a miss).

        Never raises: internal failures degrade to a miss and bump the
        ``errors`` counter.
        """
        try:
            self._fault_hook("cache")
            with self._lock:
                try:
                    value = self._data[key]
                except KeyError:
                    self._misses += 1
                    return None
                self._data.move_to_end(key)
                self._hits += 1
                return value
        except Exception:
            self._note_error()
            return None

    def fetch(self, key):
        """Two-tier lookup: ``(result, tier)`` with tier ``"memory"``,
        ``"persistent"``, or ``None`` on a full miss.

        The in-memory LRU is consulted first (same counters as
        :meth:`get`); on a miss, the persistent tier — when configured —
        is probed by the cross-process stable digest of ``key``, and a
        hit is *promoted* into the LRU (frozen, like any insertion) so
        repeats are pure memory hits.  Never raises.
        """
        try:
            self._fault_hook("cache")
            with self._lock:
                try:
                    value = self._data[key]
                except KeyError:
                    pass
                else:
                    self._data.move_to_end(key)
                    self._hits += 1
                    return value, "memory"
            if self.persistent is None:
                with self._lock:
                    self._misses += 1
                return None, None
            from .persistent import persistent_key

            value = self.persistent.get(persistent_key(key))
            if value is None:
                with self._lock:
                    self._misses += 1
                return None, None
            _freeze(value)
            with self._lock:
                self._persistent_hits += 1
                self._data[key] = value
                self._data.move_to_end(key)
                while len(self._data) > self.maxsize:
                    self._data.popitem(last=False)
                    self._evictions += 1
            return value, "persistent"
        except Exception:
            self._note_error()
            return None, None

    def put(self, key, result, persist: bool = True) -> None:
        """Insert ``result``, freezing its arrays; evicts LRU entries.

        With a persistent tier configured and ``persist=True`` the
        result is also written through to the shared store (pass
        ``persist=False`` for derived values — e.g. prefix slices — that
        are cheap to recreate from what is already stored).  Never
        raises: internal failures are dropped (the entry simply is not
        cached) and bump the ``errors`` counter.
        """
        try:
            self._fault_hook("cache")
            _freeze(result)
            with self._lock:
                if key in self._data:
                    self._data.move_to_end(key)
                self._data[key] = result
                while len(self._data) > self.maxsize:
                    self._data.popitem(last=False)
                    self._evictions += 1
        except Exception:
            with self._lock:
                self._errors += 1
            return
        if persist and self.persistent is not None:
            try:
                from .persistent import persistent_key

                method = key[2] if isinstance(key, tuple) and len(key) > 2 else ""
                self.persistent.put(persistent_key(key), result, method=str(method))
            except Exception:
                with self._lock:
                    self._errors += 1

    def note_trajectory(self, kind: str) -> None:
        """Count a request answered by the trajectory store.

        ``kind`` is ``"prefix"`` (pure slice) or ``"extend"`` (resumed
        recursion), matching the tuple tags
        :meth:`~repro.solvers.trajectory.TrajectoryStore.serve` returns.
        """
        with self._lock:
            if kind == "prefix":
                self._trajectory_hits += 1
            elif kind == "extend":
                self._trajectory_extends += 1

    @staticmethod
    def _fault_hook(point: str) -> None:
        """Injection point for the deterministic fault harness.

        ``corrupt-cache-entry`` faults raise here, exercising the
        degrade-to-miss guard above.  Deferred import so this module
        stays importable before the engine package initializes.
        """
        from ..engine.faults import maybe_inject

        maybe_inject(point)

    def note_uncacheable(self) -> None:
        """Count a request the facade could not build a key for."""
        with self._lock:
            self._uncacheable += 1

    def clear(self, persistent: bool = True) -> None:
        """Drop all entries and reset the counters — every tier.

        Pass ``persistent=False`` to keep the shared on-disk store (it
        may be warming *other* processes) while flushing this process's
        memory and trajectory state.
        """
        with self._lock:
            self._data.clear()
            self._hits = self._misses = self._evictions = 0
            self._uncacheable = self._errors = 0
            self._persistent_hits = 0
            self._trajectory_hits = self._trajectory_extends = 0
        if self.trajectory is not None:
            self.trajectory.clear()
        if persistent and self.persistent is not None:
            self.persistent.clear()

    def stats(self) -> CacheStats:
        pstats = self.persistent.stats() if self.persistent is not None else None
        t_errors = (
            self.trajectory.stats()["errors"] if self.trajectory is not None else 0
        )
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                uncacheable=self._uncacheable,
                size=len(self._data),
                maxsize=self.maxsize,
                # one counter covers every tier's degraded operations
                errors=self._errors + t_errors + (pstats.errors if pstats else 0),
                persistent_hits=self._persistent_hits,
                trajectory_hits=self._trajectory_hits,
                trajectory_extends=self._trajectory_extends,
                persistent=pstats,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"SolverCache(size={s.size}/{s.maxsize}, hits={s.hits}, "
            f"misses={s.misses}, evictions={s.evictions})"
        )


_default_cache = SolverCache()
_default_lock = threading.Lock()


def default_cache() -> SolverCache:
    """The process-global cache ``solve()`` uses when none is passed."""
    return _default_cache


def set_default_cache(cache: SolverCache) -> SolverCache:
    """Replace the process-global cache; returns the previous one."""
    global _default_cache
    if not isinstance(cache, SolverCache):
        raise TypeError(f"expected a SolverCache, got {type(cache).__name__}")
    with _default_lock:
        previous = _default_cache
        _default_cache = cache
    return previous


def cache_stats(cache: SolverCache | None = None) -> CacheStats:
    """Counters of ``cache`` (the process-global cache by default)."""
    return (cache if cache is not None else _default_cache).stats()


def resolve_cache(cache) -> SolverCache | None:
    """Map a user-facing ``cache=`` argument to a cache instance or ``None``."""
    if cache is USE_DEFAULT_CACHE or cache == "default":
        return _default_cache
    if cache is None or isinstance(cache, SolverCache):
        return cache
    raise TypeError(
        "cache must be USE_DEFAULT_CACHE, None, a SolverCache, or 'default', "
        f"got {cache!r}"
    )
